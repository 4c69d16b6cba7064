"""Command-line front end.

Each computation writes three sibling artifacts next to the requested output
stem: ``<out>.csv`` with the plotted numbers, ``<out>.svg`` with a small
static plot, and ``<out>.report.json`` with configuration, timings and the
built-in cross-checks.  ``--check`` turns failed cross-checks into a nonzero
exit code.
"""

from __future__ import annotations

import decimal
import math

import click
import numpy as np

from . import montecarlo, operators, powerseries, schemes, signature, tensor
from .report import RunReport, write_csv, write_svg


def _finish(report: RunReport, out: str, check: bool) -> None:
    report.write(out + ".report.json")
    if check and not report.all_passed:
        failed = [c["name"] for c in report.checks if not c["pass"]]
        raise click.ClickException("failed checks: " + ", ".join(failed))


def _int_list(minimum: int):
    """Option callback: a comma list of integers, each at least minimum."""

    def parse(ctx, param, value: str) -> list[int]:
        try:
            out = [int(x) for x in value.split(",") if x]
        except ValueError:
            raise click.BadParameter(f"{value!r} is not a comma list of integers") from None
        if any(v < minimum for v in out):
            raise click.BadParameter(f"every entry of {value!r} must be >= {minimum}")
        return out

    return parse


class _FiniteFloat(click.FloatRange):
    """A finite float, at least ``min`` when one is given.  FloatRange lets
    nan and inf through (nan compares false with any bound)."""

    name = "float"

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{x} is not a finite number.", param, ctx)
        return x

    def _describe_range(self) -> str:
        return "" if self.min is None else super()._describe_range()


_FINITE = _FiniteFloat()
_NONNEGATIVE = _FiniteFloat(min=0)


@click.group()
def main():
    """Coefficient-ODE calculators for signature and polynomial diffusions."""


@main.command("gbm-laplace")
@click.option("--c", "c_", type=_FINITE, default=1.0, show_default=True)
@click.option("--y0", type=_FINITE, default=1.0, show_default=True)
@click.option("--t", "--T", "T", type=_NONNEGATIVE, default=1.0, show_default=True)
@click.option(
    "--k", "--K", "K", type=click.IntRange(0, 170), default=20, show_default=True,
    help="truncation degree; at most 170, since the factorial basis holds k! "
    "as a float64 and 171! overflows it",
)
@click.option("--steps", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--out", type=str, default="gbm_laplace", show_default=True)
@click.option("--check", is_flag=True)
def cmd_gbm_laplace(c_, y0, T, K, steps, out, check):
    """Laplace functional of an exponentiated Brownian motion.

    Solves the quadratic coefficient ODE for E[exp(-c y0 e^(B_t))] twice, in
    the monomial basis of the scalar calculus and in the factorial basis of
    the d=1 tensor algebra, both in one RK4 loop over the stack of the two
    fields, and compares against Gaussian quadrature at the
    step nearest each multiple of 0.05 below T and at T itself, each row at
    its step's time.
    """
    if T > 0 and (c_ < 0 < y0 or y0 < 0 < c_):
        raise click.BadParameter(
            "E[exp(-c y0 e^(B_t))] is infinite for t > 0 when c y0 < 0: "
            "the lognormal has no exponential moments",
            param_hint=["--c", "--y0"],
        )
    report = RunReport(
        "gbm-laplace", {"c": c_, "y0": y0, "T": T, "K": K, "steps": steps}
    )
    model = powerseries.brownian_model(K)
    u0 = powerseries.gbm_laplace_initial(c_, y0, K)
    cfg = schemes.SchemeConfig(T=T, steps=steps)
    spec = operators.brownian_spec(1, K)
    (traj, vals), (traj2, vals2) = schemes.scheme1_stack(
        [model.field.riccati, spec.field.riccati],
        [u0, powerseries.to_factorial_basis(u0)],
        cfg,
    )

    grid = [i * 0.05 for i in range(math.ceil(T / 0.05 - 1e-9))] + [T]
    rows = []
    worst = 0.0
    worst_bases = 0.0
    missing = 0
    at = {}  # nearest step -> its time, kept as the multiple of 0.05 it lands on
    for t in grid:
        x = t / T * cfg.steps if T > 0 else 0.0
        k = min(round(x), cfg.steps)
        at[k] = t if abs(x - k) <= 1e-9 else at.get(k, k * T / cfg.steps)
    for k, t in at.items():
        v1 = vals[k].real if k < len(vals) else float("nan")
        v2 = vals2[k].real if k < len(vals2) else float("nan")
        ref = montecarlo.gauss_hermite_expectation(
            lambda z: np.exp(-c_ * y0 * np.exp(z)), variance=t
        ).real
        worst = max(worst, abs(v1 - ref))  # max skips a NaN: delivered rows only
        worst_bases = max(worst_bases, abs(v1 - v2))
        missing += math.isnan(v1) or math.isnan(v2)
        rows.append([t, v1, v2, ref, abs(v1 - ref), traj.status])
    report.add_check("max deviation from quadrature", worst, 1e-3)
    report.add_check("basis agreement", worst_bases, 1e-8)
    report.add_check("grid rows without a value", missing, 0)
    report.extra["field"] = spec.field.sizes()
    report.extra["integrator"] = {"monomial_basis": traj.stats, "factorial_basis": traj2.stats}
    write_csv(
        out + ".csv",
        ["t", "monomial_basis", "factorial_basis", "quadrature", "abs_err", "status"],
        rows,
    )
    write_svg(
        out + ".svg",
        [
            ("coefficient ODE", [r[0] for r in rows], [r[1] for r in rows]),
            ("quadrature", [r[0] for r in rows], [r[3] for r in rows]),
        ],
        title="Laplace functional of exponentiated Brownian motion",
        xlabel="t",
        ylabel="value",
    )
    _finish(report, out, check)


@main.command("bm-quartic")
@click.option("--t", "--T", "T", type=_NONNEGATIVE, default=1.0, show_default=True)
@click.option("--k", "--K", "K", type=click.IntRange(min=4), default=160, show_default=True)
@click.option("--n", "--N", "N", type=click.IntRange(min=1), default=80, show_default=True)
@click.option("--m", "--M", "Ms", type=str, default="80,160,320", show_default=True, callback=_int_list(1))
@click.option("--riccati-k", "rk", type=str, default="10,20,40", show_default=True, callback=_int_list(4), help="comma list of direct-ODE truncations to overlay")
@click.option("--out", type=str, default="bm_quartic", show_default=True)
@click.option("--check", is_flag=True)
def cmd_bm_quartic(T, K, N, Ms, rk, out, check):
    """Quartic-exponent functional E[exp(-B_t^4/24)] of Brownian motion.

    Runs the transport mixture for each half-step count M and compares the
    surviving portion against Gaussian quadrature.  The direct ODE at each
    --riccati-k truncation is overlaid; all of them run in one RK4 loop.
    """
    report = RunReport(
        "bm-quartic", {"T": T, "K": K, "N": N, "M": Ms, "riccati_K": rk}
    )
    model = powerseries.brownian_model(K)
    u0 = powerseries.quartic_initial(K)

    times = [T * n / N for n in range(N + 1)]
    refs = [
        montecarlo.gauss_hermite_expectation(
            lambda z: np.exp(-(z**4) / 24.0), variance=t
        ).real
        for t in times
    ]
    columns = {}
    explosion = {}
    for m_count in Ms:
        cfg = schemes.SchemeConfig(T=T, N=N, M=m_count, steps=1)
        traj, vals = schemes.scheme2_transport(model.field.riccati, u0, cfg)
        col = [v.real for v in vals] + [float("nan")] * (N + 1 - len(vals))
        columns[m_count] = col
        explosion[m_count] = traj.explosion_time
        report.extra.setdefault("transport_integrator", {})[str(m_count)] = traj.stats
        rel = 0.0
        for v, r in zip(vals, refs):
            rel = max(rel, abs(v.real - r) / abs(r))
        report.add_check(f"relative error before explosion (M={m_count})", rel, 0.02)
    exp_times = [explosion[m] if explosion[m] is not None else float("inf") for m in Ms]
    monotone = all(a <= b + 1e-12 for a, b in zip(exp_times, exp_times[1:]))
    report.add_check(
        "explosion time nondecreasing in M", 0.0 if monotone else 1.0, 0.5
    )
    report.extra["explosion_times"] = {str(m): explosion[m] for m in Ms}
    report.extra["field"] = model.field.sizes()

    solved = schemes.scheme1_stack(
        [powerseries.brownian_model(kk).field.riccati for kk in rk],
        [powerseries.quartic_initial(kk) for kk in rk],
        schemes.SchemeConfig(T=T, steps=max(1000, N * 10)),
    )
    ricc = dict(zip(rk, solved))
    for kk, (trajk, _) in ricc.items():
        report.extra.setdefault("riccati_explosion_times", {})[str(kk)] = (
            trajk.explosion_time
        )
        report.extra.setdefault("riccati_integrator", {})[str(kk)] = trajk.stats

    header = ["t", "quadrature"] + [f"transport_M{m}" for m in Ms]
    rows = [
        [times[i], refs[i]] + [columns[m][i] for m in Ms] for i in range(N + 1)
    ]
    write_csv(out + ".csv", header, rows)
    series = [("quadrature", times, refs)]
    for m_count in Ms:
        xs = [t for t, v in zip(times, columns[m_count]) if not math.isnan(v)]
        ys = [v for v in columns[m_count] if not math.isnan(v)]
        series.append((f"transport M={m_count}", xs, ys))
    for kk, (trajk, valsk) in ricc.items():
        series.append((f"direct ODE K={kk}", trajk.times.tolist(), valsk.real.tolist()))
    write_svg(
        out + ".svg",
        series,
        title="Quartic-exponent Brownian functional",
        xlabel="t",
        ylabel="value",
    )
    _finish(report, out, check)


@main.command("jacobi-mgf")
@click.option("--t", "--T", "T", type=_NONNEGATIVE, default=1000.0, show_default=True)
@click.option("--k", "--K", "K", type=click.IntRange(min=2), default=40, show_default=True)
@click.option("--x0", type=_FINITE, default=0.5, show_default=True)
@click.option("--cmin", type=_FINITE, default=-3.0, show_default=True)
@click.option("--cmax", type=_FINITE, default=3.0, show_default=True)
@click.option("--num", type=click.IntRange(min=1), default=25, show_default=True)
@click.option("--out", type=str, default="jacobi_mgf", show_default=True)
@click.option("--check", is_flag=True)
def cmd_jacobi_mgf(T, K, x0, cmin, cmax, num, out, check):
    """Moment generating function of the Jacobi diffusion via the linear
    coefficient ODE, against the two-point stationary law."""
    report = RunReport(
        "jacobi-mgf",
        {"T": T, "K": K, "x0": x0, "cmin": cmin, "cmax": cmax, "num": num},
    )
    try:
        model = powerseries.jacobi_model(K, x0=x0)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--x0'") from None
    G = powerseries.linear_matrix_1d(model)
    cs = list(np.linspace(cmin, cmax, num))
    try:
        # an overflowing series leaves non-finite entries, which scheme3_linear
        # refuses
        with np.errstate(over="ignore", invalid="ignore"):
            block = powerseries.mgf_initial_block(cs, K)
        # one exponential exp(T G) for every c: a block of initial data
        _, vals = schemes.scheme3_linear(G, block, T, x0=x0)
        # stationary law: mass x0 at 1 and 1 - x0 at 0 (X is a martingale)
        stats = [(1.0 - x0) + x0 * math.exp(c) for c in cs]
    except (OverflowError, FloatingPointError):
        raise click.BadParameter(
            f"E[exp(c X_T)] leaves the float range for c in [{cmin:g}, {cmax:g}]",
            param_hint=["--cmin", "--cmax"],
        ) from None
    rows = []
    worst = 0.0
    for c, val, stat in zip(cs, vals, stats):
        err = abs(val.real - stat)
        worst = max(worst, err)
        rows.append([c, val.real, stat, err])
    report.add_check("max deviation from stationary mgf", worst, 5e-3)
    report.extra["field"] = model.field.sizes()
    write_csv(out + ".csv", ["c", "mgf", "stationary", "abs_err"], rows)
    write_svg(
        out + ".svg",
        [
            ("linear ODE", cs, [r[1] for r in rows]),
            ("stationary", cs, [r[2] for r in rows]),
        ],
        title=f"Jacobi mgf at T={T:g}",
        xlabel="c",
        ylabel="E[exp(c X_T)]",
    )
    _finish(report, out, check)


@main.command("levy-area")
@click.option("--lambda", "lam", type=_FINITE, default=1.0, show_default=True)
@click.option("--gamma1", type=_FINITE, default=0.0, show_default=True)
@click.option("--gamma2", type=_FINITE, default=0.0, show_default=True)
@click.option("--t", "--T", "T", type=_NONNEGATIVE, default=1.0, show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--out", type=str, default="levy_area", show_default=True)
@click.option("--check", is_flag=True)
def cmd_levy_area(lam, gamma1, gamma2, T, steps, out, check):
    """Joint characteristic function of planar Brownian motion and its
    signed area, by the quadratic ODE on the level-2 tensor coefficients."""
    report = RunReport(
        "levy-area",
        {"lambda": lam, "gamma1": gamma1, "gamma2": gamma2, "T": T, "steps": steps},
    )
    spec = operators.brownian_spec(2, 2)
    u0 = tensor.TensorCoeffs(2, 2)
    u0[(2, 1)] = 0.5j * lam
    u0[(1, 2)] = -0.5j * lam
    u0[(1,)] = 1j * gamma1
    u0[(2,)] = 1j * gamma2
    cfg = schemes.SchemeConfig(T=T, steps=steps)
    traj, vals = schemes.scheme1_riccati(spec.field.riccati, u0.coeffs, cfg)
    times, values = traj.times.tolist(), vals.tolist()  # cheaper than numpy scalars
    # Levy: sech(lam t/2) exp(-|gamma|^2 tanh(lam t/2)/lam), at lam = 0 its limit
    g2 = gamma1**2 + gamma2**2
    refs = [
        math.exp(-(g2 * math.tanh(lam * t / 2.0) / lam if lam else g2 * t / 2.0))
        / math.cosh(lam * t / 2.0) for t in times
    ]
    worst = max(abs(v - r) for v, r in zip(values, refs))
    report.add_check("deviation from Levy's closed form", worst, 1e-6)
    report.add_check("grid rows without a value", steps + 1 - len(traj.times), 0)
    report.extra["field"] = spec.field.sizes()
    report.extra["integrator"] = traj.stats
    rows = [[t, v.real, v.imag, traj.status] for t, v in zip(times, values)]
    write_csv(out + ".csv", ["t", "value_re", "value_im", "status"], rows)
    write_svg(
        out + ".svg",
        [
            ("Re", times, vals.real.tolist()),
            ("Im", times, vals.imag.tolist()),
        ],
        title="Characteristic function of signed area",
        xlabel="t",
        ylabel="value",
    )
    _finish(report, out, check)


def _lognormal_words(level: int, sigma: float, s0: float, T: float) -> tuple[list, list]:
    """Closed forms of the lognormal asset's words for m = 0..level, summed
    at 50 digits since the terms alternate.  With a_j = sigma^2 j (j-1)/2:
    the pure-asset word 2^m is E[(S_T - s0)^m]/m! = s0^m sum_j C(m, j)
    (-1)^(m-j) e^(a_j T) / m!, and the asset-then-time word 2^m 1 is its
    time integral, the same sum over (e^(a_j T) - 1)/a_j, the term T where
    a_j = 0.  Each e^(a_j T) is taken once and serves both, with as many
    more digits as a_j T has leading zeros, so that e^(a_j T) - 1 keeps 50."""
    with decimal.localcontext(decimal.Context(prec=50)) as ctx:
        v = decimal.Decimal(sigma) ** 2 * decimal.Decimal(T) / 2
        x = [v * j * (j - 1) for j in range(level + 1)]  # a_j T
        e = [xj.exp(decimal.Context(prec=ctx.prec + max(0, -xj.adjusted()))) for xj in x]
        span = [decimal.Decimal(T) * (ej - 1) / xj if xj else decimal.Decimal(T)
                for xj, ej in zip(x, e)]

        def word(m: int, terms: list) -> float:
            total = sum(math.comb(m, j) * (-1) ** (m - j) * terms[j] for j in range(m + 1))
            return float(decimal.Decimal(s0) ** m * total / math.factorial(m))

        return [word(m, e) for m in range(level + 1)], [word(m, span) for m in range(level + 1)]


@main.command("expected-sig")
@click.option("--sigma", type=_FINITE, default=0.2, show_default=True)
@click.option("--s0", type=_FINITE, default=1.0, show_default=True)
@click.option("--level", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--t", "--T", "T", type=_NONNEGATIVE, default=1.0, show_default=True)
@click.option("--out", type=str, default="expected_sig", show_default=True)
@click.option("--check", is_flag=True)
def cmd_expected_sig(sigma, s0, level, T, out, check):
    """Expected truncated signature of a time-extended lognormal diffusion
    from the exponential of the linear operator, applied to the empty word."""
    report = RunReport(
        "expected-sig", {"sigma": sigma, "s0": s0, "level": level, "T": T}
    )
    spec = operators.black_scholes_spec(sigma, s0, level)
    c = schemes.expected_signature(spec, level, T)
    asset, asset_time = _lognormal_words(level, sigma, s0, T)
    # each word's error relative to max(1, |reference|): the words grow like
    # T^m/m! and e^(sigma^2 T m(m-1)/2)
    err = {"time": 0.0, "asset": 0.0, "asset_time": 0.0}
    rows = []
    for k, w in enumerate(tensor.all_words(2, level)):
        val = c[k].real
        rows.append(["" if not w else ",".join(map(str, w)), val])
        m = len(w)
        if all(l == 1 for l in w):
            kind, ref = "time", T**m / math.factorial(m)
        elif all(l == 2 for l in w):
            kind, ref = "asset", asset[m]
        elif w[-1] == 1 and all(l == 2 for l in w[:-1]):
            kind, ref = "asset_time", asset_time[m - 1]
        else:
            continue
        err[kind] = max(err[kind], abs(val - ref) / max(1.0, abs(ref)))
    report.add_check("pure-time words vs T^m/m!", err["time"], 1e-10)
    report.add_check("pure-asset words vs lognormal moments", err["asset"], 1e-10)
    report.add_check("asset-then-time words vs integrated lognormal moments",
                     err["asset_time"], 1e-10)
    report.extra["field"] = spec.field.sizes()
    write_csv(out + ".csv", ["word", "value"], rows)
    write_svg(
        out + ".svg",
        [("expected signature", list(range(len(rows))), [r[1] for r in rows])],
        title="Expected signature coefficients by word rank",
        xlabel="word rank",
        ylabel="value",
    )
    _finish(report, out, check)


@main.group("algebra")
def algebra():
    """Tensor-algebra utilities on coefficient text files."""


def _read_input(path: str, parse):
    """parse(text) of a file; a malformed file ends the command with a
    one-line error naming it, not a traceback."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _load_coeffs(path: str, d: int | None, N: int | None) -> tensor.TensorCoeffs:
    return _read_input(path, lambda text: tensor.TensorCoeffs.from_text(text, d=d, N=N))


_dim_opts = [
    click.option("--d", type=click.IntRange(min=1), default=None, help="alphabet size (inferred if omitted)"),
    click.option("--n", "--N", "N", type=click.IntRange(min=0), default=None, help="truncation level (inferred if omitted)"),
    click.option("--out", type=str, required=True),
    click.option("--check", is_flag=True),
]


def _with_dim_opts(fn):
    for opt in reversed(_dim_opts):
        fn = opt(fn)
    return fn


def _random_grouplike(d: int, N: int) -> tensor.TensorCoeffs:
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, d))
    return signature.path_signature(
        signature.PiecewisePath(times=np.arange(6.0), points=pts), N
    )


@algebra.command("shuffle")
@click.option("--a", "a_path", type=str, required=True)
@click.option("--b", "b_path", type=str, required=True)
@_with_dim_opts
def algebra_shuffle(a_path, b_path, d, N, out, check):
    """Shuffle product of two coefficient files."""
    a = _load_coeffs(a_path, d, N)
    b = _load_coeffs(b_path, d, N)
    N_common = max(a.N, b.N) if N is None else N
    d_common = max(a.d, b.d) if d is None else d
    a = a if (a.d, a.N) == (d_common, N_common) else tensor.TensorCoeffs.from_text(a.to_text(), d=d_common, N=N_common)
    b = b if (b.d, b.N) == (d_common, N_common) else tensor.TensorCoeffs.from_text(b.to_text(), d=d_common, N=N_common)
    res = a.shuffle(b)
    report = RunReport("algebra shuffle", {"d": d_common, "N": N_common})
    # multiplicativity against a group-like element is an independent
    # witness; it needs a truncation deep enough to hold the full product
    N_check = a.max_support_level() + b.max_support_level()
    a_chk = a.with_truncation(N_check)
    b_chk = b.with_truncation(N_check)
    g = _random_grouplike(d_common, N_check)
    viol = abs(a_chk.shuffle(b_chk).pair(g) - a_chk.pair(g) * b_chk.pair(g))
    scale = max(1.0, abs(a_chk.pair(g) * b_chk.pair(g)))
    report.add_check("group-like multiplicativity", viol / scale, 1e-9)
    with open(out + ".txt", "w") as fh:
        fh.write(res.to_text())
    _finish(report, out, check)


@algebra.command("exp")
@click.option("--a", "a_path", type=str, required=True)
@_with_dim_opts
def algebra_exp(a_path, d, N, out, check):
    """Shuffle exponential of a coefficient file."""
    a = _load_coeffs(a_path, d, N)
    res = a.shuffle_exp()
    report = RunReport("algebra exp", {"d": a.d, "N": a.N})
    back = res.shuffle_log()
    report.add_check(
        "log round trip", float(np.max(np.abs(back.coeffs - a.coeffs))), 1e-10
    )
    with open(out + ".txt", "w") as fh:
        fh.write(res.to_text())
    _finish(report, out, check)


@algebra.command("log")
@click.option("--a", "a_path", type=str, required=True)
@_with_dim_opts
def algebra_log(a_path, d, N, out, check):
    """Shuffle logarithm of a coefficient file."""
    a = _load_coeffs(a_path, d, N)
    try:
        res = a.shuffle_log()
    except ValueError as exc:  # a zero scalar part
        raise click.ClickException(f"{a_path}: {exc}") from None
    report = RunReport("algebra log", {"d": a.d, "N": a.N})
    back = res.shuffle_exp()
    report.add_check(
        "exp round trip", float(np.max(np.abs(back.coeffs - a.coeffs))), 1e-10
    )
    with open(out + ".txt", "w") as fh:
        fh.write(res.to_text())
    _finish(report, out, check)


@algebra.command("sig")
@click.option("--path", "path_csv", type=str, required=True, help="path samples CSV")
@click.option("--level", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--time-extend", "extend", is_flag=True)
@click.option("--out", type=str, required=True)
@click.option("--check", is_flag=True)
def algebra_sig(path_csv, level, extend, out, check):
    """Truncated signature of a sampled path."""
    path = _read_input(path_csv, signature.PiecewisePath.from_csv)
    if extend:
        path = signature.time_extend(path)
    sig = signature.path_signature(path, level)
    report = RunReport(
        "algebra sig", {"level": level, "d": path.d, "samples": len(path.times)}
    )
    ok, worst = signature.is_grouplike(sig)
    report.add_check("group-like defect", worst, 1e-9)
    with open(out + ".txt", "w") as fh:
        fh.write(sig.to_text())
    _finish(report, out, check)


if __name__ == "__main__":
    main()
