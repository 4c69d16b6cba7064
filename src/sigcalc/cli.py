"""Command-line front end.

Each computation writes three sibling artifacts next to the requested output
stem: ``<out>.csv`` with the plotted numbers, ``<out>.svg`` with a small
static plot, and ``<out>.report.json`` with configuration, timings and the
built-in cross-checks.  ``--check`` turns failed cross-checks into a nonzero
exit code.  The environment variable SIGCALC_THREADS caps the BLAS thread
count when a thread-control backend is available.
"""

from __future__ import annotations

import math
import os
import sys

import click
import numpy as np

from . import montecarlo, operators, powerseries, schemes, signature, tensor
from .report import RunReport, write_csv, write_svg


def _apply_thread_cap() -> int | None:
    raw = os.environ.get("SIGCALC_THREADS")
    if not raw:
        return None
    cap = max(1, int(raw))
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(cap)
    except Exception:
        pass
    return cap


def _finish(report: RunReport, out: str, check: bool) -> None:
    report.write(out + ".report.json")
    if check and not report.all_passed:
        failed = [c["name"] for c in report.checks if not c["pass"]]
        raise click.ClickException("failed checks: " + ", ".join(failed))


@click.group()
def main():
    """Coefficient-ODE calculators for signature and polynomial diffusions."""
    _apply_thread_cap()


@main.command("gbm-laplace")
@click.option("--c", "c_", type=float, default=1.0, show_default=True)
@click.option("--y0", type=float, default=1.0, show_default=True)
@click.option("--t", "--T", "T", type=float, default=1.0, show_default=True)
@click.option("--k", "--K", "K", type=int, default=20, show_default=True)
@click.option("--steps", type=int, default=1000, show_default=True)
@click.option("--out", type=str, default="gbm_laplace", show_default=True)
@click.option("--check", is_flag=True)
def cmd_gbm_laplace(c_, y0, T, K, steps, out, check):
    """Laplace functional of an exponentiated Brownian motion.

    Solves the quadratic coefficient ODE for E[exp(-c y0 e^(B_t))] in both
    coefficient bases and compares against Gaussian quadrature.
    """
    report = RunReport(
        "gbm-laplace", {"c": c_, "y0": y0, "T": T, "K": K, "steps": steps}
    )
    model = powerseries.brownian_model(K)
    u0 = powerseries.gbm_laplace_initial(c_, y0, K)
    cfg = schemes.SchemeConfig(T=T, steps=steps)
    traj, vals = schemes.scheme1_riccati(
        lambda y: powerseries.R_pow(powerseries.Seq(K, y), model).coeffs,
        u0.coeffs,
        cfg,
    )
    u0_sig = powerseries.to_factorial_basis(u0)
    traj2, vals2 = schemes.scheme1_riccati(
        lambda y: powerseries.R_sig(powerseries.Seq(K, y), model).coeffs,
        u0_sig.coeffs,
        cfg,
    )

    grid = [i * 0.05 for i in range(int(round(T / 0.05)) + 1)] if T >= 0.05 else [T]
    rows = []
    worst = 0.0
    worst_bases = 0.0
    for t in grid:
        k = int(round(t / T * cfg.steps)) if T > 0 else 0
        v1 = vals[k].real if k < len(vals) else float("nan")
        v2 = vals2[k].real if k < len(vals2) else float("nan")
        ref = montecarlo.gauss_hermite_expectation(
            lambda z: np.exp(-c_ * y0 * np.exp(z)), variance=t
        ).real
        worst = max(worst, abs(v1 - ref))
        worst_bases = max(worst_bases, abs(v1 - v2))
        rows.append([t, v1, v2, ref, abs(v1 - ref), traj.status])
    report.add_check("max deviation from quadrature", worst, 1e-3)
    report.add_check("basis agreement", worst_bases, 1e-8)
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
@click.option("--t", "--T", "T", type=float, default=1.0, show_default=True)
@click.option("--k", "--K", "K", type=int, default=160, show_default=True)
@click.option("--n", "--N", "N", type=int, default=80, show_default=True)
@click.option("--m", "--M", "M", type=str, default="80,160,320", show_default=True)
@click.option("--riccati-k", type=str, default="10,20,40", show_default=True, help="comma list of direct-ODE truncations to overlay")
@click.option("--out", type=str, default="bm_quartic", show_default=True)
@click.option("--check", is_flag=True)
def cmd_bm_quartic(T, K, N, M, riccati_k, out, check):
    """Quartic-exponent functional E[exp(-B_t^4/24)] of Brownian motion.

    Runs the transport mixture for each half-step count M and compares the
    surviving portion against Gaussian quadrature.
    """
    Ms = [int(x) for x in M.split(",") if x]
    rk = [int(x) for x in riccati_k.split(",") if x]
    report = RunReport(
        "bm-quartic", {"T": T, "K": K, "N": N, "M": Ms, "riccati_K": rk}
    )
    model = powerseries.brownian_model(K)
    u0 = powerseries.to_factorial_basis(powerseries.quartic_initial(K))

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
        traj, vals = schemes.scheme2_transport(
            lambda y: powerseries.R_sig(powerseries.Seq(K, y), model).coeffs,
            u0.coeffs,
            cfg,
        )
        col = [v.real for v in vals] + [float("nan")] * (N + 1 - len(vals))
        columns[m_count] = col
        explosion[m_count] = traj.explosion_time if traj.status == "exploded" else None
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

    ricc = {}
    for kk in rk:
        mk = powerseries.brownian_model(kk)
        u0k = powerseries.to_factorial_basis(powerseries.quartic_initial(kk))
        cfgk = schemes.SchemeConfig(T=T, steps=max(1000, N * 10))
        trajk, valsk = schemes.scheme1_riccati(
            lambda y: powerseries.R_sig(powerseries.Seq(kk, y), mk).coeffs,
            u0k.coeffs,
            cfgk,
        )
        ricc[kk] = (trajk, valsk)
        report.extra.setdefault("riccati_explosion_times", {})[str(kk)] = (
            trajk.explosion_time
        )

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
        series.append((f"direct ODE K={kk}", list(trajk.times), [v.real for v in valsk]))
    write_svg(
        out + ".svg",
        series,
        title="Quartic-exponent Brownian functional",
        xlabel="t",
        ylabel="value",
    )
    _finish(report, out, check)


@main.command("jacobi-mgf")
@click.option("--t", "--T", "T", type=float, default=1000.0, show_default=True)
@click.option("--k", "--K", "K", type=int, default=40, show_default=True)
@click.option("--x0", type=float, default=0.5, show_default=True)
@click.option("--cmin", type=float, default=-3.0, show_default=True)
@click.option("--cmax", type=float, default=3.0, show_default=True)
@click.option("--num", type=int, default=25, show_default=True)
@click.option("--out", type=str, default="jacobi_mgf", show_default=True)
@click.option("--check", is_flag=True)
def cmd_jacobi_mgf(T, K, x0, cmin, cmax, num, out, check):
    """Moment generating function of the Jacobi diffusion via the linear
    coefficient ODE, against the two-point stationary law."""
    report = RunReport(
        "jacobi-mgf",
        {"T": T, "K": K, "x0": x0, "cmin": cmin, "cmax": cmax, "num": num},
    )
    model = powerseries.jacobi_model(K, x0=x0)
    G = powerseries.linear_matrix_1d(model, K)
    cs = list(np.linspace(cmin, cmax, num))
    rows = []
    worst = 0.0
    for c in cs:
        u0 = powerseries.exp_conv(powerseries.mgf_initial(c, K))
        _, val = schemes.scheme3_linear(G, u0.coeffs, T, x0=x0)
        # stationary law: mass x0 at 1 and 1 - x0 at 0 (X is a martingale)
        stat = (1.0 - x0) + x0 * math.exp(c)
        err = abs(val.real - stat)
        worst = max(worst, err)
        rows.append([c, val.real, stat, err])
    report.add_check("max deviation from stationary mgf", worst, 5e-3)
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
@click.option("--lambda", "lam", type=float, default=1.0, show_default=True)
@click.option("--gamma1", type=float, default=0.0, show_default=True)
@click.option("--gamma2", type=float, default=0.0, show_default=True)
@click.option("--t", "--T", "T", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=1000, show_default=True)
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
    traj, vals = schemes.scheme1_riccati(
        lambda y: operators.R_op(tensor.TensorCoeffs(2, 2, y), spec).coeffs,
        u0.coeffs,
        cfg,
    )
    if gamma1 == 0.0 and gamma2 == 0.0:
        refs = [1.0 / math.cosh(lam * t / 2.0) for t in traj.times]
        worst = max(abs(v - r) for v, r in zip(vals, refs))
        report.add_check("deviation from sech closed form", worst, 1e-6)
    rows = [
        [t, v.real, v.imag, traj.status] for t, v in zip(traj.times, vals)
    ]
    write_csv(out + ".csv", ["t", "value_re", "value_im", "status"], rows)
    write_svg(
        out + ".svg",
        [
            ("Re", list(traj.times), [v.real for v in vals]),
            ("Im", list(traj.times), [v.imag for v in vals]),
        ],
        title="Characteristic function of signed area",
        xlabel="t",
        ylabel="value",
    )
    _finish(report, out, check)


@main.command("expected-sig")
@click.option("--sigma", type=float, default=0.2, show_default=True)
@click.option("--s0", type=float, default=1.0, show_default=True)
@click.option("--level", type=int, default=3, show_default=True)
@click.option("--t", "--T", "T", type=float, default=1.0, show_default=True)
@click.option("--out", type=str, default="expected_sig", show_default=True)
@click.option("--check", is_flag=True)
def cmd_expected_sig(sigma, s0, level, T, out, check):
    """Expected truncated signature of a time-extended lognormal diffusion
    from the matrix exponential of the linear operator."""
    report = RunReport(
        "expected-sig", {"sigma": sigma, "s0": s0, "level": level, "T": T}
    )
    spec = operators.black_scholes_spec(sigma, s0, level)
    Gt = operators.expected_signature_matrix(spec, level)
    m0 = np.zeros(Gt.shape[0])
    m0[0] = 1.0
    c, _ = schemes.scheme3_linear(Gt, m0, T)
    tab = tensor.tables(2, level)
    worst = 0.0
    rows = []
    for k, w in enumerate(tab.words):
        val = c[k].real
        rows.append(["" if not w else ",".join(map(str, w)), val])
        if all(l == 1 for l in w):
            worst = max(worst, abs(val - T ** len(w) / math.factorial(len(w))))
    report.add_check("pure-time words vs T^m/m!", worst, 1e-10)
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


def _load_coeffs(path: str, d: int | None, N: int | None) -> tensor.TensorCoeffs:
    with open(path) as fh:
        return tensor.TensorCoeffs.from_text(fh.read(), d=d, N=N)


_dim_opts = [
    click.option("--d", type=int, default=None, help="alphabet size (inferred if omitted)"),
    click.option("--n", "--N", "N", type=int, default=None, help="truncation level (inferred if omitted)"),
    click.option("--out", type=str, required=True),
    click.option("--check", is_flag=True),
]


def _with_dim_opts(fn):
    for opt in reversed(_dim_opts):
        fn = opt(fn)
    return fn


def _random_grouplike(d: int, N: int, seed: int = 7) -> tensor.TensorCoeffs:
    rng = np.random.default_rng(seed)
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
    res = a.shuffle_log()
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
@click.option("--level", type=int, default=3, show_default=True)
@click.option("--time-extend", "extend", is_flag=True)
@click.option("--out", type=str, required=True)
@click.option("--check", is_flag=True)
def algebra_sig(path_csv, level, extend, out, check):
    """Truncated signature of a sampled path."""
    with open(path_csv) as fh:
        path = signature.PiecewisePath.from_csv(fh.read())
    if extend:
        path = signature.time_extend(path)
    sig = signature.path_signature(path, level)
    report = RunReport(
        "algebra sig", {"level": level, "d": path.d, "samples": len(path.times)}
    )
    ok, worst = signature.is_grouplike(sig, tol=1e-9)
    report.add_check("group-like defect", worst, 1e-9)
    with open(out + ".txt", "w") as fh:
        fh.write(sig.to_text())
    _finish(report, out, check)


if __name__ == "__main__":
    main()
