"""End-to-end acceptance checks for the coefficient-ODE engine.

Each test covers one headline capability, prints a single summary line
(PASS/FAIL plus the measured figure) even under pytest's capture, and then
asserts.  Tolerances and runtime budgets are part of the check.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    L_reference,
    d1_image,
    delta,
    from_factorial_basis,
    quartic_blowup_reference,
    shift1,
    simulate_1d,
)
from sigcalc import montecarlo, operators, powerseries, schemes, signature, tensor
from sigcalc.montecarlo import SimConfig, estimate, gauss_hermite_expectation
from sigcalc.powerseries import (
    Model1D,
    R_pow,
    brownian_model,
    exp_conv,
    jacobi_model,
    mgf_initial,
    quartic_initial,
    to_factorial_basis,
)
from sigcalc.schemes import SchemeConfig, scheme1_riccati, scheme2_transport, scheme3_linear
from sigcalc.signature import PiecewisePath, path_signature
from sigcalc.tensor import TensorCoeffs, all_words


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _budget(capsys, label, elapsed, budget):
    ok = elapsed <= budget
    if not ok:
        _report(capsys, label + " runtime", ok, f"{elapsed:.1f}s > {budget:.0f}s budget")
    assert ok, f"{label} took {elapsed:.1f}s (budget {budget:.0f}s)"


# -- 1. Laplace functional of exponentiated Brownian motion ---------------------


def test_gbm_laplace_vs_quadrature(capsys):
    t0 = time.monotonic()
    K, T, c, y0 = 20, 1.0, 1.0, 1.0
    model = brownian_model(K)
    u0 = powerseries.gbm_laplace_initial(c, y0, K)
    cfg = SchemeConfig(T=T, steps=1000)
    traj, vals = scheme1_riccati(
        lambda y: R_pow(y, model), u0, cfg
    )
    assert traj.status == "completed"
    worst = 0.0
    for i in range(21):
        t = 0.05 * i
        k = int(round(t / T * cfg.steps))
        ref = gauss_hermite_expectation(
            lambda z: np.exp(-c * y0 * np.exp(z)), variance=t
        ).real
        worst = max(worst, abs(vals[k].real - ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3
    _report(capsys, "1 exp-BM Laplace (K=20)", ok, f"max dev {worst:.2e} vs 1e-3, {elapsed:.1f}s")
    _budget(capsys, "1 exp-BM Laplace", elapsed, 10.0)
    assert ok


# -- 2. Quartic-exponent functional: transport mixture and direct ODE -----------


def test_quartic_transport_and_direct_ode(capsys):
    t0 = time.monotonic()
    K, N, T = 160, 80, 1.0
    model = brownian_model(K)
    u0 = quartic_initial(K)
    times = [T * n / N for n in range(N + 1)]
    refs = [
        gauss_hermite_expectation(
            lambda z: np.exp(-(z**4) / 24.0), variance=t
        ).real
        for t in times
    ]

    rel_errs = {}
    exp_times = {}
    for M in (80, 160, 320):
        cfg = SchemeConfig(T=T, N=N, M=M, steps=1)
        traj, vals = scheme2_transport(model.field.riccati, u0, cfg)
        rel_errs[M] = max(
            abs(v.real - r) / abs(r) for v, r in zip(vals, refs)
        )
        exp_times[M] = traj.explosion_time if traj.status == "exploded" else math.inf

    worst_rel = max(rel_errs.values())
    ok_rel = worst_rel <= 0.02
    seq = [exp_times[M] for M in (80, 160, 320)]
    ok_mono = all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))

    # the direct ODE blows up in finite time, at the time an independent
    # solver finds for the same truncated ODE (K=10 and K=20 only after T=1);
    # step T/4000 on [0, 2T], tolerance 20 steps
    ricc_times = {}
    ricc_refs = {}
    for Kd in (10, 20, 40):
        mk = brownian_model(Kd)
        cfgk = SchemeConfig(T=2 * T, steps=8000)
        trajk, _ = scheme1_riccati(
            lambda y: R_pow(y, mk), quartic_initial(Kd), cfgk
        )
        ricc_times[Kd] = trajk.explosion_time if trajk.status == "exploded" else None
        ricc_refs[Kd] = quartic_blowup_reference(Kd, 2 * T)
    ok_ricc = all(
        ricc_times[Kd] is not None
        and ricc_refs[Kd] is not None
        and abs(ricc_times[Kd] - ricc_refs[Kd]) <= 5e-3
        for Kd in (10, 20, 40)
    ) and ricc_times[40] < T

    elapsed = time.monotonic() - t0
    ok = ok_rel and ok_mono and ok_ricc
    detail = (
        f"transport rel err {worst_rel:.2e} vs 2e-2; "
        f"explosion times M->{ {M: round(exp_times[M], 4) for M in sorted(exp_times)} } nondecreasing={ok_mono}; "
        f"direct-ODE blow-up K->{ricc_times} vs solve_ivp { {Kd: t if t is None else round(t, 4) for Kd, t in ricc_refs.items()} } "
        f"within 5e-3, K=40 before T=1: ok={ok_ricc}; {elapsed:.0f}s"
    )
    _report(capsys, "2 quartic transport (K=160, N=80)", ok, detail)
    _budget(capsys, "2 quartic transport", elapsed, 180.0)
    assert ok_rel, f"transport relative error {worst_rel:.3e} exceeds 2%"
    assert ok_mono, f"explosion times not nondecreasing: {exp_times}"
    assert ok_ricc, (
        "direct quadratic ODE must blow up within 5e-3 of the solve_ivp time for "
        f"K in (10, 20, 40), and before T=1 for K=40; observed {ricc_times}, "
        f"reference {ricc_refs} (None = no blow-up on [0, 2])"
    )


# -- 3. Jacobi moment generating function ---------------------------------------


def test_jacobi_mgf_stationary_and_mc(capsys):
    t0 = time.monotonic()
    K, x0 = 40, 0.5
    model = jacobi_model(K, x0=x0)
    G = powerseries.linear_matrix_1d(model)

    worst = 0.0
    for c in range(-3, 4):
        u0 = exp_conv(mgf_initial(float(c), K))
        _, val = scheme3_linear(G, u0, 1000.0, x0=x0)
        worst = max(worst, abs(val.real - 0.5 * (1.0 + math.exp(c))))
    ok_stat = worst <= 5e-3

    # short-horizon cross-check against path simulation; the low-order model
    # copy has the same dynamics but avoids evaluating padded coefficients
    sim = simulate_1d(
        jacobi_model(2, x0=x0), SimConfig(n_paths=100_000, dt=1e-3, seed=7), T=1.0
    )
    ok_mc = True
    mc_detail = []
    for c in (-2.0, 2.0):
        u0 = exp_conv(mgf_initial(c, K))
        _, val = scheme3_linear(G, u0, 1.0, x0=x0)
        est = estimate(np.exp(c * sim.finals))
        ok_c = est.within(val.real, 3.0)
        ok_mc = ok_mc and ok_c
        mc_detail.append(
            f"c={c:g}: |{est.mean.real:.5f}-{val.real:.5f}|={abs(est.mean.real - val.real):.1e} vs 3se={3 * est.std_error:.1e}"
        )

    elapsed = time.monotonic() - t0
    ok = ok_stat and ok_mc
    detail = (
        f"stationary dev {worst:.2e} vs 5e-3; MC(T=1) {'; '.join(mc_detail)}; {elapsed:.0f}s"
    )
    _report(capsys, "3 Jacobi mgf (T=1000, K=40)", ok, detail)
    _budget(capsys, "3 Jacobi mgf", elapsed, 30.0)
    assert ok_stat, f"stationary mgf deviation {worst:.3e} exceeds 5e-3"
    assert ok_mc, "short-horizon mgf disagrees with Monte Carlo at 3 standard errors"


# -- 4. Characteristic function of planar Brownian signed area ------------------


def _levy_riccati_value(lam, gamma, T, steps=1000):
    spec = operators.brownian_spec(2, 2)
    u0 = TensorCoeffs(2, 2)
    u0[(2, 1)] = 0.5j * lam
    u0[(1, 2)] = -0.5j * lam
    u0[(1,)] = 1j * gamma[0]
    u0[(2,)] = 1j * gamma[1]
    cfg = SchemeConfig(T=T, steps=steps)
    traj, vals = scheme1_riccati(
        lambda y: operators.R_op(TensorCoeffs(2, 2, y), spec).coeffs,
        u0.coeffs,
        cfg,
    )
    assert traj.status == "completed"
    return traj, vals


def _levy_area_mc(lam, gamma, T, n_paths, steps, seed):
    # signed area of the piecewise-linear interpolation on exact Brownian
    # increments; the neglected intra-step bridge areas shrink the
    # characteristic function by exp(-lam^2 T dt / 24), negligible here
    dt = T / steps
    sqrt_dt = math.sqrt(dt)
    samples = []
    block, chunk = 50_000, 50
    done = 0
    blk = 0
    while done < n_paths:
        nb = min(block, n_paths - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(blk,)))
        x1 = np.zeros(nb, dtype=np.float32)
        x2 = np.zeros(nb, dtype=np.float32)
        area = np.zeros(nb, dtype=np.float32)
        buf = np.empty((6, chunk, nb), dtype=np.float32)
        left = steps
        while left > 0:
            cs = min(chunk, left)
            # in place, the float32 operations of (c1 - d1/2) d2 - (c2 - d2/2) d1
            # with c = x + cumsum(d), in their order
            d1, d2, c1, c2, a, b = buf[:, :cs]
            for d in (d1, d2):
                rng.standard_normal(dtype=np.float32, out=d)
                d *= np.float32(sqrt_dt)
            for d, c, x in ((d1, c1, x1), (d2, c2, x2)):
                c[0] = d[0]  # the cumulative sum, row by row (np.cumsum's order)
                for i in range(1, cs):
                    np.add(c[i - 1], d[i], out=c[i])
                c += x
            np.multiply(d1, 0.5, out=a)
            np.subtract(c1, a, out=a)
            a *= d2
            np.multiply(d2, 0.5, out=b)
            np.subtract(c2, b, out=b)
            b *= d1
            a -= b
            area += 0.5 * np.sum(a, axis=0)
            x1[:] = c1[-1]
            x2[:] = c2[-1]
            left -= cs
        samples.append(
            np.exp(1j * (lam * area + gamma[0] * x1 + gamma[1] * x2))
        )
        done += nb
        blk += 1
    return estimate(np.concatenate(samples))


def test_levy_area_characteristic_function(capsys):
    t0 = time.monotonic()
    T = 1.0
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        traj, vals = _levy_riccati_value(lam, (0.0, 0.0), T)
        for t, v in zip(traj.times, vals):
            worst = max(worst, abs(v - 1.0 / math.cosh(lam * t / 2.0)))
    ok_closed = worst <= 1e-6

    # Levy's joint transform of area and endpoint at the mixed points:
    # sech(lam t/2) exp(-|gamma|^2 tanh(lam t/2)/lam)
    worst_joint = 0.0
    ok_mc = True
    mc_detail = []
    for lam, gamma in ((1.0, (0.5, -0.3)), (2.0, (1.0, 0.5))):
        traj, vals = _levy_riccati_value(lam, gamma, T)
        g2 = gamma[0] ** 2 + gamma[1] ** 2
        for t, v in zip(traj.times, vals):
            joint = math.exp(-g2 * math.tanh(lam * t / 2.0) / lam) / math.cosh(lam * t / 2.0)
            worst_joint = max(worst_joint, abs(v - joint))
        ref = vals[-1]
        est = _levy_area_mc(lam, gamma, T, n_paths=1_000_000, steps=250, seed=11)
        ok_pt = est.within(ref, 3.0)
        ok_mc = ok_mc and ok_pt
        mc_detail.append(
            f"(lam={lam:g}, gamma={gamma}): |dev|={abs(est.mean - ref):.1e} vs 3se={3 * est.std_error:.1e}"
        )

    elapsed = time.monotonic() - t0
    ok_joint = worst_joint <= 1e-6
    ok = ok_closed and ok_joint and ok_mc
    detail = (f"sech dev {worst:.2e} vs 1e-6; joint transform dev {worst_joint:.2e} vs 1e-6; "
              f"{'; '.join(mc_detail)}; {elapsed:.0f}s")
    _report(capsys, "4 signed-area char. function", ok, detail)
    _budget(capsys, "4 signed-area char. function", elapsed, 120.0)
    assert ok_closed, f"deviation from 1/cosh closed form {worst:.3e} exceeds 1e-6"
    assert ok_joint, f"deviation from Levy's joint transform {worst_joint:.3e} exceeds 1e-6"
    assert ok_mc, "mixed-argument characteristic function outside 3 standard errors"


# -- 5. Expected signature of the time-extended lognormal model -----------------


def test_expected_signature_vs_mc(capsys):
    t0 = time.monotonic()
    sigma, s0, level, T = 0.2, 1.0, 3, 1.0
    spec = operators.black_scholes_spec(sigma, s0, level)
    Gt = operators.expected_signature_matrix(spec, level)
    m0 = np.zeros(Gt.shape[0])
    m0[0] = 1.0
    c, _ = scheme3_linear(Gt, m0, T)
    words = list(all_words(2, level))

    worst_time = 0.0
    for k, w in enumerate(words):
        if w and all(l == 1 for l in w):
            worst_time = max(
                worst_time, abs(c[k].real - T ** len(w) / math.factorial(len(w)))
            )
    ok_time = worst_time <= 1e-10

    sim = montecarlo.simulate_sigsde(
        spec,
        SimConfig(n_paths=100_000, dt=4e-3, seed=5, block_size=25_000),
        T=T,
        N_sig=level,
    )
    # the 1e-9 floor covers words the simulation reproduces exactly (pure-time
    # words have zero sample variance up to rounding)
    ok_words = True
    worst_ratio = 0.0
    worst_word = None
    for k, w in enumerate(words):
        dev = abs(sim.sig_mean[k] - c[k].real)
        tol = 3.0 * sim.sig_se[k] + 1e-9
        if dev / tol > worst_ratio:
            worst_ratio = dev / tol
            worst_word = w
        ok_words = ok_words and dev <= tol

    elapsed = time.monotonic() - t0
    ok = ok_time and ok_words
    detail = (
        f"pure-time dev {worst_time:.1e} vs 1e-10; worst word {worst_word} "
        f"at {worst_ratio:.2f}x its 3se bound; {elapsed:.0f}s"
    )
    _report(capsys, "5 expected signature (level 3)", ok, detail)
    _budget(capsys, "5 expected signature", elapsed, 60.0)
    assert ok_time, f"pure-time words deviate by {worst_time:.2e} (> 1e-10)"
    assert ok_words, f"word {worst_word} outside 3 standard errors"


# -- 6. Randomized algebraic identities -----------------------------------------


def _rand_tensor(rng, d, N, zero_scalar=False, scale=0.6):
    x = TensorCoeffs(d, N)
    x.coeffs[:] = scale * (rng.standard_normal(x.coeffs.shape))
    if zero_scalar:
        x.coeffs[0] = 0.0
    return x


def _rand_spec(rng, d, N):
    b = []
    for _ in range(d):
        c = _rand_tensor(rng, d, N, scale=0.4)
        c.coeffs[tensor.n_words(d, 1):] = 0.0
        b.append(c)
    a = [[TensorCoeffs(d, N) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            c = _rand_tensor(rng, d, N, scale=0.4)
            c.coeffs[tensor.n_words(d, 1):] = 0.0
            a[i][j] = c
            a[j][i] = c.copy()
    return operators.SdeSpec(d, np.zeros(d), b, a)


def test_randomized_algebraic_identities(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    n_inst = 200
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    for i in range(n_inst):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(2, 6 if d < 3 else 5))
        a = _rand_tensor(rng, d, N)
        b = _rand_tensor(rng, d, N)
        c = _rand_tensor(rng, d, N)
        check("shuffle commutative", a.shuffle(b).allclose(b.shuffle(a), tol=1e-10))
        check(
            "shuffle associative",
            a.shuffle(b).shuffle(c).allclose(a.shuffle(b.shuffle(c)), tol=1e-9),
        )

        u = _rand_tensor(rng, d, N, zero_scalar=True)
        check(
            "exp/log round trip",
            u.shuffle_exp().shuffle_log().allclose(u, tol=1e-9),
        )

        # multiplicativity of the signature over concatenation
        pts = rng.standard_normal((4, d)) * 0.8
        path = PiecewisePath(np.linspace(0.0, 1.0, 4), pts)
        whole = path_signature(path, N)
        first = path_signature(PiecewisePath(path.times[:3], pts[:3]), N)
        second = path_signature(PiecewisePath(path.times[2:], pts[2:]), N)
        check("Chen identity", whole.allclose(first.concat(second), tol=1e-10))

        # shuffle-shift identities for shuffle exponentials
        g = u.shuffle_exp()
        su, sg = shift1(u), shift1(g)
        ok_shift = all(
            sg[k].with_truncation(N - 1).allclose(
                g.with_truncation(N - 1).shuffle(su[k].with_truncation(N - 1)),
                tol=1e-9,
            )
            for k in range(d)
        )
        check("exp shift identity", ok_shift)

        # operator identities on affine specs
        spec = _rand_spec(rng, d, N)
        lam = float(rng.uniform(-2.0, 3.0))
        two_point = (lam / (lam - 1.0)) * operators.R_op(u, spec) - (
            1.0 / (lam * (lam - 1.0))
        ) * operators.R_op(u * lam, spec)
        check(
            "affine/polynomial generator match",
            two_point.allclose(L_reference(u, spec), tol=1e-9),
        )
        check(
            "generator on shuffle exponentials",
            TensorCoeffs(d, N, spec.field.linear.apply(g.coeffs))
            .with_truncation(N - 2)
            .allclose(
                g.shuffle(operators.R_op(u, spec)).with_truncation(N - 2),
                tol=1e-8,
            ),
        )

        # the scalar calculus is the d=1 tensor calculus in the factorial basis
        K = int(rng.integers(3, 21))
        m = Model1D(
            rng.standard_normal(K + 1) * (np.arange(K + 1) < 2),
            rng.standard_normal(K + 1) * (np.arange(K + 1) < 3),
            x0=float(rng.uniform(-1, 1)),
        )
        v = rng.standard_normal(K + 1)  # factorial-basis state
        spec1, _ = d1_image(m)
        v1 = TensorCoeffs(1, K, v)
        check(
            "R at d=1",
            np.allclose(
                to_factorial_basis(R_pow(from_factorial_basis(v), m)),
                operators.R_op(v1, spec1).coeffs,
                atol=1e-8,
            ),
        )
        check(
            "L at d=1",
            np.allclose(
                to_factorial_basis(m.field.linear.apply(from_factorial_basis(v))),
                spec1.field.linear.apply(v),
                atol=1e-8,
            ),
        )

    elapsed = time.monotonic() - t0
    ok = not failures
    detail = (
        f"{n_inst} randomized instances x 9 identities, "
        f"failures={sorted(set(failures)) or 'none'}; {elapsed:.0f}s"
    )
    _report(capsys, "6 algebraic identity sweep", ok, detail)
    _budget(capsys, "6 algebraic identity sweep", elapsed, 60.0)
    assert ok, f"identity failures: {sorted(set(failures))}"


# -- 7. Brownian moment generating function --------------------------------------


def test_brownian_mgf_high_accuracy(capsys):
    t0 = time.monotonic()
    K, T = 12, 1.0
    model = brownian_model(K)
    worst = 0.0
    for theta in (-1.0, 0.5, 2.0):
        u0 = delta(1, K, theta)
        cfg = SchemeConfig(T=T, steps=1000)
        traj, vals = scheme1_riccati(
            lambda y: R_pow(y, model), u0, cfg
        )
        assert traj.status == "completed"
        worst = max(worst, abs(vals[-1] - math.exp(theta**2 * T / 2.0)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8
    _report(capsys, "7 Brownian mgf", ok, f"max dev {worst:.2e} vs 1e-8, {elapsed:.1f}s")
    assert ok
