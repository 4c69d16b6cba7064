"""ODE integration, the three value schemes, and the matrix exponential."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import delta, ode_integrate_reference, quartic_blowup_reference
from sigcalc import operators, powerseries, schemes, tensor
from sigcalc.powerseries import R_pow, brownian_model, to_factorial_basis
from sigcalc.schemes import (
    SchemeConfig,
    expected_signature,
    matrix_exp,
    ode_integrate,
    scheme1_riccati,
    scheme1_stack,
    scheme2_transport,
    scheme3_linear,
)


def brownian_R(K):
    model = brownian_model(K)
    return lambda y: R_pow(y, model)


def brownian_R_d1(K):
    """The same field in the factorial basis: R_op on the d=1 tensor algebra."""
    spec = operators.brownian_spec(1, K)
    return lambda y: operators.R_op(tensor.TensorCoeffs(1, K, y), spec).coeffs


# -- ODE kernel ----------------------------------------------------------------


@pytest.mark.parametrize("solver", ["rk4"])  # ode_integrate's one integrator
def test_ode_linear_growth(solver):
    cfg = SchemeConfig(T=2.0, steps=200)
    traj = ode_integrate(lambda y: y, np.array([1.0 + 0j]), cfg)
    assert traj.status == "completed"
    assert abs(traj.states[-1][0] - math.exp(2.0)) < 1e-8


@pytest.mark.parametrize("solver", ["rk4"])  # ode_integrate's one integrator
def test_ode_detects_scalar_riccati_blowup(solver):
    # y' = y^2, y(0) = 1 blows up at t = 1
    cfg = SchemeConfig(T=2.0, steps=4000)
    traj = ode_integrate(lambda y: y * y, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert abs(traj.explosion_time - 1.0) < 2e-3


def test_ode_runs_through_large_finite_values():
    # y' = y reaches e^30 ~ 1.07e13 at T = 30: large, finite, not a blow-up
    cfg = SchemeConfig(T=30.0, steps=3000)
    traj = ode_integrate(lambda y: y, np.array([1.0 + 0j]), cfg)
    assert traj.status == "completed" and traj.explosion_time is None
    assert traj.times[-1] == pytest.approx(30.0)
    assert abs(traj.states[-1][0] / math.exp(30.0) - 1.0) < 1e-6


def _route1_case(name):
    """(f, y0, cfg) of a route-1 solve the CLI or the tests run."""
    cfg = SchemeConfig(T=1.0, steps=1000)
    if name == "levy-d2-N2":  # complex state, both letters' endpoints too
        R = operators.brownian_spec(2, 2).field.riccati.apply
        u0 = tensor.TensorCoeffs(2, 2)
        u0[(2, 1)], u0[(1, 2)] = 1.5j, -1.5j
        u0[(1,)], u0[(2,)] = 1.2j, 0.5j
        return R, u0.coeffs, cfg
    if name == "factorial-d1-K20":
        R = operators.brownian_spec(1, 20).field.riccati.apply
        u0 = to_factorial_basis(powerseries.gbm_laplace_initial(1.0, 1.0, 20))
        return R, u0, cfg
    if name == "quartic-K40":  # blows up at t = 0.511
        return brownian_R(40), powerseries.quartic_initial(40), cfg
    # h = 1.3/97 is not a binary fraction, so every step time k h rounds
    return (lambda y: y * y[::-1]), np.array([1.0 + 0.5j, -2.0]), SchemeConfig(T=1.3, steps=97)


@pytest.mark.parametrize("case", ["levy-d2-N2", "factorial-d1-K20", "quartic-K40", "autonomous-T1.3-97"])
def test_ode_integrate_matches_the_reference_loop_bit_for_bit(case):
    f, y0, cfg = _route1_case(case)
    got, ref = ode_integrate(f, y0, cfg), ode_integrate_reference(f, y0, cfg)
    assert np.array_equal(got.times, ref.times)
    assert len(got.states) == len(ref.states)
    assert np.array_equal(np.array(got.states), np.array(ref.states))
    assert (got.status, got.explosion_time) == (ref.status, ref.explosion_time)
    if case == "quartic-K40":
        assert ref.status == "exploded" and ref.explosion_time < cfg.T


def test_ode_integrate_copies_only_the_initial_state():
    y0 = np.array([1.0 + 0j, 2.0])
    traj = ode_integrate(lambda y: -y, y0, SchemeConfig(T=1.0, steps=3))
    assert not np.shares_memory(traj.states[0], y0)
    # rows of one array: no state aliases another
    assert isinstance(traj.states, np.ndarray) and traj.states.shape == (4, 2)
    assert not np.shares_memory(traj.states, y0)


# -- route 1's integrator record ---------------------------------------------------


def test_route1_stats_steps():
    # every step taken, the one that produced the non-finite state included
    done = ode_integrate(lambda y: y, np.array([1.0 + 0j]), SchemeConfig(T=2.0, steps=200))
    assert done.stats["steps"] == 200
    cfg = SchemeConfig(T=2.0, steps=4000)
    blown = ode_integrate(lambda y: y * y, np.array([1.0 + 0j]), cfg)
    assert blown.stats["steps"] == len(blown.times)
    h = cfg.T / cfg.steps
    assert blown.explosion_time == (blown.stats["steps"] - 1) * h + h


@pytest.mark.parametrize("rhs", ["linear", "riccati"])
def test_route1_stats_rhs_evals(rhs):
    calls = []

    def f(y):
        calls.append(y)
        return y if rhs == "linear" else y * y

    traj = ode_integrate(f, np.array([1.0 + 0j]), SchemeConfig(T=2.0, steps=400))
    assert traj.stats["rhs_evals"] == len(calls) == 4 * traj.stats["steps"]


def test_route1_stats_max_abs_state():
    # y' = y from (1, -3): the largest entry is |-3 e^T| at the last state
    traj = ode_integrate(lambda y: y, np.array([1.0 + 0j, -3.0]), SchemeConfig(T=1.0, steps=100))
    assert traj.stats["max_abs_state"] == abs(traj.states[-1][1])
    # route 1 keeps only the states with a finite value, and so does the record
    K, cfg = 40, SchemeConfig(T=1.0, steps=1000)
    cut, _ = scheme1_riccati(brownian_R(K), powerseries.quartic_initial(K), cfg)
    raw = ode_integrate(brownian_R(K), powerseries.quartic_initial(K), cfg)
    # route 1 keeps u_0 alone; ode_integrate keeps the whole states
    kept = raw.states[: len(cut.times)]
    assert cut.states.tobytes() == kept[:, 0].tobytes()
    assert cut.stats["max_abs_state"] == max(float(np.abs(s).max()) for s in kept)
    assert cut.stats["max_abs_state"] < raw.stats["max_abs_state"]


def test_route1_stats_stop():
    done = ode_integrate(lambda y: y, np.array([1.0 + 0j]), SchemeConfig(T=2.0, steps=200))
    assert done.stats["stop"] == "completed"
    blown = ode_integrate(lambda y: y * y, np.array([1.0 + 0j]), SchemeConfig(T=2.0, steps=4000))
    assert blown.stats["stop"] == "non-finite state"
    # the quartic at K=40: exp(u_0) overflows while the state is still finite
    K = 40
    cfg = SchemeConfig(T=1.0, steps=1000)
    traj, _ = scheme1_riccati(brownian_R(K), powerseries.quartic_initial(K), cfg)
    assert traj.status == "exploded" and traj.stats["stop"] == "non-finite value"
    raw = ode_integrate(brownian_R(K), powerseries.quartic_initial(K), cfg)
    assert traj.explosion_time < raw.explosion_time


# -- matrix exponential ----------------------------------------------------------


def test_matrix_exp_against_scipy(rng):
    for n in (1, 4, 9):
        for scale in (0.1, 1.0, 40.0):
            A = rng.normal(size=(n, n)) * scale
            assert np.allclose(matrix_exp(A), scipy.linalg.expm(A), atol=1e-8 * scale)
            C = A + 1j * rng.normal(size=(n, n)) * scale
            assert np.allclose(matrix_exp(C), scipy.linalg.expm(C), atol=1e-8 * scale)


def test_matrix_exp_time_scaling(rng):
    A = rng.normal(size=(5, 5))
    assert np.allclose(matrix_exp(A, 0.3), scipy.linalg.expm(0.3 * A), atol=1e-10)
    assert np.allclose(matrix_exp(A, 0.0), np.eye(5), atol=0.0)


# -- scheme 1 -------------------------------------------------------------------


def test_scheme1_brownian_mgf():
    K, T = 8, 1.0
    for theta in (-1.0, 0.5, 2.0):
        u0 = delta(1, K, theta)
        cfg = SchemeConfig(T=T, steps=400)
        traj, vals = scheme1_riccati(brownian_R(K), u0, cfg)
        assert traj.status == "completed"
        assert abs(vals[-1] - math.exp(theta**2 * T / 2.0)) < 1e-8


def test_scheme1_coarse_grid_is_not_an_explosion():
    # E[exp(i lam A_t)] = sech(lam t / 2) for the signed area A of planar
    # Brownian motion; a coarse grid is a less accurate solve, not a blow-up
    spec = operators.brownian_spec(2, 2)
    for lam, steps in ((1.0, 4), (3.5, 16)):
        u0 = tensor.TensorCoeffs(2, 2)
        u0[(2, 1)] = 0.5j * lam
        u0[(1, 2)] = -0.5j * lam
        traj, vals = scheme1_riccati(
            lambda y: operators.R_op(tensor.TensorCoeffs(2, 2, y), spec).coeffs,
            u0.coeffs,
            SchemeConfig(T=1.0, steps=steps),
        )
        assert traj.status == "completed" and len(vals) == steps + 1
        refs = [1.0 / math.cosh(lam * t / 2.0) for t in traj.times]
        assert max(abs(v - r) for v, r in zip(vals, refs)) < 1e-6


def test_scheme1_large_finite_value_is_not_an_explosion():
    # E[exp(theta B_1)] = exp(theta^2 / 2) is ~4e10 at theta = 7, above the
    # default explosion_threshold; a finite value is not a blow-up
    K = 8
    for theta in (7.0, 10.0):
        u0 = delta(1, K, theta)
        traj, vals = scheme1_riccati(brownian_R(K), u0, SchemeConfig(T=1.0, steps=400))
        assert traj.status == "completed"
        assert abs(vals[-1] / math.exp(theta**2 / 2.0) - 1.0) < 1e-10


def test_scheme1_quartic_explosion_order():
    # on the quartic example K=40 explodes before K=20, and K=20 before K=10;
    # blow-up time is not monotone in K in general (K=12 stays finite on
    # [0, 5], K=16 blows up at 2.45)
    t_exp = {}
    for K in (10, 20, 40):
        u0 = powerseries.quartic_initial(K)
        cfg = SchemeConfig(T=2.0, steps=4000)
        traj, _ = scheme1_riccati(brownian_R(K), u0, cfg)
        assert traj.status == "exploded"
        t_exp[K] = traj.explosion_time
    assert t_exp[40] < t_exp[20] < t_exp[10]


@pytest.mark.parametrize("K", [10, 20, 40])
def test_scheme1_explosion_time_is_basis_free(K):
    # the factorial basis scales the coefficient of x^k by k! (40! ~ 8e47),
    # so a test on the size of the coordinates would report a different
    # time in each basis; the time must be the solution's own, in both
    u0 = powerseries.quartic_initial(K)
    cfg = SchemeConfig(T=2.0, steps=4000)
    h = cfg.T / cfg.steps
    mono, _ = scheme1_riccati(brownian_R(K), u0, cfg)
    fact, _ = scheme1_riccati(brownian_R_d1(K), to_factorial_basis(u0), cfg)
    assert mono.status == fact.status == "exploded"
    assert abs(mono.explosion_time - fact.explosion_time) <= 2 * h + 1e-12
    ref = quartic_blowup_reference(K, cfg.T)
    assert abs(mono.explosion_time - ref) <= 5e-3
    assert abs(fact.explosion_time - ref) <= 5e-3


def test_scheme1_explosion_time_of_the_real_area_transform():
    # E[exp(lam A_t)] = sec(lam t / 2) for the signed area A of planar
    # Brownian motion and real lam, which blows up at t = pi / lam
    lam = 2.0
    u0 = tensor.TensorCoeffs(2, 2)
    u0[(2, 1)] = lam / 2
    u0[(1, 2)] = -lam / 2
    R = operators.brownian_spec(2, 2).field.riccati.apply
    traj, vals = scheme1_riccati(R, u0.coeffs, SchemeConfig(T=3.0, steps=1000))
    assert traj.status == "exploded"
    assert math.pi / lam <= traj.explosion_time <= math.pi / lam + 0.01
    err = max(abs(v - 1.0 / math.cos(lam * t / 2)) for t, v in zip(traj.times, vals) if t <= 1.5)
    assert err <= 1e-5


# -- route 1 on a stack of fields ---------------------------------------------------


def _levy_u0(lam, g1, g2):
    u0 = tensor.TensorCoeffs(2, 2)
    u0[(2, 1)], u0[(1, 2)] = 0.5j * lam, -0.5j * lam
    u0[(1,)], u0[(2,)] = 1j * g1, 1j * g2
    return u0.coeffs


def _stack_case(name):
    """(fields, initial data, cfg) of a stack that route 1 integrates."""
    cfg = SchemeConfig(T=1.0, steps=1000)
    if name == "gbm-bases-K20":  # gbm-laplace: the monomial and factorial bases
        u0 = powerseries.gbm_laplace_initial(1.0, 1.0, 20)
        fields = [brownian_model(20).field.riccati, operators.brownian_spec(1, 20).field.riccati]
        return fields, [u0, to_factorial_basis(u0)], cfg
    if name == "quartic-K10-20-40":  # bm-quartic: K=40 stops first, at t = 0.511
        Ks = (10, 20, 40)
        return ([brownian_model(K).field.riccati for K in Ks],
                [powerseries.quartic_initial(K) for K in Ks], cfg)
    # E[exp(40 B_t)] = exp(800 t): exp(u_0) overflows at t = 0.887 while the
    # state stays finite, so that block is cut on its value; the Levy-area
    # and gbm blocks complete
    return ([brownian_model(4).field.riccati, operators.brownian_spec(2, 2).field.riccati,
             brownian_model(20).field.riccati],
            [delta(1, 4, 40.0), _levy_u0(1.5, 1.2, 0.5),
             powerseries.gbm_laplace_initial(0.7, 1.3, 20)], cfg)


@pytest.mark.parametrize("case", ["gbm-bases-K20", "quartic-K10-20-40", "value-cut"])
def test_route1_stack_matches_separate_solves_bit_for_bit(case):
    fields, u0s, cfg = _stack_case(case)
    solved = scheme1_stack(fields, u0s, cfg)
    assert len(solved) == len(fields)
    for (got, vals), field, u0 in zip(solved, fields, u0s):
        ref, ref_vals = scheme1_riccati(field.apply, u0, cfg)
        assert np.array_equal(got.times, ref.times)
        assert len(got.states) == len(ref.states)
        assert np.array_equal(np.array(got.states), np.array(ref.states))
        assert np.array_equal(vals, ref_vals)
        assert (got.status, got.explosion_time) == (ref.status, ref.explosion_time)
        assert got.stats == ref.stats
    stops = [traj.stats["stop"] for traj, _ in solved]
    if case == "quartic-K10-20-40":
        assert stops == ["completed", "completed", "non-finite value"]
        assert 0.505 < solved[2][0].explosion_time < 0.52
    if case == "value-cut":
        assert stops == ["non-finite value", "completed", "completed"]
        assert solved[0][0].stats["steps"] == cfg.steps  # its state stayed finite


def _window_case(name):
    """(fields, initial data, cfg) of a stack whose blocks complete, stop on
    a non-finite state, or are cut on a non-finite value."""
    if name == "value-cut":
        return _stack_case(name)
    if name == "state-overflow":  # the quartic at K=67 in the factorial basis, at t = 0.354
        fields, u0s = _kernel_case("levy-d2-N2")
        fields.insert(0, operators.brownian_spec(1, 67).field.riccati)
        u0s.insert(0, to_factorial_basis(powerseries.quartic_initial(67)))
    else:
        fields, u0s = _kernel_case(name)
    return fields, u0s, SchemeConfig(T=1.0, steps=1000)


@pytest.mark.parametrize("window", [1, 16 * 50, None])  # bytes: one row, a few rows, default
@pytest.mark.parametrize("case", ["quartic-K10-20-40", "factorial-d1-K67", "state-overflow",
                                  "value-cut"])
def test_route1_window_keeps_the_bits_of_every_state(case, window, monkeypatch):
    # route 1 reduces its states window by window; ode_integrate keeps them all
    if window:
        monkeypatch.setattr(schemes, "_WINDOW_BYTES", window)
    fields, u0s, cfg = _window_case(case)
    solved = scheme1_stack(fields, u0s, cfg)
    full = ode_integrate(operators._Terms.stack(fields), np.concatenate(u0s), cfg,
                         np.cumsum([0] + [len(u) for u in u0s[:-1]]))
    for (traj, vals), block in zip(solved, full.blocks):
        r = len(traj.times)
        assert traj.times.tobytes() == block.times[:r].tobytes()
        assert traj.states.tobytes() == block.states[:r, 0].tobytes()
        assert vals.tobytes() == np.exp(block.states[:r, 0]).tobytes()
        if traj.stats["stop"] == "non-finite value":
            assert r < len(block.times) and traj.explosion_time == block.times[r]
            top = float(np.abs(block.states[:r]).max(initial=0.0))
            assert traj.stats == {**block.stats, "stop": "non-finite value", "max_abs_state": top}
        else:
            assert (traj.explosion_time, traj.stats) == (block.explosion_time, block.stats)
    stops = {"quartic-K10-20-40": ["completed", "completed", "non-finite value"],
             "factorial-d1-K67": ["non-finite value"],
             "state-overflow": ["non-finite state", "completed"],
             "value-cut": ["non-finite value", "completed", "completed"]}
    assert [traj.stats["stop"] for traj, _ in solved] == stops[case]


def test_route1_memory_does_not_grow_with_the_steps():
    # 16 Levy-area fields at d=3, N=4 (121 words): every state of 2000 steps
    # would take 62 MB, the window 256 KiB
    B = 16
    fields = [operators.brownian_spec(3, 4).field.riccati] * B  # compiled before tracing
    u0s = []
    for lam in np.linspace(0.5, 3.5, B):
        u0 = tensor.TensorCoeffs(3, 4)
        u0[(2, 1)], u0[(1, 2)] = 0.5j * lam, -0.5j * lam
        u0s.append(u0.coeffs)
    peaks = []
    for steps in (500, 2000):
        tracemalloc.start()
        try:
            solved = scheme1_stack(fields, u0s, SchemeConfig(T=1.0, steps=steps))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [traj.status for traj, _ in solved] == ["completed"] * B
        # per block and step: u_0, its value and a share of the times
        assert held < 64 * B * (steps + 1)
        peaks.append(peak)
        del solved
    assert peaks[1] < 1.2 * peaks[0]


def test_ode_integrate_stack_runs_until_every_block_stops():
    # y' = y^2 entry by entry blows up at t = 1/y(0): a block-diagonal field
    calls = []

    def f(y):
        calls.append(1)
        return y * y

    cfg = SchemeConfig(T=3.0, steps=3000)
    traj = ode_integrate(f, np.array([1.0 + 0j, -0.2, 0.5]), cfg, starts=[0, 2])
    first, last = traj.blocks
    for block, y0 in zip(traj.blocks, ([1.0 + 0j, -0.2], [0.5 + 0j])):
        ref = ode_integrate(f, np.array(y0), cfg)
        assert np.array_equal(block.times, ref.times)
        assert np.array_equal(np.array(block.states), np.array(ref.states))
        assert (block.explosion_time, block.stats) == (ref.explosion_time, ref.stats)
    # the loop's own record ends with the block that stops last
    assert first.explosion_time < last.explosion_time == traj.explosion_time
    assert np.array_equal(traj.times, last.times)
    top = max(first.stats["max_abs_state"], last.stats["max_abs_state"])
    assert traj.stats == {**last.stats, "max_abs_state": top}
    # block states are slices of the loop's states, not copies
    assert all(np.shares_memory(b, s) for b, s in zip(first.states, traj.states))
    # one block completing runs the loop to T
    calls.clear()
    traj = ode_integrate(f, np.array([1.0 + 0j, 0.2]), cfg, starts=[0, 1])
    assert traj.status == "completed" and traj.stats["stop"] == "completed"
    assert traj.stats["steps"] == cfg.steps and len(traj.times) == cfg.steps + 1
    assert len(calls) == traj.stats["rhs_evals"] == 4 * cfg.steps
    assert [b.status for b in traj.blocks] == ["exploded", "completed"]


@pytest.mark.parametrize("starts", [[1], [0, 0], [2, 0], [0, 5], [0, 3], [], [[0]]])
def test_ode_integrate_checks_its_block_starts(starts):
    # starts begin at 0 and increase strictly below the state's 3 entries
    y0 = np.array([1.0 + 0j, 0.5, 0.2])
    with pytest.raises(ValueError, match="block starts"):
        ode_integrate(lambda y: y * y, y0, SchemeConfig(T=2.0, steps=10), starts=starts)
    assert len(ode_integrate(lambda y: y, y0, SchemeConfig(T=1.0, steps=4),
                             starts=[0, 2]).blocks) == 2


# -- route 1 on the compiled field's kernel ------------------------------------------


def _kernel_case(name):
    """(fields, initial data) of a route 1 solve on compiled fields: one
    field, or a stack of them."""
    if name == "levy-d2-N2":
        return [operators.brownian_spec(2, 2).field.riccati], [_levy_u0(1.5, 1.2, 0.5)]
    if name == "gbm-bases-K20-jacobi-L":  # with a block whose rows lack terms
        u0 = powerseries.gbm_laplace_initial(1.0, 1.0, 20)
        jacobi = powerseries.jacobi_model(8).field.linear
        assert len(jacobi.rows) < jacobi.size
        return ([brownian_model(20).field.riccati, operators.brownian_spec(1, 20).field.riccati,
                 jacobi], [u0, to_factorial_basis(u0), powerseries.mgf_initial_block([1.3], 8)[:, 0]])
    if name == "quartic-K10-20-40":
        Ks = (10, 20, 40)
        return ([brownian_model(K).field.riccati for K in Ks],
                [powerseries.quartic_initial(K) for K in Ks])
    if name == "complex-weights":  # complex drift: the weights are complex
        skew = powerseries.Model1D(b=powerseries._poly(6, 0.3j, 0.5),
                                   a=powerseries._poly(6, 1.0, 0.2), x0=0.0)
        assert skew.field.riccati.w.dtype == np.complex128
        return ([skew.field.riccati, brownian_model(10).field.riccati],
                [delta(1, 6, 0.4 - 0.2j), delta(1, 10, 0.3)])
    # multiplicities past 2^63: C(67, 33) > 2^63
    u0 = to_factorial_basis(powerseries.gbm_laplace_initial(0.5, 1.0, 67))
    return [operators.brownian_spec(1, 67).field.riccati], [u0]


@pytest.mark.parametrize("case", ["levy-d2-N2", "gbm-bases-K20-jacobi-L", "quartic-K10-20-40",
                                  "complex-weights", "factorial-d1-K67"])
def test_route1_on_a_field_has_the_bits_of_its_apply_and_of_the_reference(case):
    fields, u0s = _kernel_case(case)
    cfg = SchemeConfig(T=1.0, steps=1000)
    field = fields[0] if len(fields) == 1 else operators._Terms.stack(fields)
    y0, starts = np.concatenate(u0s), np.cumsum([0] + [len(u) for u in u0s[:-1]])
    got, called = (ode_integrate(f, y0, cfg, starts) for f in (field, field.apply))
    assert got.states.tobytes() == called.states.tobytes()
    assert got.times.tobytes() == called.times.tobytes()
    assert (got.explosion_time, got.stats) == (called.explosion_time, called.stats)
    for block, sub, u0 in zip(got.blocks, fields, u0s):
        ref = ode_integrate_reference(sub.apply, u0, cfg)
        assert block.states.tobytes() == np.array(ref.states).tobytes()
        assert block.times.tobytes() == ref.times.tobytes()
        assert (block.status, block.explosion_time) == (ref.status, ref.explosion_time)
    stops = {"quartic-K10-20-40": ["completed", "completed", "exploded"],
             "factorial-d1-K67": ["exploded"]}  # its state overflows at t = 0.59
    assert [b.status for b in got.blocks] == stops.get(case, ["completed"] * len(fields))
    if case == "quartic-K10-20-40":
        cut = scheme1_riccati(fields[2], u0s[2], cfg)[0]  # the value overflows first
        assert 0.505 < cut.explosion_time < 0.52 and cut.stats["stop"] == "non-finite value"


def test_ode_integrate_checks_a_fields_size():
    field = brownian_model(4).field.riccati
    with pytest.raises(ValueError, match="initial data of size 6 for a field of size 5"):
        ode_integrate(field, delta(1, 5), SchemeConfig(T=1.0))


@pytest.mark.parametrize("T", [0.0, 1.0])
def test_route1_at_T0_takes_no_step(T):
    # h = 0 cannot move the state: every row is y0 and f is never called;
    # at T > 0 the same solve calls f four times a step
    calls, model = [], brownian_model(20)

    def R(y):
        calls.append(1)
        return R_pow(y, model)

    u0 = powerseries.gbm_laplace_initial(1.0, 1.0, 20)
    cfg = SchemeConfig(T=T, steps=50)
    traj, vals = scheme1_riccati(R, u0, cfg)
    # route 1 keeps u_0 alone; ode_integrate keeps the whole states
    full = [ode_integrate(f, u0, cfg) for f in (R, model.field.riccati)]
    for again in full:
        assert again.states[:, 0].tobytes() == traj.states.tobytes() and again.stats == traj.stats
    assert full[0].states.tobytes() == full[1].states.tobytes()
    evals = 0 if T == 0 else 4 * cfg.steps
    assert len(calls) == 2 * evals
    assert (traj.stats["steps"], traj.stats["rhs_evals"]) == (evals // 4, evals)
    assert traj.status == "completed" and len(traj.times) == cfg.steps + 1
    if T == 0:
        for again in full:
            assert again.states.tobytes() == np.tile(u0, (cfg.steps + 1, 1)).tobytes()
        assert traj.states.tobytes() == np.full(cfg.steps + 1, u0[0]).tobytes()
        assert vals.tobytes() == np.full(cfg.steps + 1, np.exp(u0[0])).tobytes()
        assert traj.times.tolist() == [0.0] * (cfg.steps + 1)


def test_route1_stack_checks_its_initial_data():
    fields = [brownian_model(4).field.riccati, brownian_model(6).field.riccati]
    with pytest.raises(ValueError, match="initial data of sizes"):
        scheme1_stack(fields, [delta(1, 6), delta(1, 4)], SchemeConfig(T=1.0))
    with pytest.raises(ValueError, match="initial data of sizes"):
        scheme1_stack(fields, [delta(1, 4)], SchemeConfig(T=1.0))
    assert scheme1_stack([], [], SchemeConfig(T=1.0)) == []


# -- scheme 2 -------------------------------------------------------------------


def test_scheme2_weights_normalize():
    # with R = 0 the mixture must return exp(u_0) at every grid point for
    # any lambda, including sign-alternating weights
    for N, M in ((10, 5), (10, 10), (10, 30)):
        cfg = SchemeConfig(T=1.0, N=N, M=M)
        traj, vals = scheme2_transport(operators._Terms([], [], [], [], [], [1]),
                                       np.array([0.3 + 0j]), cfg)
        assert traj.status == "completed"
        assert np.allclose(vals, math.exp(0.3), atol=1e-10)


@pytest.mark.parametrize("T", [math.nan, math.inf, -1.0])
def test_scheme_config_rejects_a_horizon_that_is_not_finite_and_nonnegative(T):
    # T = nan made route 1 explode at t = nan; T = inf overflowed route 2's
    # set-up; expected_signature ran T = -1 as the backward flow
    for solve in (lambda: SchemeConfig(T=T),
                  lambda: expected_signature(operators.brownian_spec(2, 2), 2, T)):
        with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
            solve()


@pytest.mark.parametrize("N,M", [(0, 80), (80, 0), (-1, 1)])
def test_scheme_config_rejects_empty_transport_grid(N, M):
    # N = 0 divided by zero in transport_lambda; M = 0 ran at lambda = 0
    with pytest.raises(ValueError, match="N >= 1 grid points and M >= 1"):
        SchemeConfig(T=1.0, N=N, M=M)


@pytest.mark.parametrize("field", ["steps", "N", "M"])
def test_scheme_config_rejects_a_count_that_is_not_an_integer(field):
    # steps=1e3 failed in route 1's range(), N=2.5 read lambda 1.2 at M=3,
    # steps=True ran one step
    for bad in (1e3, 2.5, True, "3"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SchemeConfig(T=1.0, **{field: bad})
    cfg = SchemeConfig(T=1.0, **{field: np.int64(3)})
    assert getattr(cfg, field) == 3


def test_scheme2_lambda_one_is_euler():
    # lam = 1 degenerates to explicit Euler composition of the half-steps
    K, T, N = 8, 1.0, 20
    theta = 0.7
    u0 = delta(1, K, theta)
    cfg = SchemeConfig(T=T, N=N, M=N)
    traj, vals = scheme2_transport(brownian_model(K).field.riccati, u0, cfg)
    R = brownian_R(K)
    u = u0.astype(complex)
    direct = [np.exp(u[0])]
    for _ in range(N):
        u = u + R(u) / N
        direct.append(np.exp(u[0]))
    assert np.array_equal(vals, direct)


def float_mixture_referee(R, u0, N, M, T, count):
    """The first ``count`` transport values at lam = M T / N <= 1 from the
    transport's own float half-steps, u + R(u)/M in complex128, mixed at 60
    digits with integer binomials and rounded to double per part."""
    from mpmath import mp

    u, g = u0.astype(np.complex128), []
    for n in range(count):
        if n:
            u = u + R(u) / M
        g.append(np.exp(u[0]))
    with mp.workdps(60):
        lam = mp.mpf(T) * M / N
        return [
            complex(*(
                float(mp.fsum(math.comb(n, m) * (1 - lam) ** (n - m) * lam**m * part(g[m])
                              for m in range(n + 1)))
                for part in (lambda z: mp.mpf(z.real), lambda z: mp.mpf(z.imag))
            ))
            for n in range(count)
        ]


@pytest.mark.parametrize("K,N,M,u0", [
    (12, 20, 10, delta(1, 12, 0.8)),
    (12, 20, 10, delta(1, 12, 0.8j)),
    (40, 80, 20, powerseries.quartic_initial(40)),
], ids=["real", "imaginary", "quartic"])
def test_scheme2_float_path_is_the_rounded_mixture(K, N, M, u0):
    # at lam <= 1 the mixture of the float half-steps is rounded once: each
    # part within 1 ulp of the 60-digit mixture (log-space float weights
    # missed it by 20 to 83 ulp)
    _, vals = scheme2_transport(brownian_model(K).field.riccati, u0,
                                SchemeConfig(T=1.0, N=N, M=M))
    ref = float_mixture_referee(brownian_R(K), u0, N, M, 1.0, len(vals))
    for v, r in zip(vals, ref):
        for got, want in ((v.real, r.real), (v.imag, r.imag)):
            assert abs(got - want) <= np.spacing(abs(want)), (got, want)


@pytest.mark.parametrize("M,N", [(10, 20), (20, 20), (40, 20)])
def test_scheme2_brownian_mgf_all_lambda(M, N):
    # lam = M T / N below, at, and above 1 (the last exercises the
    # extended-precision path)
    K, T, theta = 12, 1.0, 0.8
    u0 = delta(1, K, theta)
    cfg = SchemeConfig(T=T, N=N, M=M)
    traj, vals = scheme2_transport(brownian_model(K).field.riccati, u0, cfg)
    assert traj.status == "completed"
    times = np.linspace(0.0, T, N + 1)
    refs = np.exp(theta**2 * times / 2.0)
    assert np.max(np.abs(vals - refs) / refs) < 5e-3


def test_scheme2_refinement_converges():
    # doubling (N, M) shrinks the deviation from the closed form
    # E[exp(-beta X_t^2)] = (1 + 2 beta t)^{-1/2} for standard BM
    K, T, beta = 16, 1.0, 0.3
    u0 = delta(2, K, -beta)
    ref = (1.0 + 2.0 * beta * T) ** -0.5
    errs = []
    for N in (10, 20, 40):
        cfg = SchemeConfig(T=T, N=N, M=N)
        traj, vals = scheme2_transport(brownian_model(K).field.riccati, u0, cfg)
        assert traj.status == "completed"
        errs.append(abs(vals[-1] - ref))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2e-3


def test_scheme2_smoothness_detector():
    # a flow engineered to produce one wild grid value is cut there: the
    # scalar riccati R(u)_0 = 40 u_0^2, which blows up at t = 1/(40 u_0)
    R = operators._Terms([0], [0], [0], [40], [1.0], [1])

    # lam = 1, so the value at t = n/20 is exp(A^n(1)) with A(u) = u + 2u^2:
    # e, e^3 ~ 20.09, then e^21 ~ 1.3e9.  That is below the 1e10 magnitude
    # cut, so only the smoothness test can flag t = 0.1.
    cfg = SchemeConfig(T=1.0, N=20, M=20)
    traj, vals = scheme2_transport(R, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert traj.explosion_time == pytest.approx(0.1)
    assert np.allclose(traj.times, [0.0, 0.05])
    assert np.allclose(vals, [math.e, math.exp(3.0)], rtol=1e-12)
    assert traj.stats == {"half_steps": 2, "rhs_evals": 2, "stop": "smoothness test"}


def test_scheme2_stats_completed_and_magnitude_cut():
    # lam = 1 and R = 1: the value at t = n/20 is exp(u0 + n/20).  From
    # u0 = 0 it stays smooth and small; from u0 = 22.9 it passes 1e10 at
    # n = 3 (e^23.05) while every second difference stays below 1%
    R = operators._Terms([0], [1], [1], [1], [1.0], [1])

    cfg = SchemeConfig(T=1.0, N=20, M=20)
    traj, _ = scheme2_transport(R, np.array([0.0 + 0j]), cfg)
    assert traj.status == "completed"
    assert traj.stats == {"half_steps": 20, "rhs_evals": 20, "stop": "completed"}
    traj, vals = scheme2_transport(R, np.array([22.9 + 0j]), cfg)
    assert traj.status == "exploded" and len(vals) == 3
    assert traj.stats == {"half_steps": 3, "rhs_evals": 3, "stop": "magnitude cut"}


def quartic_transport_referee(K, N, M, T):
    """Transport values for E[exp(-B_t^4/24)], computed without sigcalc.

    The Brownian half-step u + R(u)/M is written out in the factorial basis,
    R(u)_n = (u_{n+2} + sum_k C(n, k) u_{k+1} u_{n-k+1}) / 2, with integer
    binomials, at 40 digits above the transport's working precision; the
    mixture uses integer binomials too.  It starts from the same double
    coefficient as the transport (at t = 0.375, N=8, M=32, 1/24 rounded to
    double moves the value by 6.5e-19, enough to cross a rounding midpoint).
    Returns the values rounded to double.
    """
    from mpmath import mp

    lam = M * T / N
    dps = max(30, int(math.ceil(N * math.log10(2.0 * lam - 1.0))) + 30) + 40
    with mp.workdps(dps):
        u = [mp.mpf(0)] * (K + 1)
        # the transport's input, the double nearest -1/4!, times 4! exactly
        u[4] = mp.mpf(-1.0 / 24) * 24
        inv_m = mp.mpf(1) / M
        g = [mp.exp(u[0])]
        for _ in range(N):
            nz = [k for k in range(K) if u[k + 1] != 0]
            r = []
            for n in range(K + 1):
                terms = [u[n + 2]] if n + 2 <= K else []
                terms += [
                    math.comb(n, k) * u[k + 1] * u[n - k + 1]
                    for k in nz
                    if k <= n and n - k + 1 <= K and u[n - k + 1] != 0
                ]
                r.append(mp.fsum(terms) / 2)
            u = [x + y * inv_m for x, y in zip(u, r)]
            g.append(mp.exp(u[0]))
        lam_mp = mp.mpf(T) * M / N
        return [
            float(
                mp.fsum(
                    math.comb(n, m) * (1 - lam_mp) ** (n - m) * lam_mp**m * g[m]
                    for m in range(n + 1)
                )
            )
            for n in range(N + 1)
        ]


@pytest.mark.parametrize("M", [16, 32])
def test_scheme2_mp_path_matches_exact_referee(M):
    # lam = M T / N = 2 and 4: the extended-precision path, bit for bit
    K, N, T = 16, 8, 1.0
    traj, vals = scheme2_transport(
        brownian_model(K).field.riccati, powerseries.quartic_initial(K),
        SchemeConfig(T=T, N=N, M=M),
    )
    assert traj.status == "completed"
    assert not np.any(vals.imag)
    assert [float(v.real) for v in vals] == quartic_transport_referee(K, N, M, T)


def test_scheme2_mp_path_matches_exact_referee_at_high_degree():
    # at K=128 the factorial-basis weights C(n, k) reach C(127, 63) ~ 1.2e37,
    # far past the 2^53 that float64 holds exactly; with those weights
    # rounded to double, values miss the referee by up to 6.8e-13
    K, N, M, T = 128, 64, 128, 1.0
    _, vals = scheme2_transport(
        brownian_model(K).field.riccati, powerseries.quartic_initial(K),
        SchemeConfig(T=T, N=N, M=M),
    )
    ref = quartic_transport_referee(K, N, M, T)
    assert len(vals) == N + 1
    assert not np.any(vals.imag)
    assert [float(v.real) for v in vals] == ref


def test_scheme2_mp_path_rejects_float_field():
    # route 2 takes the compiled field only, whose terms the decimal path
    # reads exactly; a callable, the field's own apply among them, could
    # evaluate R in float64 inside the arithmetic meant to absorb the
    # mixture's cancellation
    K, N, M, T = 12, 8, 16, 1.0
    u0 = delta(1, K, 0.8)
    cfg = SchemeConfig(T=T, N=N, M=M)
    field = brownian_model(K).field.riccati
    for R in (brownian_R(K), field.apply, brownian_R_d1(K)):
        with pytest.raises(TypeError, match="compiled field"):
            scheme2_transport(R, u0, cfg)
    with pytest.raises(ValueError, match=f"initial data of size {K} for a field of size {K + 1}"):
        scheme2_transport(field, u0[:-1], cfg)
    traj, vals = scheme2_transport(field, u0, cfg)
    assert traj.status == "completed"
    refs = np.exp(0.8**2 * np.linspace(0.0, T, N + 1) / 2.0)
    assert np.max(np.abs(vals - refs) / refs) < 5e-3


@pytest.mark.parametrize("K, M", [(67, 160), (160, 160), (160, 320)])
def test_scheme2_factorial_field_runs_the_decimal_path(K, M):
    # at lam > 1 a tensor model enters the transport through its compiled
    # field; the d=1 field carries binomial multiplicities past 2^63 exactly,
    # in [2^63, 2^64) at K=67 (C(67, 33)) and past 2^64 at K=160, and keeps
    # the monomial basis's grid and values
    cfg = SchemeConfig(T=1.0, N=80, M=M)
    u0 = powerseries.quartic_initial(K)
    mono, v_mono = scheme2_transport(brownian_model(K).field.riccati, u0, cfg)
    fact, v_fact = scheme2_transport(
        operators.brownian_spec(1, K).field.riccati, to_factorial_basis(u0), cfg
    )
    assert fact.explosion_time == mono.explosion_time < cfg.T
    assert len(v_fact) == len(v_mono)
    assert np.max(np.abs(v_fact - v_mono)) <= 1e-15


def _tensor_d2_start():
    """A real start on the level-6 words of d=2 Brownian motion."""
    u0 = tensor.TensorCoeffs.zero(2, 6)
    u0[(1,)], u0[(1, 1)], u0[(2, 2)], u0[(1, 2)] = 0.3, -0.1, -0.1, 0.05
    return operators.brownian_spec(2, 6).field.riccati, u0.coeffs.real


TRANSPORT_FIELDS = {
    "monomial-K160": lambda: (brownian_model(160).field.riccati,
                              powerseries.quartic_initial(160)),
    "factorial-K67": lambda: (operators.brownian_spec(1, 67).field.riccati,
                              to_factorial_basis(powerseries.quartic_initial(67))),
    "factorial-K160": lambda: (operators.brownian_spec(1, 160).field.riccati,
                               to_factorial_basis(powerseries.quartic_initial(160))),
    "tensor-d2-N6": _tensor_d2_start,
    # R(u)_0 = 1/2 reads no entry (reach[1] = 0), yet u_0 moves at every step
    "constant": lambda: (operators._Terms([0], [1], [1], [1], [0.5], [1]), np.array([0.1])),
}


@pytest.mark.parametrize("name, N, M", [
    ("monomial-K160", 80, 160), ("monomial-K160", 80, 320), ("factorial-K67", 80, 160),
    ("factorial-K160", 80, 160), ("tensor-d2-N6", 16, 32), ("constant", 16, 32),
])
def test_scheme2_field_matches_its_apply(name, N, M, monkeypatch):
    # at lam > 1 R evaluates only the rows that can still reach u_0; with
    # every row live it evaluates all of them.  The rows kept hold the same
    # bits, so the runs agree in every value, the explosion time and the
    # stats
    from sigcalc import schemes

    field, u0 = TRANSPORT_FIELDS[name]()
    cfg = SchemeConfig(T=1.0, N=N, M=M)
    pruned, v_pruned = scheme2_transport(field, u0, cfg)
    monkeypatch.setattr(schemes, "_live_rows", lambda field, N: [field.size] * (N + 1))
    full, v_full = scheme2_transport(field, u0, cfg)
    assert "dps" in pruned.stats  # the decimal path
    assert v_pruned.tobytes() == v_full.tobytes()
    assert pruned.times.tobytes() == full.times.tobytes()
    assert pruned.explosion_time == full.explosion_time
    assert pruned.stats == full.stats


@pytest.mark.parametrize("K, N, M", [(160, 80, 160), (20, 16, 32), (20, 16, 16)])
def test_scheme2_field_evaluates_the_rows_that_reach_u0(K, N, M, monkeypatch):
    # Brownian R's row k reads entries up to k + 2, so after half-step n of N
    # the rows below min(K + 1, 2 (N - n) + 1) can reach u_0 at grid point N
    # (161, 159, ..., 3, 1 at K = 160, N = 80); at lam <= 1 the float path
    # evaluates every row
    seen, apply = [], operators._Terms.apply
    monkeypatch.setattr(operators._Terms, "apply",
                        lambda self, y, rows=None: seen.append(rows) or apply(self, y, rows))
    cfg = SchemeConfig(T=1.0, N=N, M=M)
    traj, _ = scheme2_transport(brownian_model(K).field.riccati,
                                powerseries.quartic_initial(K), cfg)
    taken = traj.stats["half_steps"]
    assert taken and len(seen) == taken
    if cfg.transport_lambda > 1:
        assert seen == [min(K + 1, 2 * (N - n) + 1) for n in range(1, taken + 1)]
    else:
        assert seen == [None] * taken


@pytest.mark.parametrize("M", [1, 80, 320])
def test_scheme2_at_T0_takes_no_half_step(M, monkeypatch):
    # lam = 0 gives every half-step's value the weight 0: R is never called,
    # and every value is exp(u_0)
    calls, apply = [], operators._Terms.apply
    monkeypatch.setattr(operators._Terms, "apply",
                        lambda self, y, rows=None: calls.append(1) or apply(self, y, rows))
    u0 = powerseries.quartic_initial(20)
    u0[0] = 0.25 - 0.5j
    traj, vals = scheme2_transport(brownian_model(20).field.riccati, u0,
                                   SchemeConfig(T=0.0, N=80, M=M))
    assert calls == []
    assert traj.stats == {"half_steps": 0, "rhs_evals": 0, "stop": "completed"}
    assert vals.tobytes() == np.full(81, np.exp(u0[0])).tobytes()
    assert traj.times.tolist() == [0.0] * 81


@pytest.mark.parametrize("M", [20, 40])
def test_scheme2_stops_half_steps_at_the_cut(M, monkeypatch):
    # the value at grid point n needs n half-steps; none is taken past the
    # first cut point, on the float path (lam = 1) and the decimal one (2)
    calls, apply = [], operators._Terms.apply
    monkeypatch.setattr(operators._Terms, "apply",
                        lambda self, y, rows=None: calls.append(1) or apply(self, y, rows))
    R = operators._Terms([0], [0], [0], [40], [1.0], [1])  # R(u)_0 = 40 u_0^2
    cfg = SchemeConfig(T=1.0, N=20, M=M)
    traj, _ = scheme2_transport(R, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert len(calls) == len(traj.times) < cfg.N
    assert traj.stats["half_steps"] == traj.stats["rhs_evals"] == len(calls)


@pytest.mark.parametrize("M", [10, 40])
def test_scheme2_leaves_the_callers_decimal_context_alone(M, monkeypatch):
    # the mixture's contexts are entered per grid value, never across a
    # yield: the caller's code between values sees its own context
    import decimal

    from sigcalc import schemes

    seen, cut = [], schemes._transport_cut
    monkeypatch.setattr(schemes, "_transport_cut",
                        lambda v, kept: seen.append(decimal.getcontext().prec) or cut(v, kept))
    with decimal.localcontext(decimal.Context(prec=11)):
        scheme2_transport(brownian_model(12).field.riccati, delta(1, 12, 0.8),
                          SchemeConfig(T=1.0, N=20, M=M))
    assert seen == [11] * 21


def test_scheme2_decimal_path_rejects_complex_state():
    cfg = SchemeConfig(T=1.0, N=4, M=8)
    with pytest.raises(ValueError, match="complex"):
        scheme2_transport(operators._Terms([], [], [], [], [], [1]),
                          np.array([0.3 + 0.1j]), cfg)


def test_scheme2_decimal_exp_overflow_is_an_explosion():
    # lam = 2; one half-step takes u_0 from 1 to about 1.25e29, whose exp
    # lies far past any decimal exponent: a non-finite value the explosion
    # test cuts
    R = operators._Terms([0], [0], [0], [10**30], [1.0], [1])  # R(u)_0 = 1e30 u_0^2
    cfg = SchemeConfig(T=1.0, N=4, M=8)
    traj, vals = scheme2_transport(R, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert traj.explosion_time == pytest.approx(0.25)
    assert np.allclose(vals, [math.e], rtol=1e-15)
    # the mixture's 4 log10(3) = 1.9 digits of cancellation, plus 30 to spare
    assert traj.stats == {
        "half_steps": 1, "rhs_evals": 1, "stop": "non-finite value",
        "dps": 32, "predicted_cancellation_digits": 4 * math.log10(3.0),
    }


# -- scheme 3 -------------------------------------------------------------------


def test_scheme3_diagonal_closed_form():
    G = np.diag([-1.0, -2.0, 0.5])
    u0 = np.array([1.0, 1.0, 1.0])
    c, value = scheme3_linear(G, u0, T=2.0, x0=0.5)
    expect_c = np.exp(np.array([-2.0, -4.0, 1.0]))
    assert np.allclose(c, expect_c, atol=1e-12)
    horner = expect_c[0] + expect_c[1] * 0.5 + expect_c[2] * 0.25
    assert abs(value - horner) < 1e-12


def test_scheme3_rejects_overflow():
    G = np.array([[2000.0]])
    with pytest.raises(FloatingPointError):
        scheme3_linear(G, np.array([1.0]), T=1.0)


@pytest.mark.parametrize("x0", [None, 0.5, 0.1234, 0.87])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_scheme3_block_is_its_columns_bit_for_bit(kind, x0, rng):
    # one exponential for the block, one matrix-vector product per column:
    # the same bits as B single-column calls, values and coefficients alike
    n, B = 9, 7
    G = rng.normal(size=(n, n)) * 0.4
    if kind == "complex":
        G = G + 0.3j * rng.normal(size=(n, n))
    U = rng.normal(size=(n, B)) + 1j * rng.normal(size=(n, B))
    c, value = scheme3_linear(G, U, T=1.7, x0=x0)
    assert c.shape == (n, B) and c.dtype == np.complex128
    for j in range(B):
        cj, vj = scheme3_linear(G, U[:, j].copy(), T=1.7, x0=x0)
        assert np.array_equal(c[:, j], cj)
        if x0 is None:
            assert value is None and vj is None
        else:
            assert type(vj) is complex
            assert np.array_equal(value[j], vj)
    if x0 is not None:
        assert value.shape == (B,) and value.dtype == np.complex128


def test_scheme3_rejects_initial_data_of_another_size():
    G = np.eye(4)
    for u0 in (np.ones(3), np.ones((5, 2))):
        with pytest.raises(ValueError, match=rf"{len(u0)} rows but G is 4 x 4"):
            scheme3_linear(G, u0, T=1.0)


# -- expected signatures from the field's terms --------------------------------


def dense_expected_signature(spec, N, T):
    """exp(T G^T) e_0 by the dense generator and the Pade exponential."""
    return matrix_exp(operators.expected_signature_matrix(spec, N), T)[:, 0]


def test_expected_signature_brownian_d3_N8_closed_form():
    # E[sig of BM at T] = exp(T/2 sum_i e_i e_i): the word i1 i1 ... im im
    # has (T/2)^m / m!, every other word 0.  The dense generator alone would
    # take 9841^2 complex entries, 1.5 GB.
    d, N, T = 3, 8, 1.0
    tracemalloc.start()
    try:
        got = expected_signature(operators.brownian_spec(d, N), N, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = np.zeros(tensor.n_words(d, N))
    for k, w in enumerate(tensor.all_words(d, N)):
        if len(w) % 2 == 0 and w[::2] == w[1::2]:
            want[k] = (T / 2) ** (len(w) // 2) / math.factorial(len(w) // 2)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-15
    assert peak < 50e6


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_expected_signature_matches_the_dense_route(N):
    rng = np.random.default_rng(100 + N)
    sigma, s0, T = rng.uniform(0.1, 0.4), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    spec = operators.black_scholes_spec(sigma, s0, N)
    got = expected_signature(spec, N, T)
    assert np.max(np.abs(got - dense_expected_signature(spec, N, T))) <= 1e-14


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_expected_signature_asset_words_then_time(N):
    # the word 2^m 1 is int_0^T E[(S_t - s0)^m] / m! dt, the time integral of
    # the lognormal moments: s0^m / m! sum_j C(m, j) (-1)^(m-j) (e^(a_j T) - 1)
    # / a_j with a_j = sigma^2 j (j - 1) / 2, the term T where a_j = 0
    sigma, s0, T = 0.2, 1.0, 1.0
    got = expected_signature(operators.black_scholes_spec(sigma, s0, N), N, T)
    for m in range(1, N):
        a = [sigma**2 * j * (j - 1) / 2 for j in range(m + 1)]
        terms = [math.comb(m, j) * (-1) ** (m - j) * (math.expm1(a[j] * T) / a[j] if a[j] else T)
                 for j in range(m + 1)]
        want = s0**m / math.factorial(m) * math.fsum(terms)
        assert abs(got[tensor.word_index((2,) * m + (1,), 2)] - want) <= 1e-12


def test_expected_signature_correlated_and_complex_fields():
    cov = np.array([[1.0, 0.4], [0.4, 0.5]])
    spec = operators.brownian_spec(2, 6, cov)
    got = expected_signature(spec, 6, 0.8)
    assert np.max(np.abs(got - dense_expected_signature(spec, 6, 0.8))) <= 1e-14
    # a complex drift takes the complex branch of the action
    b = [tensor.TensorCoeffs.unit(2, 4) * (0.3 + 0.2j), tensor.TensorCoeffs.zero(2, 4)]
    b[1][(1,)] = -0.5j
    a = [[c.with_truncation(4) for c in row] for row in spec.a]
    spec = operators.SdeSpec(d=2, x0=np.zeros(2), b=b, a=a)
    got = expected_signature(spec, 4, 0.7)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - dense_expected_signature(spec, 4, 0.7))) <= 1e-14


def test_expected_signature_checks_the_support():
    spec = operators.brownian_spec(2, 3)
    a = [[c.copy() for c in row] for row in spec.a]
    a[0][0][(1, 2, 1)] = 0.1
    wide = operators.SdeSpec(d=2, x0=np.zeros(2), b=spec.b, a=a)
    with pytest.raises(ValueError, match=r"diffusion entry \(1,1\) involves a word of length 3"):
        expected_signature(wide, 3, 1.0)
