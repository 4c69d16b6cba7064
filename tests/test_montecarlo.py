"""Euler simulation, signature estimation, and the quadrature oracle."""

import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sigcalc import montecarlo
from sigcalc.montecarlo import (
    McEstimate,
    SimConfig,
    _chen_exp_step,
    _read_model,
    _trapezoid_rule,
    estimate,
    gauss_hermite_expectation,
    simulate_sigsde,
)
from conftest import concat_exp, simulate_1d
from sigcalc.operators import SdeSpec, black_scholes_spec, brownian_spec
from sigcalc.powerseries import brownian_model, jacobi_model
from sigcalc.signature import segment_signature
from sigcalc.tensor import TensorCoeffs, all_words, level_offsets, word_index


def test_estimate_and_within():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    est = estimate(samples)
    assert est.mean == 2.5
    assert abs(est.std_error - np.std(samples, ddof=1) / 2.0) < 1e-15
    assert est.within(2.5 + 2.0 * est.std_error, n_se=3)
    assert not est.within(2.5 + 4.0 * est.std_error, n_se=3)


def test_se_scaling(rng):
    xs = rng.normal(size=40000)
    small = estimate(xs[:10000])
    big = estimate(xs)
    assert big.std_error == pytest.approx(small.std_error / 2.0, rel=0.1)


def test_simulation_is_seed_deterministic():
    model = brownian_model(4)
    cfg = SimConfig(n_paths=5000, dt=0.01, seed=42)
    a = simulate_1d(model, cfg, T=1.0)
    b = simulate_1d(model, cfg, T=1.0)
    assert np.array_equal(a.finals, b.finals)
    c = simulate_1d(model, SimConfig(n_paths=5000, dt=0.01, seed=43), T=1.0)
    assert not np.array_equal(a.finals, c.finals)


def test_brownian_moments():
    model = brownian_model(4)
    cfg = SimConfig(n_paths=200_000, dt=0.002, seed=1)
    res = simulate_1d(model, cfg, T=1.0)
    mean = estimate(res.finals)
    var = estimate(res.finals**2)
    assert mean.within(0.0)
    assert var.within(1.0)
    assert res.clamped_steps == 0


def test_jacobi_simulation_martingale_and_range():
    model = jacobi_model(4, x0=0.3)
    cfg = SimConfig(n_paths=100_000, dt=0.001, seed=3)
    res = simulate_1d(model, cfg, T=1.0)
    est = estimate(res.finals)
    assert est.within(0.3, n_se=4)
    # Euler overshoots the boundary by at most an O(sqrt(dt)) step; the
    # clamping of the squared diffusion keeps paths from wandering further
    slack = 10.0 * math.sqrt(cfg.dt)
    assert res.finals.min() >= -slack and res.finals.max() <= 1.0 + slack
    assert res.clamped_steps > 0


def test_black_scholes_lognormal_moments():
    sigma, s0, T = 0.2, 1.0, 1.0
    spec = black_scholes_spec(sigma=sigma, s0=s0, N=2)
    cfg = SimConfig(n_paths=100_000, dt=0.001, seed=5)
    price_idx = word_index((2,), d=2)
    res = simulate_sigsde(
        spec, cfg, T=T, N_sig=2, functional=lambda sig: s0 + sig[:, price_idx]
    )
    # the price is a martingale: E S_T = s0, both via the path state and via
    # the level-1 signature functional
    assert res.functional.within(s0, n_se=4)
    direct = estimate(res.finals[:, 1])
    assert direct.within(s0, n_se=4)
    # the lognormal second moment s0^2 exp(sigma^2 T), within Euler bias
    m2 = estimate(res.finals[:, 1] ** 2)
    ref2 = s0**2 * math.exp(sigma**2 * T)
    assert abs(m2.mean.real - ref2) < 4.0 * m2.std_error + 1e-3


def _check_brownian_expected_signature(cov, dt, seed):
    # exp_(x)(T/2 sum_ij cov_ij e_i e_j), word by word, at 4 se + 5e-3
    d, N, T = len(cov), 3, 1.0
    spec = brownian_spec(d, N, cov=cov)
    cfg = SimConfig(n_paths=60_000, dt=dt, seed=seed)
    res = simulate_sigsde(spec, cfg, T=T, N_sig=N)
    gen = TensorCoeffs.zero(d, N)
    for i in range(d):
        for j in range(d):
            gen[(i + 1, j + 1)] = T / 2.0 * cov[i, j]
    expect = concat_exp(gen)
    for i, w in enumerate(all_words(d, N)):
        se = max(res.sig_se[i], 1e-12)
        err = abs(res.sig_mean[i] - expect[w])
        assert err < 4.0 * se + 5e-3, (w, err, se)
    assert res.clamped_steps == 0


def test_expected_brownian_signature_vs_closed_form():
    _check_brownian_expected_signature(np.eye(2), dt=0.002, seed=7)


@seed(20240817)
@settings(max_examples=60, deadline=None, database=None)
@given(
    d=st.integers(1, 3),
    N=st.integers(1, 4),
    nb=st.integers(1, 4),
    data=st.data(),
)
def test_fused_chen_step_matches_concat(d, N, nb, data):
    """One in-place Horner step on the levels-first layout equals, path by
    path, the concatenation product with the segment's signature."""
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    coords = st.lists(unit, min_size=d, max_size=d)
    # group-like start: the signature of a random two-segment path
    starts = [
        segment_signature(np.array(data.draw(coords)), N).concat(
            segment_signature(np.array(data.draw(coords)), N)
        )
        for _ in range(nb)
    ]
    dx = np.array([data.draw(coords) for _ in range(nb)]).T
    offs = level_offsets(d, N)
    sig = np.array([s.coeffs.real for s in starts]).T.copy()
    levels = [sig[offs[n] : offs[n + 1]] for n in range(N + 1)]
    work = [None] + [np.empty((d**m, nb)) for m in range(1, N + 1)]
    dx_over = np.array([dx] + [dx / k for k in range(1, N + 1)])
    _chen_exp_step(levels, dx_over, work)
    for p in range(nb):
        ref = starts[p].concat(segment_signature(dx[:, p], N)).coeffs
        assert np.max(np.abs(sig[:, p] - ref)) <= 1e-12, (p, sig[:, p] - ref)


def test_sigsde_is_seed_deterministic_across_partial_blocks():
    spec = black_scholes_spec(0.3, 1.0, 3)
    for cfg in (
        SimConfig(n_paths=600, dt=0.02, seed=11),
        SimConfig(n_paths=1000, dt=0.02, seed=11, block_size=256),
    ):
        a = simulate_sigsde(spec, cfg, T=1.0, N_sig=3)
        b = simulate_sigsde(spec, cfg, T=1.0, N_sig=3)
        for field in ("sig_mean", "sig_se", "finals"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_sigsde_builds_no_shuffle_table():
    # offsets and sizes come from level_offsets and n_words; a cold
    # tables(2, 8) alone costs about 0.15 s
    from sigcalc import tensor

    before = tensor.tables.cache_info()
    spec = black_scholes_spec(0.3, 1.0, 8)
    simulate_sigsde(spec, SimConfig(n_paths=4, dt=0.5, seed=1), T=1.0, N_sig=8)
    segment_signature(np.array([0.1, -0.2]), 8)
    assert tensor.tables.cache_info() == before  # no call, not even a hit


def test_expected_correlated_brownian_signature_vs_closed_form():
    # an off-diagonal diffusion gives the factor an entry below the diagonal;
    # constant diffusion makes Euler increments exact, so a coarse step is fine
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    _check_brownian_expected_signature(cov, dt=0.01, seed=13)


def test_expected_correlated_brownian_signature_with_fill_in():
    # a_32 = 0 but L_32 = -L_31 L_21 / L_22 is not: the factor's pattern
    # takes the fill-in
    cov = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
    _check_brownian_expected_signature(cov, dt=0.01, seed=17)


def test_sigsde_clamps_an_indefinite_diffusion():
    # pivots 1 and 1 - 2^2 = -3: the second is clamped on every path and step
    cfg = SimConfig(n_paths=500, dt=0.01, seed=3)
    res = simulate_sigsde(brownian_spec(2, 2, [[1.0, 2.0], [2.0, 1.0]]), cfg, T=1.0, N_sig=2)
    assert res.clamped_steps == cfg.n_paths * 100
    assert np.all(np.isfinite(res.sig_mean)) and np.all(np.isfinite(res.finals))


def _time_extended_spec(rho, N):
    # letter 1 is time, letters 2 and 3 Brownian motions with correlation rho
    unit, zero = TensorCoeffs.unit(3, N), TensorCoeffs.zero(3, N)
    cov = [[0.0, 0.0, 0.0], [0.0, 1.0, rho], [0.0, rho, 1.0]]
    return SdeSpec(
        d=3, x0=np.zeros(3), b=[unit, zero, zero.copy()], a=[[unit * c for c in row] for row in cov]
    )


def test_time_extended_correlated_model_keeps_time_deterministic():
    # the time direction has a zero pivot, so it takes no noise at all: the
    # pure-time words are T^n / n! on every path
    res = simulate_sigsde(
        _time_extended_spec(0.5, 3), SimConfig(n_paths=4000, dt=0.01, seed=5), T=1.0, N_sig=3
    )
    for n in (1, 2, 3):
        i = word_index((1,) * n, d=3)
        assert abs(res.sig_mean[i] - 1.0 / math.factorial(n)) <= 1e-12, n
        assert res.sig_se[i] <= 1e-15, n
    assert res.clamped_steps == 0


def test_one_path_has_no_standard_error():
    # one path gives no spread: sig_se read 0 for every word, an exact
    # result, where estimate on one sample gives inf
    res = simulate_sigsde(brownian_spec(2, 2), SimConfig(n_paths=1, dt=0.5, seed=1), T=1.0,
                          N_sig=2, functional=lambda s: s[:, 0])
    assert np.all(res.sig_se == math.inf) and res.functional.std_error == math.inf


def _peak_bytes(spec, cfg):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_sigsde(spec, cfg, T=1.0, N_sig=1)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_correlated_step_allocates_nothing_per_step():
    # a per-step temporary is freed each step, so it cannot make the peak grow
    # with the step count; it shows as a peak above the diagonal model's,
    # which runs the same buffers
    nb = 4096
    cov = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
    simulate_sigsde(brownian_spec(3, 1, cov), SimConfig(n_paths=8, dt=0.5), T=1.0, N_sig=1)
    diagonal = _peak_bytes(brownian_spec(3, 1), SimConfig(n_paths=nb, dt=0.5))
    for steps in (2, 50):
        peak = _peak_bytes(brownian_spec(3, 1, cov), SimConfig(n_paths=nb, dt=1.0 / steps))
        assert peak <= diagonal + 8 * nb, (steps, peak, diagonal)


def _clamping_spec():
    # d=1, a_11 = 1 - 2 <e_1, X>: negative once the path passes 1/2
    a = TensorCoeffs.unit(1, 1)
    a[(1,)] = -2.0
    return SdeSpec(d=1, x0=np.zeros(1), b=[TensorCoeffs.zero(1, 1)], a=[[a]])


def test_sigsde_clamps_negative_diagonal_diffusion():
    res = simulate_sigsde(_clamping_spec(), SimConfig(n_paths=3000, dt=0.01, seed=23), T=1.0, N_sig=2)
    assert res.clamped_steps > 0
    assert np.all(np.isfinite(res.sig_mean)) and np.all(np.isfinite(res.sig_se))
    assert np.all(np.isfinite(res.finals))
    # a clamped path stops diffusing, so none wanders far past 1/2
    assert res.finals.max() < 1.0


# sha256 of sig_mean, sig_se and finals, and clamped_steps, recorded from the
# diagonal Euler step before the one-factor step replaced it (numpy 2.4.6)
_RECORDED = {
    "black-scholes": (
        lambda: black_scholes_spec(0.2, 1.0, 3),
        3,
        "f12a65547f8c0c18a68814f3444141dd475911d61f64663ea9bcc63c3a5bcbd8",
        "412e5205df993bd809197a6b43b418ddb66e7ec0ae4e5e18cbeea9dfe4382529",
        "855aa2b657dc2b18e36ef1052907eebfcb80ed339549babad955c8b360cf1852",
        0,
    ),
    "clamping": (
        _clamping_spec,
        2,
        "c9bca72d9cdc448fc372368b7b4b00560a8f9edbee7539fcbbac02b0cd55c6f7",
        "a88612e3201f1a82835f9ca27ba8335bfc51225ffaeff438dde948eb21e81351",
        "2274cca4b6037be9baeec9278b3ceb3dfe0895c8333bc9b46525508dbc12c874",
        95665,
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_diagonal_models_keep_their_recorded_bits(name):
    make, N, *digests, clamped = _RECORDED[name]
    cfg = SimConfig(n_paths=3000, dt=0.01, seed=19, block_size=1024)
    res = simulate_sigsde(make(), cfg, T=1.0, N_sig=N)
    got = [hashlib.sha256(getattr(res, f).tobytes()).hexdigest() for f in ("sig_mean", "sig_se", "finals")]
    assert got == digests
    assert res.clamped_steps == clamped


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _exploding_spec():
    # d=2: dX_1 = (1 + 3 X_1^2) dt + |X_1| dB_1, a_21 = X_1^2 and a_22 = 1, so
    # a_11 = X_1^2 is a zero pivot at the start and X_1 overflows on some paths
    b1 = TensorCoeffs.unit(2, 2)
    b1[(1, 1)] = 6.0
    x1_sq = TensorCoeffs.zero(2, 2)
    x1_sq[(1, 1)] = 2.0
    a = [[x1_sq, x1_sq.copy()], [x1_sq.copy(), TensorCoeffs.unit(2, 2)]]
    return SdeSpec(d=2, x0=np.zeros(2), b=[b1, TensorCoeffs.zero(2, 2)], a=a)


# sha256 of sig_mean, sig_se, finals and the functional's (mean.real,
# mean.imag, std_error), and clamped_steps, recorded from the serial draws
# before a helper thread drew them ahead (numpy 2.4.6)
_RECORDED_SERIAL = {
    "partial-blocks": (
        lambda: black_scholes_spec(0.2, 1.0, 3), 3,
        SimConfig(n_paths=2500, dt=0.02, seed=29, block_size=1000),
        lambda sig: sig[:, 5] * sig[:, 3],
        "a6dd8b70054b3bbc22183aface345bc9a1681ad360118b1a37b6bbf38a83fa91",
        "016d42d9691833fd0fd8b16db43ddd04f56fc92e7775edf711ea0f122f4e1287",
        "e8332f8118f6ea9db0d8197ec7aebb2d49b7e084a705d34399cac5a114bcf0b2",
        "dd5bcfd6aeb2bcc0424e8815db2a38c32fb284f1f87d7f133acf4f84c256e402",
        0,
    ),
    "correlated": (
        lambda: brownian_spec(2, 3, [[1.0, 0.5], [0.5, 2.0]]), 3,
        SimConfig(n_paths=1500, dt=0.02, seed=31, block_size=400),
        lambda sig: sig[:, 1] ** 2 + sig[:, 8],
        "4f1e4b1ec10802abda6f118676e2aa6f911a9027032dba4804bc01434af5e7ef",
        "cbd1852424876428231e655f279d921f9cc4e7d8f3dcf398f268781944b8deba",
        "3e476fbcb995405062eb7da7a03f4fbc8728f69f6c610a47af7c486c2a256e46",
        "a34c319bb3819746e0050d2e8dc5d4a536ab98a273d908632124f1b308f91f91",
        0,
    ),
    "d1-seven-paths": (
        _clamping_spec, 2,
        SimConfig(n_paths=7, dt=0.01, seed=37),
        lambda sig: sig[:, 2],
        "dbdecec55e7cfd898a015db149e85e87c595fa9f0b52250dee82b983ea0e66c3",
        "1026f58187c76959ffc0275bd1e06eb4e178cd3e0a6848bfa7bb89bb17d9a063",
        "7fbceeecdeec7385ce284c0f066c125b6e6b73f910001a63e5a49ce3a012cefd",
        "d3cd008c0039a1e73200463dfdf87e9a81284a5830d29612c3340d86ae77cb7c",
        220,
    ),
    # two blocks of one size: paths of the first overflow, leaving a
    # non-finite factor entry under the zero pivot that every block starts at
    "exploding-paths": (
        _exploding_spec, 2,
        SimConfig(n_paths=128, dt=0.01, seed=5, block_size=64),
        lambda sig: sig[:, 2],
        "a23e1eb4128081e6c2f51d50dfdb1c7f81e6c157ecbd423af1377c4b5c8d5e84",
        "94edf39ef247230f56ed4bccd868343d911fd30d1a120a17b76eec72fae21afc",
        "f89830abe4131674fa6d04e5de945f1878b9f79feebb775719582302d557c26f",
        "136ccb2128cd8a38b0a39fe51520ac48128d910defb3d76b0711bd2613c2e260",
        3480,
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDED_SERIAL))
def test_draws_ahead_keep_the_serial_bits(name):
    make, N, cfg, fn, *digests, clamped = _RECORDED_SERIAL[name]
    with np.errstate(over="ignore", invalid="ignore"):
        res = simulate_sigsde(make(), cfg, T=1.0, N_sig=N, functional=fn)
    est = res.functional
    got = [_sha(res.sig_mean), _sha(res.sig_se), _sha(res.finals),
           _sha(np.array([est.mean.real, est.mean.imag, est.std_error]))]
    assert got == digests
    assert res.clamped_steps == clamped


def test_draws_ahead_keep_their_bits_under_contention():
    # four calls at once, each with its own helper, with thread switches
    # forced often: a draw that overlapped the read of the draws before it
    # would change the bits
    make, N, cfg, fn, *digests, clamped = _RECORDED_SERIAL["partial-blocks"]
    got = []

    def run():
        res = simulate_sigsde(make(), cfg, T=1.0, N_sig=N, functional=fn)
        got.append([_sha(res.sig_mean), _sha(res.sig_se), _sha(res.finals)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [digests[:3]] * 4


def _path_drift_spec():
    # d=3: letter 2 takes no noise, and its drift 1 + <e_1, X> - <e_3, X> / 2
    # reads the path; letters 1 and 3 are Brownian with correlation 0.3, so
    # the letters that take noise are not one run
    unit, zero = TensorCoeffs.unit(3, 2), TensorCoeffs.zero(3, 2)
    b2 = TensorCoeffs.unit(3, 2)
    b2[(1,)] = 1.0
    b2[(3,)] = -0.5
    cov = [[1.0, 0.0, 0.3], [0.0, 0.0, 0.0], [0.3, 0.0, 1.0]]
    return SdeSpec(d=3, x0=np.array([0.0, 1.0, 0.0]), b=[zero, b2, zero.copy()],
                   a=[[unit * c for c in row] for row in cov])


def _quiet_zero_drift_spec():
    # d=2: letter 1 neither drifts nor diffuses; letter 2 drifts by 1/4 and
    # has a_22 = 1 - 2 <e_2, X>, clamped once the path passes 1/2
    zero = TensorCoeffs.zero(2, 2)
    a22 = TensorCoeffs.unit(2, 2)
    a22[(2,)] = -2.0
    return SdeSpec(d=2, x0=np.array([3.0, 0.0]), b=[zero, TensorCoeffs.unit(2, 2) * 0.25],
                   a=[[zero.copy(), zero.copy()], [zero.copy(), a22]])


# sha256 of sig_mean, sig_se, finals and the functional's (mean.real,
# mean.imag, std_error), and clamped_steps, recorded while every letter still
# took a pivot and a per-step dx (numpy 2.4.6)
_RECORDED_QUIET = {
    "time-extended-blocks": (
        lambda: _time_extended_spec(0.5, 3), 3,
        SimConfig(n_paths=1100, dt=0.02, seed=41, block_size=400),
        lambda sig: sig[:, 2] * sig[:, 7] + sig[:, 30],
        "3cc544db3f7ed2ffe8533ce02e2ef3a59c11386020612b3c7da8adc101f19d72",
        "b3f7f76689eeeb897edc3d93941b72c6843da4c20359477ed2a847b43f33fc1e",
        "d9a06b685c5df9395073ab298c51d5c054d417b26164a4630062dc63a5b32041",
        "f85342a85a717af2fecc310d248b74f44a9ff06e1389389bb13b99251d942361",
        0,
    ),
    "black-scholes-N2": (
        lambda: black_scholes_spec(0.3, 1.0, 2), 2,
        SimConfig(n_paths=900, dt=0.02, seed=53, block_size=512),
        lambda sig: sig[:, 6],
        "e2fb9ddcac1c2f5e16ec7ca1338cc378ced844d7ff01b03c2d09f399699362a2",
        "6e032ec819ffc66e20d42799f74d992f268ed1ab25cc6beb174db22114d85535",
        "cb8876575b36e5bb7da9093514d7b29bf36f11c018cee2270a96c8f6c446a852",
        "0441c578700bfe1facce7f5eb0c2d74c386aef87dc0517738db3f37e8a01b856",
        0,
    ),
    "black-scholes-N4": (
        lambda: black_scholes_spec(0.3, 1.0, 4), 4,
        SimConfig(n_paths=700, dt=0.02, seed=59, block_size=300),
        lambda sig: sig[:, 2] ** 2 - sig[:, 20],
        "4f9bb78ca9eb6f002c194a285ebebe1b74d4998764f15156e58d1ebddd237b0e",
        "ae213d9fc1f4093a04144214073440274bff64f2c7ce86d67fc0f53b3e13ff7e",
        "b51b0575a481cc0e80a249604bc0dcd9ed755481626a446adf64cfdf40e2c3d8",
        "df44ede7162418374771caa2bca3e70a00b401fcc0cdf46a9e672b8ee6147e99",
        0,
    ),
    "path-drift": (
        _path_drift_spec, 2,
        SimConfig(n_paths=1000, dt=0.02, seed=61, block_size=384),
        lambda sig: sig[:, 2] * sig[:, 1],
        "6e64951263f2f6bf9d0bfa1160579b5c092aaea9d4c6e14f0cdec2a3a40e4af0",
        "3d394e632dfe52730f3cfda38c97972859550e4040a2c15aa7fd787e84ef3a5d",
        "a3dcf1efce5d5bdd8d54c0fe20aae842ecb360b07c6d142bb993513a917a51a7",
        "72573c3dd52e21247b07fe995b922d9cef8d129713c47ab924701439eaaef4e7",
        0,
    ),
    "quiet-zero-drift": (
        _quiet_zero_drift_spec, 2,
        SimConfig(n_paths=800, dt=0.01, seed=67, block_size=300),
        lambda sig: sig[:, 2] + sig[:, 4],
        "5187fbdc0482850a2d60dfff47f5f52f368adb8a181a7bd4586ca5a95265dc8b",
        "22d819030f13f21e1b82f5c417d1c3a5981327bf85200335a604caf90081299c",
        "2c09d21011b4be0a7db762cf8bc64af991f40b424f2a9dbbd6401d6ce496cfa9",
        "31c55f4eef3863a0e6b28108546f40a85016f0c3ccf0aa6405037c56ab0b5d4e",
        33167,
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORDED_QUIET))
def test_letters_without_noise_keep_their_recorded_bits(name):
    # a skipped pivot added only a signed zero to dx, and a letter's fixed dx
    # is the value every step formed
    make, N, cfg, fn, *digests, clamped = _RECORDED_QUIET[name]
    res = simulate_sigsde(make(), cfg, T=1.0, N_sig=N, functional=fn)
    est = res.functional
    got = [_sha(res.sig_mean), _sha(res.sig_se), _sha(res.finals),
           _sha(np.array([est.mean.real, est.mean.imag, est.std_error]))]
    assert got == digests
    assert res.clamped_steps == clamped


@pytest.mark.parametrize("make, N, noisy, quiet_fixed", [
    (lambda: black_scholes_spec(0.2, 1.0, 3), 3, [1], [0]),
    (lambda: brownian_spec(2, 2), 2, [0, 1], []),
    (lambda: brownian_spec(3, 2, [[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]), 2, [0, 1, 2], []),
    (lambda: _time_extended_spec(0.5, 3), 3, [1, 2], [0]),
    (_path_drift_spec, 2, [0, 2], []),
    (_quiet_zero_drift_spec, 2, [1], [0]),
])
def test_which_letters_take_noise_or_a_fixed_step(make, N, noisy, quiet_fixed):
    fixed, moving, pattern, got_noisy, got_quiet_fixed = _read_model(make(), N)
    assert (got_noisy, got_quiet_fixed) == (noisy, quiet_fixed)
    # a letter without noise has no factor entry; a fixed letter's drift row
    # is formed per block, never per step
    assert all(i in noisy and j in noisy for i, j, _ in pattern)
    assert not {r for r, _ in moving} & set(quiet_fixed)
    assert all(k == 0 for _, terms in fixed for k, _ in terms)


class _FailingDraws:
    """A block generator whose draw number ``fail_at`` raises."""

    def __init__(self, rng, fail_at):
        self.rng, self.left = rng, fail_at

    def standard_normal(self, out):
        if self.left == 0:
            raise RuntimeError("draw failed")
        self.left -= 1
        return self.rng.standard_normal(out=out)


def _raise_on_call(n, real):
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == n:
            raise RuntimeError("step failed")
        return real(*args)

    return wrapped


def _functional_that_fails(sig):
    raise RuntimeError("functional failed")


@pytest.mark.parametrize("exit_path", ["return", "functional", "draw", "step"])
def test_no_helper_thread_outlives_a_call(exit_path, monkeypatch):
    # "step" fails while the helper draws
    seen = []

    def functional(sig):
        seen.append([t for t in threading.enumerate() if t.name.startswith("sigcalc-helper")])
        return sig[:, 0]

    if exit_path == "functional":
        functional = _functional_that_fails
    elif exit_path == "draw":
        real = montecarlo._block_rng
        monkeypatch.setattr(montecarlo, "_block_rng", lambda seed, blk: _FailingDraws(real(seed, blk), 3))
    elif exit_path == "step":
        monkeypatch.setattr(montecarlo, "_pair", _raise_on_call(30, montecarlo._pair))
    before = set(threading.enumerate())
    cfg = SimConfig(n_paths=300, dt=0.05, seed=43, block_size=128)
    if exit_path == "return":
        simulate_sigsde(brownian_spec(2, 2), cfg, T=1.0, N_sig=2, functional=functional)
        # one worker serves every block of a call, not one per block
        assert len(seen) == 3 and all(len(helpers) == 1 for helpers in seen)
        assert seen[0][0] is seen[1][0] is seen[2][0]
    else:
        with pytest.raises(RuntimeError, match=f"{exit_path} failed"):
            simulate_sigsde(brownian_spec(2, 2), cfg, T=1.0, N_sig=2, functional=functional)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("T", [-1.0, math.nan, math.inf])
def test_sigsde_rejects_a_bad_horizon(T):
    with pytest.raises(ValueError, match="horizon"):
        simulate_sigsde(brownian_spec(1, 1), SimConfig(n_paths=4), T=T, N_sig=1)


@pytest.mark.parametrize("N_sig", [0, -1, 2.0, True, "3"])
def test_sigsde_rejects_a_truncation_that_is_not_a_positive_integer(N_sig):
    # N_sig=0 ran every step, then failed at levels[1]; N_sig=2.0 failed in
    # level_offsets
    with pytest.raises(ValueError, match="integer >= 1.*level 1 of the signature"):
        simulate_sigsde(brownian_spec(2, 1), SimConfig(n_paths=4, dt=0.5), T=1.0, N_sig=N_sig)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_sim_config_rejects_a_non_finite_step(dt):
    # nan failed later in round(T / dt); inf ran one step of length T
    with pytest.raises(ValueError, match="step size"):
        SimConfig(dt=dt)


@pytest.mark.parametrize("field", ["n_paths", "block_size", "seed"])
def test_sim_config_rejects_a_count_that_is_not_an_integer(field):
    # n_paths=100.5 was accepted; seed=True ran as seed 1
    for bad in (100.5, 1e3, True, "3"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**{field: bad})
    cfg = SimConfig(**{field: np.int64(3)})
    assert getattr(cfg, field) == 3


def test_sim_config_rejects_a_negative_seed():
    # seed=-1 failed in numpy's SeedSequence at the first block
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(seed=-1)


def test_block_spread_needs_no_temporaries():
    # the per-word spread is formed in the signature block itself, with no
    # (n_words, nb) temporaries: 20k paths x 5 steps at d=2, N=3 peaked at
    # 5.6 blocks with two of them and reads 3.7 without
    nb, N = 20_000, 3
    spec = black_scholes_spec(0.2, 1.0, N)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_sigsde(spec, SimConfig(n_paths=nb, dt=0.2, seed=1), T=1.0, N_sig=N)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    block = 8 * nb * level_offsets(2, N)[-1]  # the (n_words, nb) signatures
    assert peak < 4.5 * block, peak / block


def test_functional_may_return_a_view_of_the_block():
    # the spread overwrites the block after the functional has read it, so
    # a view must be copied: its samples are the final signatures' entries
    cfg = SimConfig(n_paths=3000, dt=0.05, seed=3, block_size=1000)
    res = simulate_sigsde(
        brownian_spec(2, 3, [[1.0, 0.5], [0.5, 2.0]]), cfg, T=1.0, N_sig=3,
        functional=lambda sig: sig[:, 5],
    )
    assert res.functional.mean == pytest.approx(res.sig_mean[5], rel=1e-12, abs=1e-15)
    assert res.functional.std_error == pytest.approx(res.sig_se[5], rel=1e-9)


def test_gauss_hermite_closed_forms():
    # moments and mgf of a centred Gaussian
    var = 0.7
    assert abs(gauss_hermite_expectation(lambda z: z**2, var) - var) < 1e-12
    assert abs(gauss_hermite_expectation(lambda z: z**3, var)) < 1e-12
    for theta in (-1.0, 0.5, 2.0):
        got = gauss_hermite_expectation(lambda z: np.exp(theta * z), var)
        assert abs(got - math.exp(theta**2 * var / 2.0)) < 1e-10


def test_gauss_hermite_zero_variance():
    assert abs(gauss_hermite_expectation(lambda z: np.cos(z), 0.0) - 1.0) < 1e-14


@pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf, -1.0])
def test_gauss_hermite_rejects_a_bad_variance(variance):
    # nan and inf ran five rules, with a RuntimeWarning, before failing to
    # stabilize
    calls = []

    def f(z):
        calls.append(None)
        return np.cos(z)

    with pytest.raises(ValueError, match="variance must be finite and >= 0"):
        gauss_hermite_expectation(f, variance)
    assert not calls


def test_trapezoid_rule_is_exact_at_every_doubling():
    # gauss_hermite_expectation halves its step 1/4 -> 1/64, up to 4 times:
    # every node is an exact multiple of the power-of-two step, and
    # only nodes whose weight underflows to 0 (|x| > 38.47) are left out
    for j in range(5):
        h = 2.0 ** -(2 + j)
        x, w = _trapezoid_rule(h)
        assert x.shape == w.shape and not x.flags.writeable and not w.flags.writeable
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.array_equal(x / h, np.arange(-(len(x) // 2), len(x) // 2 + 1))
        assert 38.4 < x[-1] <= 38.5
        assert np.all(w > 0.0)
        beyond = x[-1] + h
        assert beyond > 38.5 or math.exp(-0.5 * beyond * beyond) * h / math.sqrt(2 * math.pi) == 0.0
        assert abs(w.sum() - 1.0) <= 1e-15


def _normal_expectation_mp(g, variance, pieces):
    """E[g(sqrt(variance) x)], x standard normal, by mpmath.quad at 30
    digits over [-40, 40] cut into ``pieces`` intervals (the density is
    below 1e-347 outside)."""
    import mpmath as mp

    with mp.workdps(30):
        s = mp.sqrt(variance)
        val = mp.quad(
            lambda x: g(s * x) * mp.exp(-x * x / 2), mp.linspace(-40, 40, pieces + 1)
        ) / mp.sqrt(2 * mp.pi)
        return float(val)


def test_gaussian_expectation_against_mpmath():
    # the paper's two examples: the quartic exponent at t <= 1 and the
    # Laplace functional of exp(B_1)
    import mpmath as mp

    for t in (0.1, 0.5, 1.0):
        got = gauss_hermite_expectation(lambda z: np.exp(-(z**4) / 24.0), t)
        ref = _normal_expectation_mp(lambda z: mp.exp(-(z**4) / 24), t, 80)
        assert abs(got - ref) <= 1e-15, t
    for c in (0.25, 1.0, 2.25):
        got = gauss_hermite_expectation(lambda z: np.exp(-c * np.exp(z)), 1.0)
        ref = _normal_expectation_mp(lambda z: mp.exp(-c * mp.exp(z)), 1.0, 80)
        assert abs(got - ref) <= 1e-15, c


@pytest.mark.parametrize("variance", [40.0, 100.0])
def test_gaussian_expectation_at_large_variance(variance):
    # exp(-e^z) at variance 40 and up did not stabilize within the node
    # budget of the Gauss-Hermite rule; the trapezoidal rule converges
    import mpmath as mp

    got = gauss_hermite_expectation(lambda z: np.exp(-np.exp(z)), variance)
    ref = _normal_expectation_mp(lambda z: mp.exp(-mp.exp(z)), variance, 320)
    assert got.imag == 0.0
    assert abs(got - ref) <= 1e-12


def test_gauss_hermite_vs_mc():
    var = 1.3
    f = lambda z: np.exp(-(z**4) / 24.0)
    quad = gauss_hermite_expectation(f, var).real
    rng = np.random.default_rng(11)
    samples = f(rng.normal(scale=math.sqrt(var), size=400_000))
    est = estimate(samples)
    assert est.within(quad, n_se=4)
