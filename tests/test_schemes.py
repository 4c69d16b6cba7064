"""ODE integration, the three value schemes, and the matrix exponential."""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import quartic_blowup_reference
from sigcalc import operators, powerseries, tensor
from sigcalc.powerseries import Seq, brownian_model, R_sig, to_factorial_basis
from sigcalc.schemes import (
    SchemeConfig,
    Trajectory,
    matrix_exp,
    ode_integrate,
    scheme1_riccati,
    scheme2_transport,
    scheme3_linear,
)


def brownian_R(K):
    model = brownian_model(K)
    return lambda y: R_sig(Seq(K, y), model).coeffs


# -- ODE kernel ----------------------------------------------------------------


@pytest.mark.parametrize("solver", ["rk4", "adaptive"])
def test_ode_linear_growth(solver):
    cfg = SchemeConfig(T=2.0, steps=200, solver=solver)
    traj = ode_integrate(lambda t, y: y, np.array([1.0 + 0j]), cfg)
    assert traj.status == "completed"
    assert abs(traj.states[-1][0] - math.exp(2.0)) < 1e-8


@pytest.mark.parametrize("solver", ["rk4", "adaptive"])
def test_ode_detects_scalar_riccati_blowup(solver):
    # y' = y^2, y(0) = 1 blows up at t = 1
    cfg = SchemeConfig(T=2.0, steps=4000, solver=solver)
    traj = ode_integrate(lambda t, y: y * y, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert abs(traj.explosion_time - 1.0) < 2e-3


def test_ode_respects_threshold():
    cfg = SchemeConfig(T=20.0, steps=2000, explosion_threshold=1e3)
    traj = ode_integrate(lambda t, y: y, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert abs(traj.explosion_time - math.log(1e3)) < 0.05


def test_trajectory_csv():
    traj = Trajectory(np.array([0.0, 0.5]), [1.0, 2.0], "completed")
    text = traj.values_csv(np.array([1.0 + 0j, 2.0 + 0j]))
    lines = text.strip().splitlines()
    assert lines[0] == "t,value_re,value_im,status"
    assert len(lines) == 3 and lines[1].endswith("completed")


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
        u0 = Seq.delta(1, K, theta)
        cfg = SchemeConfig(T=T, steps=400)
        traj, vals = scheme1_riccati(brownian_R(K), u0.coeffs, cfg)
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
        u0 = Seq.delta(1, K, theta)
        traj, vals = scheme1_riccati(brownian_R(K), u0.coeffs, SchemeConfig(T=1.0, steps=400))
        assert traj.status == "completed"
        assert abs(vals[-1] / math.exp(theta**2 / 2.0) - 1.0) < 1e-10


def test_scheme1_quartic_explosion_order():
    # on the quartic example K=40 explodes before K=20, and K=20 before K=10;
    # blow-up time is not monotone in K in general (K=12 stays finite on
    # [0, 5], K=16 blows up at 2.45)
    t_exp = {}
    for K in (10, 20, 40):
        model = brownian_model(K)
        u0 = to_factorial_basis(powerseries.quartic_initial(K))
        cfg = SchemeConfig(T=2.0, steps=4000)
        traj, _ = scheme1_riccati(
            lambda y: R_sig(Seq(K, y), model).coeffs, u0.coeffs, cfg
        )
        assert traj.status == "exploded"
        t_exp[K] = traj.explosion_time
    assert t_exp[40] < t_exp[20] < t_exp[10]


@pytest.mark.parametrize("K", [10, 20, 40])
def test_scheme1_explosion_time_is_basis_free(K):
    # the factorial basis scales the coefficient of x^k by k! (40! ~ 8e47),
    # so a test on the size of the coordinates would report a different
    # time in each basis; the time must be the solution's own, in both
    model = brownian_model(K)
    u0 = powerseries.quartic_initial(K)
    cfg = SchemeConfig(T=2.0, steps=4000)
    h = cfg.T / cfg.steps
    mono, _ = scheme1_riccati(
        lambda y: powerseries.R_pow(Seq(K, y), model).coeffs, u0.coeffs, cfg
    )
    fact, _ = scheme1_riccati(
        lambda y: R_sig(Seq(K, y), model).coeffs, to_factorial_basis(u0).coeffs, cfg
    )
    assert mono.status == fact.status == "exploded"
    assert abs(mono.explosion_time - fact.explosion_time) <= 2 * h + 1e-12
    ref = quartic_blowup_reference(K, cfg.T)
    assert abs(mono.explosion_time - ref) <= 5e-3
    assert abs(fact.explosion_time - ref) <= 5e-3


# -- scheme 2 -------------------------------------------------------------------


def test_scheme2_weights_normalize():
    # with R = 0 the mixture must return exp(u_0) at every grid point for
    # any lambda, including sign-alternating weights
    for N, M in ((10, 5), (10, 10), (10, 30)):
        cfg = SchemeConfig(T=1.0, N=N, M=M)
        traj, vals = scheme2_transport(lambda y: 0.0 * y, np.array([0.3 + 0j]), cfg)
        assert traj.status == "completed"
        assert np.allclose(vals, math.exp(0.3), atol=1e-10)


def test_scheme2_lambda_one_is_euler():
    # lam = 1 degenerates to explicit Euler composition of the half-steps
    K, T, N = 8, 1.0, 20
    theta = 0.7
    u0 = Seq.delta(1, K, theta)
    cfg = SchemeConfig(T=T, N=N, M=N)
    traj, vals = scheme2_transport(brownian_R(K), u0.coeffs, cfg)
    R = brownian_R(K)
    u = u0.coeffs.astype(complex)
    direct = [np.exp(u[0])]
    for _ in range(N):
        u = u + R(u) / N
        direct.append(np.exp(u[0]))
    assert np.allclose(vals, direct, atol=1e-12)


@pytest.mark.parametrize("M,N", [(10, 20), (20, 20), (40, 20)])
def test_scheme2_brownian_mgf_all_lambda(M, N):
    # lam = M T / N below, at, and above 1 (the last exercises the
    # extended-precision path)
    K, T, theta = 12, 1.0, 0.8
    u0 = Seq.delta(1, K, theta)
    cfg = SchemeConfig(T=T, N=N, M=M)
    traj, vals = scheme2_transport(brownian_R(K), u0.coeffs, cfg)
    assert traj.status == "completed"
    times = np.linspace(0.0, T, N + 1)
    refs = np.exp(theta**2 * times / 2.0)
    assert np.max(np.abs(vals - refs) / refs) < 5e-3


def test_scheme2_refinement_converges():
    # doubling (N, M) shrinks the deviation from the closed form
    # E[exp(-beta X_t^2)] = (1 + 2 beta t)^{-1/2} for standard BM
    K, T, beta = 16, 1.0, 0.3
    u0 = to_factorial_basis(Seq.delta(2, K, -beta))
    ref = (1.0 + 2.0 * beta * T) ** -0.5
    errs = []
    for N in (10, 20, 40):
        cfg = SchemeConfig(T=T, N=N, M=N)
        traj, vals = scheme2_transport(brownian_R(K), u0.coeffs, cfg)
        assert traj.status == "completed"
        errs.append(abs(vals[-1] - ref))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 2e-3


def test_scheme2_smoothness_detector():
    # a flow engineered to produce one wild grid value is cut there
    def R(y):
        out = 0.0 * y
        out[0] = 40.0 * y[0] * y[0]  # scalar riccati: blows up at t=1/(40*y0)
        return out

    cfg = SchemeConfig(T=1.0, N=20, M=20, explosion_threshold=1e6)
    traj, vals = scheme2_transport(R, np.array([1.0 + 0j]), cfg)
    assert traj.status == "exploded"
    assert traj.explosion_time is not None and traj.explosion_time <= 0.3


# Recorded from the float64-weight, complex-promoting implementation of
# binom_conv: the extended-precision path must keep producing these bits.
# Quartic initial data at K=16, N=8, T=1; per M: the transport values
# (float.hex of the real parts; imaginary parts are zero), the working dps,
# and a digest of the exact mpmath state after the N half-steps.
QUARTIC_MP_GOLDEN = {
    16: (
        [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.fe003ffaab000p-1",
            "0x1.fa05bd70e4bc0p-1", "0x1.f45af92d48850p-1", "0x1.ed890ce38b962p-1",
            "0x1.e625c1e3c0050p-1", "0x1.de8ae66a6707ap-1", "0x1.d6cb36e824893p-1",
        ],
        34,
        "f45315b9de3a92c9d0418f20a8652cae9bb936dc98c7e43ccb0638a80a82648d",
    ),
    32: (
        [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.fe000fffaaac0p-1",
            "0x1.fa02afaf07237p-1", "0x1.f4503f6ac2814p-1", "0x1.ed737f3aaf08fp-1",
            "0x1.e6097b0d23d95p-1", "0x1.de6f88fa371f0p-1", "0x1.d6a5d746d6404p-1",
        ],
        37,
        "1afd5398d4b43371499cdfb3b3d9d84e33f9275123936f4dffaeee9c2be5c525",
    ),
}


def exact_real_digest(coeffs) -> str:
    """sha256 over the exact (sign, mantissa, exponent) of each real part."""
    from mpmath import mp

    parts = []
    for c in coeffs:
        c = mp.mpmathify(c)
        if isinstance(c, mp.mpc):
            assert c.imag == 0
            c = c.real
        sign, man, exp, _ = c._mpf_
        parts.append(f"{sign},{int(man)},{exp}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("M", [16, 32])
def test_scheme2_mp_path_matches_recorded_bits(M):
    from mpmath import mp

    K, N, T = 16, 8, 1.0
    values, dps, digest = QUARTIC_MP_GOLDEN[M]
    u0 = to_factorial_basis(powerseries.quartic_initial(K)).coeffs
    R = brownian_R(K)
    traj, vals = scheme2_transport(R, u0, SchemeConfig(T=T, N=N, M=M, steps=1))
    assert traj.status == "completed"
    assert [float(v.real).hex() for v in vals] == values
    assert not np.any(vals.imag)
    # the same half-steps at the transport's working precision, bit for bit
    with mp.workdps(dps):
        u = np.array([mp.mpf(float(z.real)) for z in u0], dtype=object)
        inv_m = mp.mpf(1) / M
        for _ in range(N):
            u = u + R(u) * inv_m
    assert exact_real_digest(u) == digest


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
