"""d=1 power-sequence calculus and its factorial-basis twin."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from sigcalc.powerseries import (
    L_pow,
    L_sig,
    Model1D,
    R_pow,
    R_sig,
    Seq,
    binom_conv,
    brownian_model,
    cubic_interval_model,
    exp_conv,
    from_factorial_basis,
    gbm_laplace_initial,
    jacobi_model,
    linear_matrix_1d,
    log_conv,
    mgf_initial,
    quartic_initial,
    shifted_jacobi_model,
    to_factorial_basis,
    wright_fisher_model,
)
from sigcalc import schemes


def random_seq(rng, K, scale=0.5):
    return Seq(K, (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)) * scale)


def test_conv_matches_polynomial_product(rng):
    K = 12
    for _ in range(20):
        u = random_seq(rng, K)
        v = random_seq(rng, K)
        prod = P.polymul(u.coeffs, v.coeffs)[: K + 1]
        assert np.allclose(u.conv(v).coeffs, prod, atol=1e-12)


def test_brackets_match_polynomial_derivatives(rng):
    K = 10
    u = random_seq(rng, K)
    d1 = P.polyder(u.coeffs)
    d2 = P.polyder(u.coeffs, 2)
    assert np.allclose(u.bracket1().coeffs[:K], d1, atol=1e-12)
    assert np.allclose(u.bracket2().coeffs[: K - 1], d2, atol=1e-12)


def test_binom_conv_definition(rng):
    K = 8
    u = random_seq(rng, K)
    v = random_seq(rng, K)
    got = binom_conv(u, v).coeffs
    for n in range(K + 1):
        expect = sum(
            math.comb(n, k) * u.coeffs[k] * v.coeffs[n - k] for k in range(n + 1)
        )
        assert abs(got[n] - expect) < 1e-12


def test_factorial_basis_roundtrip(rng):
    K = 15
    u = random_seq(rng, K)
    assert np.allclose(from_factorial_basis(to_factorial_basis(u)).coeffs, u.coeffs)


def test_operator_twins_conjugate(rng):
    # the factorial-basis operators are the monomial ones conjugated by the
    # basis change
    K = 14
    model = Model1D(
        b=Seq.from_list([0.1, -0.4, 0.2], K=K),
        a=Seq.from_list([0.5, 0.1, 0.3], K=K),
        x0=0.0,
    )
    rng = np.random.default_rng(7)
    for _ in range(25):
        u = random_seq(rng, K)
        lhs = to_factorial_basis(R_pow(u, model))
        rhs = R_sig(to_factorial_basis(u), model)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)
        lhs_l = to_factorial_basis(L_pow(u, model))
        rhs_l = L_sig(to_factorial_basis(u), model)
        assert np.allclose(lhs_l.coeffs, rhs_l.coeffs, atol=1e-10)


def test_R_pow_brownian_closed_form(rng):
    # standard BM: R(theta delta_1) = theta^2/2 delta_0
    K = 6
    model = brownian_model(K)
    theta = 1.7 - 0.4j
    u = Seq.delta(1, K, theta)
    out = R_pow(u, model)
    expect = np.zeros(K + 1, dtype=complex)
    expect[0] = 0.5 * theta**2
    assert np.allclose(out.coeffs, expect)


def exp_series_oracle(coeffs):
    """Exponential of a power series via the ODE recursion E' = h' E."""
    K = len(coeffs) - 1
    out = np.zeros(K + 1, dtype=complex)
    out[0] = np.exp(coeffs[0])
    for n in range(1, K + 1):
        acc = 0.0 + 0.0j
        for k in range(1, n + 1):
            acc += k * coeffs[k] * out[n - k]
        out[n] = acc / n
    return out


def test_exp_conv_against_ode_recursion(rng):
    K = 12
    for _ in range(20):
        u = random_seq(rng, K)
        assert np.allclose(exp_conv(u).coeffs, exp_series_oracle(u.coeffs), atol=1e-10)


def test_exp_log_conv_roundtrip(rng):
    K = 12
    for _ in range(20):
        u = random_seq(rng, K)
        assert np.allclose(log_conv(exp_conv(u)).coeffs, u.coeffs, atol=1e-9)


def test_linear_matrix_1d_columns(rng):
    K = 9
    model = Model1D(
        b=Seq.from_list([0.2, -0.3, 0.15], K=K),
        a=Seq.from_list([0.4, 0.2, 0.1], K=K),
        x0=0.0,
    )
    G = linear_matrix_1d(model, K)
    for j in range(K + 1):
        col = L_pow(Seq.delta(j, K), model).coeffs
        assert np.allclose(G[:, j], col, atol=1e-12)


def test_jacobi_second_moment_closed_form():
    # dX = sqrt(X(1-X)) dW: E[X_T^2] = x0 + (x0^2 - x0) e^{-T}
    K, T, x0 = 6, 3.0, 0.5
    model = jacobi_model(K, x0=x0)
    G = linear_matrix_1d(model, K)
    c0 = np.zeros(K + 1)
    c0[2] = 1.0  # the monomial x^2
    c, value = schemes.scheme3_linear(G, c0, T, x0=x0)
    expect = x0 + (x0**2 - x0) * math.exp(-T)
    assert abs(value - expect) < 1e-12


def test_jacobi_moments_are_martingale_consistent():
    # first moment is preserved: L applied to x gives 0 drift at level 1
    K = 5
    model = jacobi_model(K)
    out = L_pow(Seq.delta(1, K), model)
    assert np.allclose(out.coeffs, 0.0)


def test_model_constructors_nonnegative_diffusion():
    for model, lo, hi in [
        (jacobi_model(8), 0.0, 1.0),
        (shifted_jacobi_model(8), -1.0, 0.0),
        (cubic_interval_model(8), 0.0, 1.0),
        (wright_fisher_model([0.3, -0.2], 8), 0.0, 1.0),
    ]:
        xs = np.linspace(lo, hi, 101)
        vals = model.a.eval(xs).real
        assert vals.min() > -1e-12


def test_model_rejects_negative_diffusion():
    K = 4
    with pytest.raises(ValueError):
        Model1D(
            b=Seq.zero(K),
            a=Seq.from_list([-0.1], K=K),
            x0=0.5,
            state_interval=(0.0, 1.0),
        )


def test_initial_data_constructors():
    K = 8
    u = gbm_laplace_initial(c=1.0, y0=1.0, K=K)
    for k in range(K + 1):
        assert abs(u.coeffs[k] + 1.0 / math.factorial(k)) < 1e-15
    q = quartic_initial(K)
    assert abs(q.coeffs[4] + 1.0 / 24.0) < 1e-15
    assert np.count_nonzero(q.coeffs) == 1
    m = mgf_initial(c=2.0, K=K)
    assert abs(m.coeffs[1] - 2.0) < 1e-15
    assert np.count_nonzero(m.coeffs) == 1


def test_model_json_roundtrip():
    model = jacobi_model(6, x0=0.25)
    back = Model1D.from_json(model.to_json())
    assert back.K == model.K and back.x0 == model.x0
    assert np.allclose(back.b.coeffs, model.b.coeffs)
    assert np.allclose(back.a.coeffs, model.a.coeffs)


def test_seq_object_dtype_passthrough():
    # extended-precision coefficients survive the operator pipeline
    from mpmath import mp, mpf

    K = 8
    model = brownian_model(K)
    with mp.workdps(50):
        u = Seq(K, np.array([mpf(0)] * 4 + [mpf(-1) / 24] + [mpf(0)] * 4, dtype=object))
        out = R_sig(to_factorial_basis_obj(u), model)
        assert out.coeffs.dtype == object
        ref = R_sig(to_factorial_basis(Seq.from_list([0, 0, 0, 0, -1.0 / 24], K=K)), model)
        got = np.array([complex(z) for z in out.coeffs])
        assert np.allclose(got, ref.coeffs, atol=1e-15)


@pytest.mark.parametrize("op", [R_sig, L_sig])
def test_real_mp_state_stays_real(op, rng):
    # a real model on a real mpmath state must not promote it to mpc, and
    # the result must agree with the complex128 path
    from mpmath import mp, mpf

    K = 12
    models = [brownian_model(K), wright_fisher_model([0.3, 0.7], K), cubic_interval_model(K)]
    vals = rng.normal(size=K + 1) * 0.5
    for model in models:
        with mp.workdps(40):
            u = Seq(K, np.array([mpf(float(x)) for x in vals], dtype=object))
            out = op(u, model).coeffs
            assert out.dtype == object
            assert not any(isinstance(z, mp.mpc) for z in out)
            assert all(isinstance(z, mp.mpf) for z in out if z != 0)
            stepped = u.coeffs + out * (mpf(1) / 7)
            assert all(isinstance(z, mp.mpf) for z in stepped)
        ref = op(Seq(K, vals), model).coeffs
        got = np.array([float(z) for z in out])
        assert np.allclose(got, ref.real, rtol=1e-13, atol=1e-13)


def test_mp_binom_conv_weights_exact_at_any_precision():
    # the first extended-precision convolution at a truncation may run at
    # low precision; later ones must still use the float64 weights exactly.
    # K=61 is used by no other test, so the first call below comes first.
    # C(61, 30) ~ 2.3e17 needs more than 37 bits (dps=10) and 53 bits.
    from mpmath import mp, mpf

    K = 61
    with mp.workdps(10):
        u = Seq(K, np.array([mpf(1) / (k + 3) for k in range(K + 1)], dtype=object))
        binom_conv(u, u)
    with mp.workdps(60):
        u = Seq(K, np.array([mpf(1) / (k + 3) for k in range(K + 1)], dtype=object))
        v = Seq(K, np.array([mpf(2) / (k + 7) for k in range(K + 1)], dtype=object))
        got = binom_conv(u, v).coeffs
        for n in (K, 40, 7):
            ref = 0
            for k in range(n + 1):
                ref = ref + (mpf(float(math.comb(n, k))) * u.coeffs[k]) * v.coeffs[n - k]
            assert got[n] == ref


def to_factorial_basis_obj(u):
    w = np.array([math.factorial(k) for k in range(u.K + 1)], dtype=object)
    return Seq(u.K, u.coeffs * w)
