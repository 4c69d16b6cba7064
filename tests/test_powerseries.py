"""d=1 power-sequence calculus, and its image in the d=1 tensor algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from conftest import d1_image
from sigcalc.operators import L_op, R_op
from sigcalc.powerseries import (
    L_pow,
    Model1D,
    R_pow,
    Seq,
    brownian_model,
    cubic_interval_model,
    exp_conv,
    from_factorial_basis,
    gbm_laplace_initial,
    jacobi_model,
    linear_matrix_1d,
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


def test_factorial_basis_roundtrip(rng):
    K = 15
    u = random_seq(rng, K)
    assert np.allclose(from_factorial_basis(to_factorial_basis(u)).coeffs, u.coeffs)


@seed(20240817)
@settings(max_examples=60, deadline=None, database=None)
@given(K=st.integers(2, 20), data=st.data())
def test_scalar_calculus_is_the_d1_tensor_calculus(K, data):
    # R_pow and L_pow are R_op and L_op at d=1, conjugated by u_k -> k! u_k
    support = st.sets(st.integers(0, K), max_size=K + 1)
    b_support, a_support = data.draw(support), data.draw(support)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def series(idx):
        c = np.zeros(K + 1)
        c[sorted(idx)] = rng.uniform(-1.0, 1.0, size=len(idx))
        return Seq(K, c)

    model = Model1D(b=series(b_support), a=series(a_support), x0=0.0)
    spec, to_d1 = d1_image(model)
    u = random_seq(rng, K)
    for pow_op, op in ((R_pow, R_op), (L_pow, L_op)):
        lhs = to_factorial_basis(pow_op(u, model)).coeffs
        rhs = op(to_d1(u), spec).coeffs
        assert np.max(np.abs(rhs - lhs)) <= 1e-12 * np.max(np.abs(lhs))


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


def _mpf_scalars(dps):
    from mpmath import mp, mpf

    return mp.workdps(dps), mpf


def _decimal_scalars(dps):
    import decimal

    return decimal.localcontext(decimal.Context(prec=dps)), decimal.Decimal


# each returns a precision context and the real scalar type, which converts
# a float exactly
EXACT_SCALARS = (_mpf_scalars, _decimal_scalars)


def test_seq_object_dtype_passthrough():
    # extended-precision coefficients survive the operator pipeline
    K = 8
    model = brownian_model(K)
    ref = R_pow(Seq.from_list([0, 0, 0, 0, -1.0 / 24], K=K), model)
    for scalars in EXACT_SCALARS:
        context, scalar = scalars(50)
        with context:
            u = Seq(K, np.array([scalar(0)] * 4 + [scalar(-1) / 24] + [scalar(0)] * 4, dtype=object))
            out = R_pow(u, model)
        assert out.coeffs.dtype == object
        got = np.array([complex(z) for z in out.coeffs])
        assert np.allclose(got, ref.coeffs, atol=1e-15)


@pytest.mark.parametrize("op", [R_pow, L_pow])
def test_real_mp_state_stays_real(op, rng):
    # a real model on a real extended-precision state (mpf, Decimal) must
    # not promote it to a complex type, and the result must agree with the
    # complex128 path; Wright-Fisher's drift (0.3, 0.4, -0.7 in binary)
    # enters each product converted exactly, which Decimal, refusing float
    # operands, needs
    K = 12
    models = [brownian_model(K), wright_fisher_model([0.3, 0.7], K), cubic_interval_model(K)]
    vals = rng.normal(size=K + 1) * 0.5
    for scalars in EXACT_SCALARS:
        for model in models:
            context, scalar = scalars(40)
            with context:
                u = Seq(K, np.array([scalar(float(x)) for x in vals], dtype=object))
                out = op(u, model).coeffs
                assert out.dtype == object
                # zeros never formed by a product stay the int 0
                assert all(isinstance(z, scalar) or (type(z) is int and z == 0) for z in out)
                assert all(isinstance(z, scalar) for z in out if z != 0)
                stepped = u.coeffs + out * (scalar(1) / 7)
                assert all(isinstance(z, scalar) for z in stepped)
            ref = op(Seq(K, vals), model).coeffs
            got = np.array([float(z) for z in out])
            assert np.allclose(got, ref.real, rtol=1e-13, atol=1e-13)
