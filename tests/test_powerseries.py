"""d=1 power-sequence calculus, and its image in the d=1 tensor algebra."""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from conftest import (
    L_pow_reference,
    R_pow_reference,
    cubic_interval_model,
    d1_image,
    delta,
    from_factorial_basis,
    series,
    shifted_jacobi_model,
    wright_fisher_model,
)
from sigcalc.operators import R_op
from sigcalc.powerseries import (
    Model1D,
    R_pow,
    brownian_model,
    exp_conv,
    gbm_laplace_initial,
    jacobi_model,
    linear_matrix_1d,
    mgf_initial,
    mgf_initial_block,
    quartic_initial,
    to_factorial_basis,
)
from sigcalc import schemes


def random_seq(rng, K, scale=0.5):
    return (rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)) * scale


def test_brackets_match_polynomial_derivatives(rng):
    # the field's derivative weights, read through L: with b = 1, a = 0 it
    # is d/dx, and for Brownian motion (1/2) d^2/dx^2
    K = 10
    u = random_seq(rng, K)
    first = Model1D(b=delta(0, K), a=series(K), x0=0.0)
    d1 = P.polyder(u)
    d2 = P.polyder(u, 2)
    assert np.allclose(first.field.linear.apply(u)[:K], d1, atol=1e-12)
    assert np.allclose(2.0 * brownian_model(K).field.linear.apply(u)[: K - 1], d2, atol=1e-12)


def test_factorial_basis_roundtrip(rng):
    K = 15
    u = random_seq(rng, K)
    assert np.allclose(from_factorial_basis(to_factorial_basis(u)), u)


@seed(20240817)
@settings(max_examples=60, deadline=None, database=None)
@given(K=st.integers(2, 20), data=st.data())
def test_scalar_calculus_is_the_d1_tensor_calculus(K, data):
    # R and L of the scalar field are R and L of the d=1 tensor field,
    # conjugated by u_k -> k! u_k
    support = st.sets(st.integers(0, K), max_size=K + 1)
    b_support, a_support = data.draw(support), data.draw(support)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def series(idx):
        c = np.zeros(K + 1)
        c[sorted(idx)] = rng.uniform(-1.0, 1.0, size=len(idx))
        return c

    model = Model1D(b=series(b_support), a=series(a_support), x0=0.0)
    spec, to_d1 = d1_image(model)
    u = random_seq(rng, K)
    for scalar, rhs in (
        (R_pow(u, model), R_op(to_d1(u), spec).coeffs),
        (model.field.linear.apply(u), spec.field.linear.apply(to_d1(u).coeffs)),
    ):
        lhs = to_factorial_basis(scalar)
        assert np.max(np.abs(rhs - lhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_R_pow_brownian_closed_form(rng):
    # standard BM: R(theta delta_1) = theta^2/2 delta_0
    K = 6
    model = brownian_model(K)
    theta = 1.7 - 0.4j
    u = delta(1, K, theta)
    out = R_pow(u, model)
    expect = np.zeros(K + 1, dtype=complex)
    expect[0] = 0.5 * theta**2
    assert np.allclose(out, expect)


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
        assert np.allclose(exp_conv(u), exp_series_oracle(u), atol=1e-10)


def test_mgf_initial_block_is_exp_conv_bit_for_bit(rng):
    # the series of exp(c x) by t_k = t_(k-1) c / k makes exp_conv's own
    # operations on the exponent c x: the default jacobi-mgf grid and random c
    K = 40
    for cs in (np.linspace(-3.0, 3.0, 25), rng.uniform(-5.0, 5.0, 40)):
        block = mgf_initial_block(list(cs), K)
        assert block.shape == (K + 1, len(cs)) and block.dtype == np.complex128
        for j, c in enumerate(cs):
            assert np.array_equal(block[:, j], exp_conv(mgf_initial(c, K)))


def test_linear_matrix_1d_columns(rng):
    K = 9
    model = Model1D(
        b=series(K, 0.2, -0.3, 0.15),
        a=series(K, 0.4, 0.2, 0.1),
        x0=0.0,
    )
    G = linear_matrix_1d(model)
    for j in range(K + 1):
        col = model.field.linear.apply(delta(j, K))
        assert np.allclose(G[:, j], col, atol=1e-12)


def test_jacobi_second_moment_closed_form():
    # dX = sqrt(X(1-X)) dW: E[X_T^2] = x0 + (x0^2 - x0) e^{-T}
    K, T, x0 = 6, 3.0, 0.5
    model = jacobi_model(K, x0=x0)
    G = linear_matrix_1d(model)
    c0 = np.zeros(K + 1)
    c0[2] = 1.0  # the monomial x^2
    c, value = schemes.scheme3_linear(G, c0, T, x0=x0)
    expect = x0 + (x0**2 - x0) * math.exp(-T)
    assert abs(value - expect) < 1e-12


def test_jacobi_moments_are_martingale_consistent():
    # first moment is preserved: L applied to x gives 0 drift at level 1
    K = 5
    model = jacobi_model(K)
    out = model.field.linear.apply(delta(1, K))
    assert np.allclose(out, 0.0)


def test_model_constructors_nonnegative_diffusion():
    for model, lo, hi in [
        (jacobi_model(8), 0.0, 1.0),
        (shifted_jacobi_model(8), -1.0, 0.0),
        (cubic_interval_model(8), 0.0, 1.0),
        (wright_fisher_model([0.3, -0.2], 8), 0.0, 1.0),
    ]:
        xs = np.linspace(lo, hi, 101)
        vals = P.polyval(xs, model.a).real
        assert vals.min() > -1e-12


def test_model_rejects_negative_diffusion():
    K = 4
    with pytest.raises(ValueError):
        Model1D(
            b=series(K),
            a=series(K, -0.1),
            x0=0.5,
            state_interval=(0.0, 1.0),
        )


@pytest.mark.parametrize("x0", [1.5, -0.1, float("nan")])
def test_model_rejects_x0_outside_state_interval(x0):
    # the two-point limit law of the Jacobi diffusion holds only on [0, 1]
    with pytest.raises(ValueError, match="outside the state interval"):
        jacobi_model(4, x0=x0)


def test_initial_data_constructors():
    K = 8
    u = gbm_laplace_initial(c=1.0, y0=1.0, K=K)
    for k in range(K + 1):
        assert abs(u[k] + 1.0 / math.factorial(k)) < 1e-15
    q = quartic_initial(K)
    assert abs(q[4] + 1.0 / 24.0) < 1e-15
    assert np.count_nonzero(q) == 1
    m = mgf_initial(c=2.0, K=K)
    assert abs(m[1] - 2.0) < 1e-15
    assert np.count_nonzero(m) == 1


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
    ref = R_pow(series(K, 0, 0, 0, 0, -1.0 / 24), model)
    for scalars in EXACT_SCALARS:
        context, scalar = scalars(50)
        with context:
            u = np.array([scalar(0)] * 4 + [scalar(-1) / 24] + [scalar(0)] * 4, dtype=object)
            out = R_pow(u, model)
        assert out.dtype == object
        got = np.array([complex(z) for z in out])
        assert np.allclose(got, ref, atol=1e-15)


@pytest.mark.parametrize(
    "op", [R_pow, lambda u, m: m.field.linear.apply(u)], ids=["R_pow", "L_pow"]
)
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
                u = np.array([scalar(float(x)) for x in vals], dtype=object)
                out = op(u, model)
                assert out.dtype == object
                # zeros never formed by a product stay the int 0
                assert all(isinstance(z, scalar) or (type(z) is int and z == 0) for z in out)
                assert all(isinstance(z, scalar) for z in out if z != 0)
                stepped = u + out * (scalar(1) / 7)
                assert all(isinstance(z, scalar) for z in stepped)
            ref = op(vals.astype(np.complex128), model)
            got = np.array([float(z) for z in out])
            assert np.allclose(got, ref.real, rtol=1e-13, atol=1e-13)


def _unit_roundoff(scalar):
    """Relative rounding unit of the current precision context of scalar."""
    import decimal

    from mpmath import mp

    if scalar is decimal.Decimal:
        return 10.0 ** (1 - decimal.getcontext().prec)
    return 2.0 ** (1 - mp.prec)


def _magnitude(model, u):
    """|b| |u'| + |a/2| (|u''| + |u'| |u'|): the size of R's terms."""
    absu = np.abs(np.array([complex(z) for z in u]))
    b, ah = np.abs(model.b), np.abs(model.a) * 0.5
    k = np.arange(1, len(u))
    v = np.append(k * absu[1:], 0.0)
    v2 = np.append(k * v[1:], 0.0)
    K = len(u) - 1
    return np.convolve(b, v)[: K + 1] + np.convolve(ah, v2 + np.convolve(v, v)[: K + 1])[: K + 1]


@seed(20240817)
@settings(max_examples=80, deadline=None, database=None)
@given(
    K=st.integers(0, 24),
    kind=st.sampled_from(["brownian", "jacobi", "sparse", "dense"]),
    rng_seed=st.integers(0, 2**32 - 1),
)
@example(K=0, kind="dense", rng_seed=1)
@example(K=0, kind="brownian", rng_seed=2)
@example(K=1, kind="sparse", rng_seed=3)
@example(K=1, kind="brownian", rng_seed=4)
@example(K=3, kind="sparse", rng_seed=1)  # misses if the weights are merged floats
def test_scalar_field_matches_reference(K, kind, rng_seed):
    # R, L and linear_matrix_1d read the compiled field; the reference is the
    # dense formula.  The field sums in another order, so on every model and
    # state R and L agree to a few units of roundoff in the size of the
    # summed terms, and the linear matrix, one product or two per entry,
    # gives the reference's bits.
    rng = np.random.default_rng(rng_seed)
    if kind == "brownian":
        model = brownian_model(K)
    elif kind == "jacobi":
        K = max(K, 2)
        model = jacobi_model(K)
    else:
        size = 2 if kind == "sparse" else K + 1
        b, a = np.zeros(K + 1), np.zeros(K + 1)
        b[rng.integers(0, K + 1, size=size)] = rng.uniform(-1.0, 1.0, size=size)
        a[rng.integers(0, K + 1, size=size)] = rng.uniform(-1.0, 1.0, size=size)
        b[rng.integers(0, K + 1)] = 0.25  # a nonzero drift
        model = Model1D(b=b, a=a, x0=0.0)
    vals = rng.normal(size=K + 1) + 1j * rng.normal(size=K + 1)
    states = [("float", vals.real, None), ("complex", vals, None)]
    states += [(scalars.__name__, vals.real, scalars) for scalars in EXACT_SCALARS]
    for name, x, scalars in states:
        context, scalar = scalars(40) if scalars else (contextlib.nullcontext(), None)
        with context:
            u = np.array([scalar(float(z)) for z in x], dtype=object) if scalar else x
            eps = _unit_roundoff(scalar) if scalar else 2.0**-53
            for op, ref_op in ((R_pow, R_pow_reference),
                               (lambda v, m: m.field.linear.apply(v), L_pow_reference)):
                got, ref = op(u, model), ref_op(u, model)
                assert len(got) == K + 1
                if not scalar:
                    ref = ref if np.iscomplexobj(x) else ref.real
                    assert got.dtype == ref.dtype, name
                    diff = np.abs(got - ref)
                else:
                    assert got.dtype == object
                    # entries no product reaches are the int 0 in both
                    assert [type(z) for z in got] == [type(z) for z in ref], name
                    diff = np.array([abs(float(g - r)) for g, r in zip(got, ref)])
                bound = 2 * (K + 2) * eps * _magnitude(model, u)
                assert np.all(diff <= bound), (name, ref_op.__name__, np.max(diff - bound))
    G = linear_matrix_1d(model)
    assert G.dtype == np.float64
    for j in range(K + 1):
        col = L_pow_reference(delta(j, K), model)
        assert np.array_equal(G[:, j], col.real), j


def test_model_coefficients_are_read_only():
    K = 6
    b = series(K, 0.1, -0.2)
    a = series(K, 1.0, 0.0, 0.5)
    model = Model1D(b=b, a=a, x0=0.0)
    for c in (model.b, model.a):
        assert c.dtype == np.complex128
        with pytest.raises(ValueError):
            c[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.b = b
    b[0] = 9.0  # the caller's series stays its own, and writable
    assert model.b[0] == 0.1
    field = model.field
    assert model.field is field
    u = series(3, 0.3, 0.2, -0.1, 0.05)
    fresh = Model1D(b=series(3, 0.1, -0.2), a=series(3, 1.0, 0.0, 0.5), x0=0.0)
    bound = 2 * (3 + 2) * 2.0**-53 * _magnitude(fresh, u)  # as for every model above
    assert np.all(np.abs(R_pow(u, fresh) - R_pow_reference(u, fresh)) <= bound)
    with pytest.raises(ValueError, match="mismatched truncations"):
        R_pow(u, model)
    with pytest.raises(ValueError, match="mismatched truncations"):
        Model1D(b=series(3), a=series(4), x0=0.0)
