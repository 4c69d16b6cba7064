"""Affine operator R, linear operator L, conversions, finite matrices."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sigcalc.operators import (
    R_op,
    SdeSpec,
    _Terms,
    black_scholes_spec,
    brownian_spec,
    expected_signature_matrix,
    linear_matrix,
)
from sigcalc.tensor import TensorCoeffs, all_words
from sigcalc import powerseries, schemes

from conftest import L_reference, R_reference, concat_exp, linear_to_riccati, random_tensor


def random_spec(rng, d, N, level_cap=None):
    """Random symmetric spec with coefficient support up to level_cap."""
    cap = level_cap if level_cap is not None else N
    b = []
    for _ in range(d):
        u = random_tensor(rng, d, N, scale=0.4, complex_=False)
        b.append(u.with_truncation(cap).with_truncation(N))
    a = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            u = random_tensor(rng, d, N, scale=0.3, complex_=False)
            u = u.with_truncation(cap).with_truncation(N)
            a[i][j] = u
            a[j][i] = u.copy()
    return SdeSpec(d=d, x0=np.zeros(d), b=b, a=a)


def test_brownian_R_gaussian_exponent(rng):
    # u supported on level 1 with weight vector gamma:
    # R(u) = (1/2) gamma^T cov gamma at the empty word, at N = 1 as well
    d = 2
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    for N in (1, 4):
        spec = brownian_spec(d, N, cov=cov)
        gamma = rng.normal(size=d) + 1j * rng.normal(size=d)
        u = TensorCoeffs.zero(d, N)
        for k in range(d):
            u[(k + 1,)] = gamma[k]
        out = R_op(u, spec)
        expect = 0.5 * gamma @ cov @ gamma
        assert abs(out[()] - expect) < 1e-12
        words = list(all_words(d, N))
        assert all(len(words[k]) == 0 for k in np.flatnonzero(out.coeffs))


def test_R_and_L_vanish_at_level_zero(rng):
    # at N = 0 every shift of the state is zero, so R = L = 0
    spec = random_spec(rng, 2, 0)
    u = random_tensor(rng, 2, 0)
    assert not R_op(u, spec).coeffs.any()
    assert not spec.field.linear.apply(u.coeffs).any()


def test_spec_characteristics_are_read_only(rng):
    # the compiled field is cached on the spec, so writing to a
    # characteristic after construction must fail rather than go stale
    d, N = 2, 3
    b = [TensorCoeffs.zero(d, N) for _ in range(d)]
    a = [[TensorCoeffs.unit(d, N) * float(i == j) for j in range(d)] for i in range(d)]
    spec = SdeSpec(d=d, x0=np.zeros(d), b=b, a=a)
    u = random_tensor(rng, d, N)
    before = R_op(u, spec)
    with pytest.raises(ValueError):
        spec.b[0][(1,)] = 1.0
    with pytest.raises(ValueError):
        spec.a[0][0].coeffs[0] = 2.0
    b[0][(1,)] = 1.0  # the caller's own tensors stay writable
    assert R_op(u, spec).allclose(before, tol=0.0)
    # a truncated copy compiles its own field
    low = spec.with_truncation(N - 1)
    assert low.field is not spec.field
    v = random_tensor(rng, d, N - 1)
    assert R_op(v, low).allclose(R_reference(v, low), tol=1e-13)


def test_R_minus_L_is_quadratic_term(rng):
    # R(u) - L(u) is the pure quadratic part: zero iff u has no level >= 1
    d, N = 2, 4
    spec = random_spec(rng, d, N, level_cap=2)
    scalar = TensorCoeffs.zero(d, N)
    scalar[()] = 1.3
    assert R_op(scalar, spec).allclose(L_reference(scalar, spec), tol=1e-14)
    # quadratic in u: R(t u) - L(t u) scales as t^2
    u = random_tensor(rng, d, N)
    q1 = R_op(u, spec) - L_reference(u, spec)
    q2 = R_op(2.0 * u, spec) - L_reference(2.0 * u, spec)
    assert q2.allclose(4.0 * q1, tol=1e-10)


def test_L_exp_identity(rng):
    # L(exp u) = exp(u) shuffle R(u); truncation clips the top two levels,
    # so the identity is exact at levels <= N-2
    d, N = 2, 5
    spec = random_spec(rng, d, N, level_cap=2)
    for _ in range(20):
        u = random_tensor(rng, d, N, scale=0.4, zero_scalar=True)
        lhs = TensorCoeffs(d, N, spec.field.linear.apply(u.shuffle_exp().coeffs))
        rhs = u.shuffle_exp().shuffle(R_op(u, spec))
        assert lhs.with_truncation(N - 2).allclose(
            rhs.with_truncation(N - 2), tol=1e-9
        )


@seed(20240817)
@settings(max_examples=40, deadline=None, database=None)
@given(d=st.integers(1, 3), data=st.data())
def test_field_matches_reference(d, data):
    # the compiled field against the term-by-term formulas, on full and
    # level-capped random specs and complex states
    N = data.draw(st.integers(0, 3 if d == 3 else 5), label="N")
    cap = data.draw(st.one_of(st.none(), st.integers(0, N)), label="level_cap")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spec = random_spec(rng, d, N, level_cap=cap)
    u = random_tensor(rng, d, N)
    for got, ref in ((R_op(u, spec).coeffs, R_reference),
                     (spec.field.linear.apply(u.coeffs), L_reference)):
        want = ref(u, spec).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want), initial=0.0)

    # linear_matrix columns are L on the basis words
    narrow = SdeSpec(
        d=d,
        x0=spec.x0,
        b=[c.with_truncation(min(N, 1)).with_truncation(N) for c in spec.b],
        a=[[c.with_truncation(min(N, 2)).with_truncation(N) for c in row] for row in spec.a],
    )
    G = linear_matrix(narrow, N)
    for k, w in enumerate(all_words(d, N)):
        col = L_reference(TensorCoeffs.basis(d, N, w), narrow).coeffs
        assert np.max(np.abs(G[:, k] - col)) <= 1e-13 * np.max(np.abs(col), initial=0.0)

    # L(exp u) = exp u sh R(u), exact at levels <= N - 2
    if N >= 2:
        v = random_tensor(rng, d, N, scale=0.4, zero_scalar=True)
        g = v.shuffle_exp()
        lhs = TensorCoeffs(d, N, spec.field.linear.apply(g.coeffs)).with_truncation(N - 2).coeffs
        rhs = g.shuffle(R_op(v, spec)).with_truncation(N - 2).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs), initial=1.0)


def test_poly_from_affine_recovers_L(rng):
    # the two-point affine combination of R reproduces L for any lam not 0
    # or 1: L(u) = lam/(lam-1) R(u) - 1/(lam (lam-1)) R(lam u)
    d, N = 2, 4
    spec = random_spec(rng, d, N, level_cap=2)
    for _ in range(10):
        u = random_tensor(rng, d, N)
        L_ref = L_reference(u, spec)
        for lam in (2.0, 3.5, -1.5):
            got = (lam / (lam - 1.0)) * R_op(u, spec) - (1.0 / (lam * (lam - 1.0))) * R_op(
                u * lam, spec
            )
            assert got.allclose(L_ref, tol=1e-9)


def test_linear_matrix_columns(rng):
    d, N = 2, 3
    spec = random_spec(rng, d, N, level_cap=2)
    # restrict supports per the finite-matrix preconditions
    spec = SdeSpec(
        d=d,
        x0=spec.x0,
        b=[c.with_truncation(1).with_truncation(N) for c in spec.b],
        a=[[c.with_truncation(2).with_truncation(N) for c in row] for row in spec.a],
    )
    G = linear_matrix(spec, N)
    for j, w in enumerate(all_words(d, N)):
        col = L_reference(TensorCoeffs.basis(d, N, w), spec).coeffs
        assert np.allclose(G[:, j], col, atol=1e-12)


def test_R_op_rejects_a_state_of_another_shape():
    spec = brownian_spec(2, 3)
    with pytest.raises(ValueError, match="dimension"):
        R_op(TensorCoeffs.zero(3, 3), spec)
    with pytest.raises(ValueError, match="truncation"):
        R_op(TensorCoeffs.zero(2, 2), spec)


def test_field_sizes_leave_R_unbuilt():
    # before R is compiled its quadratic terms read None; after, their count
    field = brownian_spec(2, 2).field
    assert field.sizes() == {"words": 7, "linear_terms": 2, "quadratic_terms": None}
    assert "riccati" not in field.__dict__
    field.riccati
    assert field.sizes() == {"words": 7, "linear_terms": 2, "quadratic_terms": 14}


def test_linear_matrix_rejects_wide_support(rng):
    d, N = 2, 3
    spec = random_spec(rng, d, N, level_cap=3)
    assert any(c.max_support_level() > 1 for c in spec.b) or any(
        c.max_support_level() > 2 for row in spec.a for c in row
    )
    with pytest.raises(ValueError):
        linear_matrix(spec, N)


def test_linear_matrix_builds_no_shuffle_table():
    # the support check reads word levels from level_offsets; a cold
    # tables(2, 8) alone costs about 0.2 s
    from sigcalc import tensor

    before = tensor.tables.cache_info()
    G = linear_matrix(black_scholes_spec(0.25, 1.3, 8), 8)
    assert G.shape == (511, 511)
    assert tensor.tables.cache_info() == before  # no call, not even a hit


def test_expected_signature_brownian_closed_form():
    # E[sig of d-dim BM at T] = concat-exp of (T/2) sum_k e_kk
    d, N, T = 2, 4, 0.7
    spec = brownian_spec(d, N)
    G = expected_signature_matrix(spec, N)
    e0 = np.zeros(G.shape[0])
    e0[0] = 1.0
    m = schemes.matrix_exp(G, T) @ e0
    gen = TensorCoeffs.zero(d, N)
    for k in range(d):
        gen[(k + 1, k + 1)] = T / 2.0
    expect = concat_exp(gen)
    assert np.allclose(m, expect.coeffs, atol=1e-12)


def test_expected_signature_bs_time_words():
    N, T = 3, 1.3
    spec = black_scholes_spec(sigma=0.2, s0=1.0, N=N)
    G = expected_signature_matrix(spec, N)
    e0 = np.zeros(G.shape[0])
    e0[0] = 1.0
    m = schemes.matrix_exp(G, T) @ e0
    out = TensorCoeffs(spec.d, N, m.astype(np.complex128))
    for k in range(N + 1):
        assert abs(out[(1,) * k] - T**k / math.factorial(k)) < 1e-10


def test_linear_to_riccati_roundtrip(rng):
    # scheme 3 trajectory + logarithmic transform reproduces the direct
    # Riccati flow where both exist; both routes truncate, so enough
    # truncation margin is needed for 1e-6 agreement
    d, N, T = 2, 7, 0.5
    cov = np.array([[1.0, 0.2], [0.2, 0.5]])
    spec = brownian_spec(d, N, cov=cov)
    u0 = TensorCoeffs.zero(d, N)
    u0[(1,)] = 0.2
    u0[(2,)] = -0.15
    G = linear_matrix(spec, N)
    c0 = u0.shuffle_exp()
    n_steps = 80
    times = np.linspace(0.0, T, n_steps + 1)
    c_states = []
    for t in times:
        c = schemes.matrix_exp(G, float(t)) @ c0.coeffs
        c_states.append(TensorCoeffs(d, N, c))
    psi_traj = linear_to_riccati(times, c_states, u0, spec)
    cfg = schemes.SchemeConfig(T=T, steps=400)
    # every state: route 1 (scheme1_riccati) keeps u_0 alone
    traj = schemes.ode_integrate(
        lambda y: R_op(TensorCoeffs(d, N, y), spec).coeffs, u0.coeffs, cfg
    )
    assert traj.status == "completed"
    err = np.max(np.abs(psi_traj[-1].coeffs - traj.states[-1]))
    assert err < 1e-6


# -- one evaluation of the compiled field ------------------------------------------

FIELDS = {
    "brownian-d2-N2": lambda: brownian_spec(2, 2).field,
    "brownian-d3-N4": lambda: brownian_spec(3, 4).field,
    "brownian-d1-K20": lambda: brownian_spec(1, 20).field,
    "black-scholes-N3": lambda: black_scholes_spec(0.3, 1.5, 3).field,
    "scalar-brownian-K20": lambda: powerseries.brownian_model(20).field,
    "scalar-brownian-K40": lambda: powerseries.brownian_model(40).field,
    "scalar-jacobi-K8": lambda: powerseries.jacobi_model(8).field,
}


@pytest.mark.parametrize("name", ["brownian-d2-N2", "black-scholes-N3", "scalar-jacobi-K8"])
def test_terms_apply_zero_fills_rows_without_a_term(name, rng):
    # L reaches no row of the top level (tensor) or of degree 0 (Jacobi)
    field = FIELDS[name]()
    terms, G = field.linear, field.matrix()
    assert len(terms.rows) < field.size
    missing = np.setdiff1d(np.arange(field.size), terms.rows)
    for y in (rng.normal(size=field.size), rng.normal(size=field.size) + 1j * rng.normal(size=field.size)):
        got = terms.apply(y)
        scale = np.abs(G).sum(axis=1).max() * np.abs(y).max()
        assert np.abs(got - G @ y).max() <= 1e-14 * scale
        assert np.all(got[missing] == 0)


@pytest.mark.parametrize("name", ["brownian-d2-N2", "black-scholes-N3", "scalar-jacobi-K8"])
def test_terms_apply_fills_rows_without_a_term_with_zeros_of_the_result_type(name, rng):
    # the kernel gives each such row, and the trailing 1's own, a zero-weight
    # term of the trailing 1: +0 of result_type(w, y), whatever y holds
    terms = FIELDS[name]().linear
    missing = np.setdiff1d(np.arange(terms.size), terms.rows)
    y = rng.normal(size=terms.size)
    y[::2] = np.nan
    for state in (y, y.astype(np.float32), y + 1j * rng.normal(size=terms.size)):
        got = terms.apply(state)
        dtype = np.result_type(terms.w, state)
        assert got.dtype == dtype
        assert got[missing].tobytes() == np.zeros(len(missing), dtype).tobytes()
        full = terms.kernel(np.append(state, 1.0))
        assert full.tobytes() == np.append(got, dtype.type(0)).tobytes()


def test_terms_apply_keeps_the_state_dtype(rng):
    # real models, on both paths: Brownian R reaches every row, the other
    # term sets leave rows without a term
    paths = set()
    for name in ("brownian-d2-N2", "black-scholes-N3", "scalar-jacobi-K8"):
        field = FIELDS[name]()
        for terms in (field.linear, field.riccati):
            paths.add(len(terms.rows) == field.size)
            y = rng.normal(size=field.size)
            assert terms.apply(y).dtype == np.float64
            assert terms.apply(y + 1j * rng.normal(size=field.size)).dtype == np.complex128
    assert paths == {True, False}


@pytest.mark.parametrize(
    "name", ["brownian-d2-N2", "brownian-d3-N4", "brownian-d1-K20", "scalar-brownian-K20",
             "scalar-brownian-K40"],
)
def test_terms_apply_full_rows_returns_a_new_array(name, rng):
    # the fields route 1 runs on: R has a term in every row, so its sums are
    # returned as they are; they must not alias the state or the weights
    field = FIELDS[name]()
    terms = field.riccati
    assert len(terms.rows) == field.size
    y = rng.normal(size=field.size) + 1j * rng.normal(size=field.size)
    out = terms.apply(y)
    assert out.shape == y.shape
    assert not np.shares_memory(out, y) and not np.shares_memory(out, terms.w)


# -- a stack of compiled fields ----------------------------------------------------

STACKED = [
    ("scalar-brownian-K20", "riccati"),
    ("brownian-d1-K20", "riccati"),
    ("scalar-jacobi-K8", "linear"),  # rows without a term: the zero-filling path
    ("black-scholes-N3", "riccati"),
]


def _stacked(names):
    terms = [getattr(FIELDS[name](), part) for name, part in names]
    bounds = np.cumsum([0] + [t.size for t in terms])
    return terms, _Terms.stack(terms), list(zip(bounds[:-1], bounds[1:]))


def test_stacked_apply_equals_each_fields_own_bit_for_bit(rng):
    terms, stack, bounds = _stacked(STACKED)
    y = rng.normal(size=stack.size)
    got = stack.apply(y)
    assert got.dtype == np.float64
    for t, (lo, hi) in zip(terms, bounds):
        assert np.array_equal(got[lo:hi], t.apply(y[lo:hi]))
    # a model with complex weights makes the stack's weights complex; on the
    # complex states route 1 integrates, the real blocks keep their bits
    K = 6
    skew = powerseries.Model1D(b=powerseries._poly(K, 0.3j, 0.5),
                               a=powerseries._poly(K, 1.0, 0.2), x0=0.0)
    terms.append(skew.field.riccati)
    bounds.append((stack.size, stack.size + K + 1))
    stack = _Terms.stack(terms)
    y = rng.normal(size=stack.size) + 1j * rng.normal(size=stack.size)
    got = stack.apply(y)
    for t, (lo, hi) in zip(terms, bounds):
        assert np.array_equal(got[lo:hi], t.apply(y[lo:hi]))


def test_stacked_apply_on_decimal_states_equals_each_fields_own():
    # the object path reads the stacked groups: every entry exact, in the
    # state's precision, as each field's own _apply_exact makes it
    terms, stack, bounds = _stacked(STACKED)
    rng = np.random.default_rng(7)
    with decimal.localcontext(decimal.Context(prec=40)):
        y = np.array([decimal.Decimal(x) for x in rng.normal(size=stack.size).tolist()],
                     dtype=object)
        got = stack.apply(y)
        for t, (lo, hi) in zip(terms, bounds):
            own = t.apply(y[lo:hi].copy())
            assert got.dtype == own.dtype == object
            assert list(got[lo:hi]) == list(own)
            assert all(type(a) is type(b) for a, b in zip(got[lo:hi], own))


def test_stack_keeps_multiplicities_past_2_63_exact(rng):
    # the d=1 field at K=67 holds Python-int multiplicities (C(67, 33) > 2^63),
    # so the stacked multiplicities are an object array; the K=4 block's stay
    # exact in it, and both blocks keep their bits and their exact sums
    terms = [brownian_spec(1, 67).field.riccati, powerseries.brownian_model(4).field.riccati]
    assert any(m.dtype == object for *_, m in terms[0]._groups)
    stack = _Terms.stack(terms)
    bounds = [(0, 68), (68, 73)]
    for y in (rng.normal(size=73) * 0.1, (rng.normal(size=73) + 1j * rng.normal(size=73)) * 0.1):
        got = stack.apply(y)
        for t, (lo, hi) in zip(terms, bounds):
            assert np.array_equal(got[lo:hi], t.apply(y[lo:hi]))
    with decimal.localcontext(decimal.Context(prec=40)):
        y = np.array([decimal.Decimal(x) for x in (rng.normal(size=73) * 0.1).tolist()],
                     dtype=object)
        got = stack.apply(y)
        for t, (lo, hi) in zip(terms, bounds):
            assert list(got[lo:hi]) == list(t._apply_exact(y[lo:hi].copy()))


def test_stack_of_one_field_is_that_field():
    t = FIELDS["brownian-d2-N2"]().riccati
    s = _Terms.stack([t])
    for name in ("k", "p", "q", "w", "starts", "rows", "_scale"):
        assert np.array_equal(getattr(s, name), getattr(t, name)), name


# -- the first rows of a field and the state they read -----------------------------

REACH = {
    "scalar-brownian-K160": lambda: powerseries.brownian_model(160).field.riccati,
    "brownian-d1-K67": lambda: brownian_spec(1, 67).field.riccati,  # multiplicities past 2^63
    "brownian-d2-N6": lambda: brownian_spec(2, 6).field.riccati,
    "brownian-d3-N4": lambda: brownian_spec(3, 4).field.riccati,
    "stack": lambda: _Terms.stack([brownian_spec(1, 67).field.riccati,
                                   FIELDS["scalar-jacobi-K8"]().linear,  # rows without a term
                                   FIELDS["black-scholes-N3"]().riccati]),
}


def reach_reference(terms):
    """reach by brute force over the raw terms: the entries each row reads,
    collected over the rows below r."""
    k, p, q, _, _ = terms._raw
    reads = [set() for _ in range(terms.size)]
    for kk, pp, qq in zip(k.tolist(), p.tolist(), q.tolist()):
        reads[kk].update(i for i in (pp, qq) if i < terms.size)  # the trailing 1 aside
    out, below = [0], set()
    for r in range(terms.size):
        below |= reads[r]
        out.append(1 + max(below, default=-1))
    return out


@pytest.mark.parametrize("name", REACH)
def test_reach_is_the_closure_of_the_raw_terms(name, rng):
    terms = REACH[name]()
    assert terms.reach.tolist() == reach_reference(terms)
    # the rows below r read no entry at or past reach[r]: NaN there changes none
    y = rng.normal(size=terms.size)
    for r in range(terms.size + 1):
        spoilt = y.copy()
        spoilt[terms.reach[r]:] = np.nan
        assert terms.apply(spoilt, r).tobytes() == terms.apply(y, r).tobytes()


@pytest.mark.parametrize("name", REACH)
def test_apply_of_the_first_rows_keeps_their_bits(name, rng):
    terms = REACH[name]()
    n = terms.size
    cuts = sorted({0, 1, 2, 3, n // 3, n // 2, n - 1, n})
    y = rng.normal(size=n) * 0.1
    y[::5] = 0.0  # entries the object path skips
    for state in (y, y + 1j * rng.normal(size=n) * 0.1):
        full = terms.apply(state)
        for r in cuts:
            part = terms.apply(state, r)
            assert part.dtype == full.dtype and part.tobytes() == full[:r].tobytes()
    with decimal.localcontext(decimal.Context(prec=40)):
        state = np.array([decimal.Decimal(x) for x in y.tolist()], dtype=object)
        full = terms.apply(state)
        for r in cuts:
            part = terms.apply(state, r)
            assert part.dtype == object
            assert [repr(x) for x in part] == [repr(x) for x in full[:r]]


class _Untouchable:
    """A state entry that raises on any arithmetic or comparison."""

    def _refuse(self, *args):
        raise AssertionError("an entry past reach[rows] was read")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = __bool__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __hash__ = None


@pytest.mark.parametrize("name", ["scalar-brownian-K160", "brownian-d1-K67", "brownian-d3-N4"])
def test_apply_of_the_first_rows_touches_no_entry_past_their_reach(name, rng):
    # the object path scales and tests for zero only y[:reach[rows]]
    terms = REACH[name]()
    n = terms.size
    with decimal.localcontext(decimal.Context(prec=40)):
        y = np.array([decimal.Decimal(x) for x in (rng.normal(size=n) * 0.1).tolist()],
                     dtype=object)
        y[1::4] = decimal.Decimal(0)
        full = terms.apply(y)
        checked = 0
        for rows in range(n + 1):
            r = terms.reach[rows]
            if r == n:
                break
            spoilt = y.copy()
            spoilt[r:] = [_Untouchable() for _ in range(n - r)]
            part = terms.apply(spoilt, rows)
            assert [repr(x) for x in part] == [repr(x) for x in full[:rows]]
            checked += 1
        assert checked >= 2


@pytest.mark.parametrize("rows", [-1, 22])
def test_apply_rejects_rows_outside_the_state(rows):
    terms = powerseries.brownian_model(20).field.riccati
    with pytest.raises(ValueError, match="outside 0..21"):
        terms.apply(np.zeros(21), rows)
