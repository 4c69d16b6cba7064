"""Drift/diffusion characteristics on signature state and the induced
quadratic and linear coefficient operators.

A model is given by linear functionals of the running signature: drift
components b_i and a symmetric diffusion matrix a_ij, each a tensor
coefficient vector.  The quadratic operator drives Riccati-type equations for
exponential functionals; the linear operator drives the coefficient ODE for
expectations of linear functionals.  The two are linked: the linear operator
is recovered from the quadratic one through a two-point evaluation,
L(u) = lam/(lam-1) R(u) - 1/(lam (lam-1)) R(lam u) for lam not 0 or 1, and on
shuffle exponentials L(exp u) = exp(u) sh R(u).

Both operators are fixed sums of monomials in the coefficients, so each model
is compiled once into a ``QuadraticField`` of ``_Terms`` index arrays: R
(``R_op``, or ``spec.field.riccati.apply`` on the flat coefficients), L
(``spec.field.linear.apply``), the linear matrix and the expected-signature
generator all read that one field.  The scalar models of
``sigcalc.powerseries`` compile into the same field over the monomial basis,
so both calculi share one evaluation, on float, complex and object (Decimal,
mpf) states.  No right shift or shuffle of the state is taken at run time;
the shift-and-shuffle formula is the tests' reference for the field.  A
``SdeSpec`` is immutable, with read-only characteristics, so the field it
caches cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .tensor import TensorCoeffs, all_words, n_words, shuffle_word_pair


def _read_only(c: TensorCoeffs) -> TensorCoeffs:
    out = c.copy()
    out.coeffs.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SdeSpec:
    """d-dimensional model: drift vector and diffusion matrix functionals.

    The characteristics are stored as read-only copies; ``field`` compiles
    them on first use.
    """

    d: int
    x0: np.ndarray
    b: tuple[TensorCoeffs, ...]
    a: tuple[tuple[TensorCoeffs, ...], ...]

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=np.float64).ravel()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if len(self.x0) != self.d:
            raise ValueError("x0 must have d entries")
        if len(self.b) != self.d:
            raise ValueError("drift needs d components")
        if len(self.a) != self.d or any(len(row) != self.d for row in self.a):
            raise ValueError("diffusion must be a d x d matrix of functionals")
        N = self.b[0].N
        if any(c.d != self.d or c.N != N for row in (self.b, *self.a) for c in row):
            raise ValueError("all characteristics must share (d, N)")
        for i in range(self.d):
            for j in range(self.d):
                if not self.a[i][j].allclose(self.a[j][i], tol=0.0):
                    raise ValueError("diffusion matrix must be symmetric")
        object.__setattr__(self, "b", tuple(_read_only(c) for c in self.b))
        object.__setattr__(
            self, "a", tuple(tuple(_read_only(c) for c in row) for row in self.a)
        )

    @property
    def N_alg(self) -> int:
        return self.b[0].N

    @cached_property
    def field(self) -> "QuadraticField":
        return QuadraticField(n_words(self.d, self.N_alg), partial(_tensor_terms, self.b, self.a))

    def with_truncation(self, N: int) -> "SdeSpec":
        return SdeSpec(
            d=self.d,
            x0=self.x0,
            b=[c.with_truncation(N) for c in self.b],
            a=[[c.with_truncation(N) for c in row] for row in self.a],
        )


def brownian_spec(d: int, N: int, cov: np.ndarray | None = None) -> SdeSpec:
    """Driftless model with constant diffusion matrix (default identity)."""
    if cov is None:
        cov = np.eye(d)
    cov = np.asarray(cov, dtype=np.float64)
    b = [TensorCoeffs.zero(d, N) for _ in range(d)]
    a = [[TensorCoeffs.unit(d, N) * cov[i, j] for j in range(d)] for i in range(d)]
    return SdeSpec(d=d, x0=np.zeros(d), b=b, a=a)


def black_scholes_spec(sigma: float, s0: float, N: int) -> SdeSpec:
    """Time-extended lognormal diffusion: letter 1 is time, letter 2 the asset.

    The squared volatility sigma^2 S_t^2 is expressed through the running
    signature as sigma^2 (2 <e_22, X> + 2 s0 <e_2, X> + s0^2).
    """
    d = 2
    b1 = TensorCoeffs.unit(d, N)
    b2 = TensorCoeffs.zero(d, N)
    a22 = TensorCoeffs.zero(d, N)
    a22[()] = sigma**2 * s0**2
    if N >= 1:
        a22[(2,)] = 2.0 * sigma**2 * s0
    if N >= 2:
        a22[(2, 2)] = 2.0 * sigma**2
    zero = TensorCoeffs.zero(d, N)
    return SdeSpec(
        d=d, x0=np.array([0.0, s0]), b=[b1, b2], a=[[zero, zero.copy()], [zero.copy(), a22]]
    )


_ONE = np.ones(1)  # the trailing 1 that linear terms read
_COMPLEX = np.dtype(np.complex128)


class _Terms:
    """Monomials m c z_p z_q adding to output word k: an integer multiplicity
    m times a model coefficient c, on z = s u, the state scaled by integer
    index weights s.  The state is read with a trailing 1, weight 1, so
    linear terms take q = size.

    Float and complex states read the weights w = m c s_p s_q, rounded once
    to float and merged per (k, p <= q); the result has the dtype of w and
    the state together.  m stays exact: int64, or Python ints past 2^63 (at
    d=1 the multiplicities are binomials, and C(67, 33) > 2^63).
    Object states (Decimal, mpf) read the terms per coefficient: only the
    products of nonzero entries are formed, m z_p z_q is summed per k in the
    state's precision and multiplied by c converted exactly into the state's
    type (Decimal refuses floats).  Entries no product reaches stay the int
    0, so a real state stays real.  The terms, sorted, stay in ``_raw``, which
    ``stack`` lays end to end.

    ``reach[r]`` is 1 plus the largest state entry, the trailing 1 aside,
    that the rows below r read (0 when they read none): ``apply(y, rows)``
    returns the first ``rows`` rows, which need y only below
    ``reach[rows]``, with the bits of ``apply(y)``'s.  On object states it
    sums only those rows' terms, a prefix of the k-sorted terms.

    ``kernel``, compiled on first use, sums every row at a float or complex
    state that already carries its trailing 1, the trailing 1's own row
    included: a row without a term, and that one, reads a zero-weight term
    of the trailing 1, so one ``reduceat`` fills the whole output and the
    trailing row's derivative is exactly 0.  Route 1 steps its states of
    size + 1 entries on it, and ``apply`` on float and complex states runs
    it on y with a 1 appended.
    """

    def __init__(self, k, p, q, m, c, scale):
        k, p, q = (np.asarray(x, dtype=np.int64) for x in (k, p, q))
        big = max(m, default=0) >= 2**63
        m = np.array(m, dtype=object) if big else np.asarray(m, dtype=np.int64)
        c = np.asarray(c, dtype=np.complex128)
        p, q = np.minimum(p, q), np.maximum(p, q)  # u_p u_q = u_q u_p
        order = np.lexsort((q, p, k))
        k, p, q, m, c = self._raw = k[order], p[order], q[order], m[order], c[order]
        s = np.append(np.asarray(scale, dtype=np.int64), 1)
        size = len(s) - 1
        top = np.full(size + 1, -1)  # top[k + 1]: the last entry row k reads
        np.maximum.at(top, k + 1, np.where(q < size, q, np.where(p < size, p, -1)))
        self.reach = np.maximum.accumulate(top) + 1
        self._scale = s.astype(object)
        group = np.unique(c, return_inverse=True)[1]
        by = np.argsort(group, kind="stable")  # keeps each group sorted by k
        self._groups = []
        for o in np.split(by, np.flatnonzero(np.diff(group[by], prepend=-1)))[1:]:
            z = complex(c[o[0]])  # a float when real: Decimal takes no complex
            self._groups.append((z if z.imag else z.real, k[o], p[o], q[o], m[o]))
        first = np.flatnonzero(np.diff(np.stack([k, p, q]), axis=1, prepend=-1).any(axis=0))
        w = np.add.reduceat(c * (m * s[p] * s[q]).astype(np.float64), first)
        self.k, self.p, self.q = k[first], p[first], q[first]
        self.w = w if w.imag.any() else w.real.copy()
        self.starts = np.flatnonzero(np.diff(self.k, prepend=-1))
        self.rows = self.k[self.starts]

    @property
    def size(self) -> int:
        """Entries of the state the terms read."""
        return len(self._scale) - 1

    @classmethod
    def stack(cls, terms: list[_Terms]) -> _Terms:
        """The block-diagonal field of independent fields, read on their
        states laid end to end: each block's raw terms are offset by the
        sizes before it, its linear terms read the stack's one trailing 1,
        and the constructor compiles the lot.  The blocks share no output
        row and the sort is stable, so each block keeps its merged weights,
        row segments and groups, and its entries of ``apply`` carry the bits
        of its own field's on complex and object states.  On a float state
        that holds when every block's weights are real: a block summed in
        the complex arithmetic of another's weights rounds differently."""
        offsets = np.cumsum([0] + [t.size for t in terms]).tolist()
        one = offsets[-1]  # the stack's trailing 1

        def block(t, off):
            k, p, q, m, c = t._raw
            return (k + off, *(np.where(i == t.size, one, i + off) for i in (p, q)), m, c)

        raw = zip(*(block(t, off) for t, off in zip(terms, offsets)))
        return cls(*map(np.concatenate, raw), np.concatenate([t._scale[:-1] for t in terms]))

    @cached_property
    def kernel(self) -> Callable[[np.ndarray], np.ndarray]:
        """The terms summed at a float or complex state ue of size + 1
        entries, the last of them 1: every row, the trailing one (always 0)
        included.  One gather reads p and q, and each row sums the products
        w u_p u_q of its terms in their sorted order.  No check."""
        one = self.size
        # rows without a term, the trailing row among them (np.setdiff1d would
        # import numpy.ma, about 0.9 MB of resident memory)
        empty = np.flatnonzero(np.bincount(self.rows, minlength=one + 1) == 0)
        k = np.concatenate((self.k, empty))
        order = np.argsort(k, kind="stable")  # each row's terms stay in order
        p, q = (np.concatenate((i, np.full(len(empty), one)))[order] for i in (self.p, self.q))
        w = np.concatenate((self.w, np.zeros(len(empty), self.w.dtype)))[order]
        pq, starts = np.concatenate((p, q)), np.flatnonzero(np.diff(k[order], prepend=-1))
        lo, hi = slice(None, len(k)), slice(len(k), None)
        # numpy casts real weights to complex for a complex state anyway:
        # cast once, same bits; a float state reads the real view of the cast
        wc, reduceat = w.astype(np.complex128, copy=False), np.add.reduceat
        w = w if np.iscomplexobj(w) else wc.real

        def kernel(ue: np.ndarray) -> np.ndarray:
            g = ue[pq]
            return reduceat((wc if ue.dtype is _COMPLEX else w) * g[lo] * g[hi], starts)

        return kernel

    def apply(self, y: np.ndarray, rows: int | None = None) -> np.ndarray:
        """Sum the terms at the state y: every row, or the first ``rows``."""
        if len(y) != self.size:
            raise ValueError(f"mismatched truncations {self.size - 1} vs {len(y) - 1}")
        if rows is not None and not 0 <= rows <= self.size:
            raise ValueError(f"rows {rows} outside 0..{self.size}")
        if y.dtype == object:
            return self._apply_exact(y, rows)
        return self.kernel(np.concatenate((y, _ONE)))[: self.size if rows is None else rows]

    def _apply_exact(self, y: np.ndarray, rows: int | None = None) -> np.ndarray:
        rows = len(y) if rows is None else rows
        r = int(self.reach[rows])  # the rows below read only y[:r] and the 1
        z = np.empty(len(y) + 1, dtype=object)
        z[:r], z[-1] = self._scale[:r] * y[:r], 1
        on = np.zeros(len(z), dtype=bool)
        on[:r], on[-1] = z[:r] != 0, True
        out = np.zeros(rows, dtype=object)
        like = y[on[:r].argmax() if r else 0]  # a nonzero entry, if there is one
        exact = (lambda c: c) if isinstance(like, (int, float)) else type(like)
        for c, k, p, q, m in self._groups:
            t = np.searchsorted(k, rows)
            if not t:  # no term of this coefficient in the rows below
                continue
            k, p, q, m = k[:t], p[:t], q[:t], m[:t]
            keep = on[p] & on[q]
            k, m = k[keep], m[keep]
            prod = z[p[keep]] * z[q[keep]]
            big = m != 1
            prod[big] = m[big] * prod[big]
            first = np.flatnonzero(np.diff(k, prepend=-1))
            out[k[first]] = out[k[first]] + exact(c) * np.add.reduceat(prod, first)
        return out


class QuadraticField:
    """R and L of one model as ``_Terms`` over a basis of ``size`` entries:
    ``build(quadratic)`` returns the terms of R, or of L without
    ``quadratic``; R's, which L and the linear matrix never need, on first use.
    """

    def __init__(self, size: int, build):
        self.size = size
        self._build = build
        self.linear = build(quadratic=False)

    @cached_property
    def riccati(self) -> _Terms:
        """Linear and quadratic terms together: the whole of R."""
        return self._build(quadratic=True)

    def matrix(self) -> np.ndarray:
        """Matrix of L on the basis: column p holds L(e_p)."""
        G = np.zeros((self.size, self.size), dtype=self.linear.w.dtype)
        G[self.linear.k, self.linear.p] = self.linear.w  # merged: one per (k, p)
        return G

    def sizes(self) -> dict:
        """Basis size, linear terms and quadratic terms: what one call of R
        costs.  Quadratic terms are None until R is built; sizes builds none."""
        riccati = self.__dict__.get("riccati")  # the cached_property's slot
        return {
            "words": self.size,
            "linear_terms": len(self.linear.w),
            "quadratic_terms": None if riccati is None else len(riccati.w) - len(self.linear.w),
        }


def _tensor_terms(b: tuple, a: tuple, quadratic: bool) -> _Terms:
    """R, or L without ``quadratic``, of the model with drift b and diffusion
    a as terms over the word basis.

    With u1_i the right shift by letter i and u2_ji the shift by the suffix
    (i, j), R(u) = sum_i b_i sh u1_i + (1/2) sum_ij a_ij sh (u2_ji + u1_j sh
    u1_i).  Expanding the shuffles word by word turns this into terms
    (k, p, q, m, c), each adding m c u_p u_q to word k.  A nonzero word c of
    b_i feeds c sh p from the input word p.i; a word c of a_ij feeds
    (1/2) c sh p from p.i.j and (1/2) c sh (p sh q) from the pair
    (p.j, q.i).
    """
    d, N = len(b), b[0].N
    words = list(all_words(d, N))
    index = {w: k for k, w in enumerate(words)}
    one = len(words)
    terms = []  # (k, p, q, m, c)

    def prefix(n: int) -> list:
        """Words of length <= n (none for n < 0)."""
        return words[: n_words(d, n)] if n >= 0 else []

    def support(coef: TensorCoeffs):
        return [(words[n], coef.coeffs[n]) for n in np.flatnonzero(coef.coeffs)]

    def linear(coef: TensorCoeffs, suffix: tuple, scale: float):
        for cw, cv in support(coef):
            for pw in prefix(min(N - len(suffix), N - len(cw))):
                col = index[pw + suffix]
                for s, mult in shuffle_word_pair(cw, pw):
                    terms.append((index[s], col, one, mult, scale * cv))

    def pairs(coef: TensorCoeffs, i: int, j: int):
        for cw, cv in support(coef):
            room = N - len(cw)
            for pw in prefix(min(N - 1, room)):
                left = index[pw + (j,)]
                for qw in prefix(min(N - 1, room - len(pw))):
                    right = index[qw + (i,)]
                    for s, m1 in shuffle_word_pair(pw, qw):
                        for t, m2 in shuffle_word_pair(cw, s):
                            terms.append((index[t], left, right, m1 * m2, 0.5 * cv))

    for i in range(1, d + 1):
        linear(b[i - 1], (i,), 1.0)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            linear(a[i - 1][j - 1], (i, j), 0.5)
            if quadratic:
                pairs(a[i - 1][j - 1], i, j)
    return _Terms(*(zip(*terms) if terms else [()] * 5), np.ones(one))


def R_op(u: TensorCoeffs, spec: SdeSpec) -> TensorCoeffs:
    """Quadratic operator b.u1 + (1/2) tr(a sh (u2 + u1 u1^T))."""
    if u.d != spec.d:
        raise ValueError("element and model disagree in dimension")
    if u.N != spec.N_alg:
        raise ValueError("element and characteristics disagree in truncation")
    return TensorCoeffs(u.d, u.N, spec.field.riccati.apply(u.coeffs))


def linear_field(spec: SdeSpec, N: int) -> QuadraticField:
    """The field of ``spec`` at truncation N, once its linear operator is
    checked to stay inside the truncation: drift entries supported on words
    of length <= 1 and diffusion entries on length <= 2."""
    sp = spec if spec.N_alg == N else spec.with_truncation(N)
    for i in range(1, spec.d + 1):
        for name, coef, cap in [(f"drift component {i}", sp.b[i - 1], 1)] + [
            (f"diffusion entry ({i},{j})", sp.a[i - 1][j - 1], 2) for j in range(1, spec.d + 1)
        ]:
            if (lvl := coef.max_support_level()) > cap:
                raise ValueError(f"{name} involves a word of length {lvl}; "
                                 "the linear operator would leave the truncation")
    return sp.field


def linear_matrix(spec: SdeSpec, N: int) -> np.ndarray:
    """Matrix of L on the word basis of levels 0..N, read off the terms of
    ``linear_field(spec, N)``: column k holds the coefficients of L(e_k)."""
    return linear_field(spec, N).matrix()


def expected_signature_matrix(spec: SdeSpec, N: int) -> np.ndarray:
    """Generator of the expected-signature flow: transpose of linear_matrix.

    The expected truncated signature solves m'(t) = G^T m(t), m(0) = e_0.
    """
    return linear_matrix(spec, N).T.copy()
