"""One-dimensional polynomial-diffusion calculus on truncated power series.

A state is a 1-D coefficient array u = (u_0, ..., u_K), K = len(u) - 1,
representing h_u(x) = sum u_k x^k.  Numeric series are complex128; object
arrays of extended-precision scalars (Decimal, mpf) pass through untouched.
The product is the Cauchy convolution, derivatives act as index shifts with
small integer weights (exact at any precision), and the quadratic/linear
operators mirror their tensor-algebra counterparts.  Each ``Model1D`` is
immutable and compiles once into a ``ScalarField``, the d=1, monomial-basis
counterpart of ``SdeSpec.field``: ``R_pow``, ``L_pow`` and
``linear_matrix_1d`` all read it, on float, complex and object states.  This
is the only scalar basis here: the signature (factorial) basis,
u_k -> k! u_k, is the d=1 case of ``sigcalc.tensor`` and
``sigcalc.operators``, reached through ``to_factorial_basis``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P


def to_factorial_basis(u: np.ndarray) -> np.ndarray:
    """Rescale u_k -> k! u_k (monomial to signature-coefficient basis)."""
    return u * np.array([math.factorial(k) for k in range(len(u))], dtype=np.float64)


def _read_only(c) -> np.ndarray:
    out = np.array(c, dtype=np.complex128)
    out.flags.writeable = False
    return out


def _poly(K: int, *c: float) -> np.ndarray:
    """c_0 + c_1 x + ... as a complex128 series truncated at degree K."""
    out = np.zeros(K + 1, dtype=np.complex128)
    out[: len(c)] = c
    return out


@dataclass(frozen=True, eq=False)
class Model1D:
    """Scalar polynomial diffusion: drift and squared-diffusion coefficients.

    The coefficients are stored as read-only complex128 copies; ``field``
    compiles them on first use.
    """

    b: np.ndarray
    a: np.ndarray
    x0: float
    name: str = "model"
    state_interval: tuple[float, float] | None = None

    def __post_init__(self):
        b, a = _read_only(self.b), _read_only(self.a)
        if len(b) != len(a):
            raise ValueError(f"mismatched truncations {len(b) - 1} vs {len(a) - 1}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        if self.state_interval is not None:
            lo, hi = self.state_interval
            if not lo <= self.x0 <= hi:
                raise ValueError(
                    f"x0={self.x0} lies outside the state interval [{lo}, {hi}] "
                    f"of {self.name}"
                )
            vals = P.polyval(np.linspace(lo, hi, 201), a)
            if np.max(np.abs(vals.imag)) > 0 or np.min(vals.real) < -1e-9:
                raise ValueError(
                    f"squared diffusion of {self.name} is negative on "
                    f"[{lo}, {hi}]"
                )

    @property
    def K(self) -> int:
        return len(self.b) - 1

    @cached_property
    def field(self) -> "ScalarField":
        return ScalarField(self)

    def with_truncation(self, K: int) -> "Model1D":
        """The model with b and a cut or zero-padded to degree K."""
        return Model1D(
            b=_poly(K, *self.b[: K + 1]),
            a=_poly(K, *self.a[: K + 1]),
            x0=self.x0,
            name=self.name,
            state_interval=self.state_interval,
        )


def _support(c: np.ndarray, scale: float = 1.0) -> tuple:
    """(index, value * scale) of each nonzero coefficient, the value a float
    when its imaginary part is zero."""
    out = []
    for i in np.flatnonzero(c):
        z = complex(c[i] * scale)
        out.append((int(i), z if z.imag else z.real))
    return tuple(out)


class ScalarField:
    """R and L of one scalar model, compiled over the monomial basis.

    With v = u' (v_k = (k+1) u_{k+1}) and u'' = v', R(u) = b v + (a/2)(u'' +
    v v) and L(u) = b v + (a/2) u'', products being Cauchy products.  The
    field holds the derivative weights, the nonzero coefficients of b and
    a/2, and the index pairs of the Cauchy square v v, each unordered pair
    once (p <= q, p + q <= K), sorted by output index.

    A state is a coefficient array of length K + 1; R and L return a new
    array, of the state's dtype when the model is real.  Float and complex
    arrays square with ``np.convolve`` and add each coefficient's shifted
    product, drift and diffusion parts apart.  Where the dense convolution of
    a coefficient series had only exact sums to form, one product per output
    or products by +-1/2 (Brownian motion, Jacobi), the bits are the same;
    otherwise they differ by a few ulps, since ``np.convolve`` may fuse its
    multiply-adds.  Object arrays (Decimal, mpf) form only the products of
    nonzero entries, each off-diagonal pair of the square once and doubled
    by an addition, and the coefficients enter converted exactly into the
    state's element type (Decimal refuses float operands); entries that no
    product reaches stay the int 0, so a real state stays real.
    """

    def __init__(self, model: Model1D):
        self.K = model.K
        self.weights = np.arange(1, self.K + 1)
        self.drift = _support(model.b)
        self.diffusion = _support(model.a, 0.5)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, q) of the square's terms v_p v_q, sorted by p + q, then p."""
        p, q = np.triu_indices(self.K)
        keep = p + q <= self.K
        p, q = p[keep], q[keep]
        order = np.argsort(p + q, kind="stable")
        return p[order], q[order]

    def apply(self, u: np.ndarray, quadratic: bool) -> np.ndarray:
        """R(u) when ``quadratic``, else L(u), on a coefficient array."""
        K, w = self.K, self.weights
        if len(u) != K + 1:
            raise ValueError(f"mismatched truncations {K} vs {len(u) - 1}")
        if u.dtype == object:
            return self._apply_exact(u, quadratic)
        v = np.empty_like(u)
        v[-1] = 0
        np.multiply(w, u[1:], out=v[:-1])
        if quadratic:
            s = np.convolve(v, v)[: K + 1]
        else:
            s = np.zeros_like(u)
        s[:-1] += w * v[1:]
        out = _shifted_sum(self.diffusion, s)
        if self.drift:
            out = _shifted_sum(self.drift, v) + out
        return out

    def _apply_exact(self, u: np.ndarray, quadratic: bool) -> np.ndarray:
        K, w = self.K, self.weights
        nz = np.flatnonzero(u != 0)
        if not nz.size:
            return np.zeros(K + 1, dtype=object)
        like = u[nz[0]]
        exact = (lambda c: c) if isinstance(like, (int, float)) else type(like)
        iv = nz[nz > 0] - 1  # support of v
        v = np.zeros(K + 1, dtype=object)
        v[iv] = w[iv] * u[iv + 1]
        i2 = iv[iv > 0] - 1  # support of u'', then of u'' + v v
        s = np.zeros(K + 1, dtype=object)
        s[i2] = w[i2] * v[i2 + 1]
        if quadratic:
            p, q = self.pairs
            on = np.zeros(K + 1, dtype=bool)
            on[iv] = True
            keep = on[p] & on[q]
            p, q = p[keep], q[keep]
            if p.size:
                prod = v[p] * v[q]
                off = p != q
                prod[off] = prod[off] + prod[off]
                n = p + q
                first = np.flatnonzero(np.diff(n, prepend=-1))
                rows = n[first]
                s[rows] = s[rows] + np.add.reduceat(prod, first)
                joined = np.zeros(K + 1, dtype=bool)
                joined[i2] = joined[rows] = True
                i2 = np.flatnonzero(joined)
        out = _shifted_sum_exact(self.diffusion, s, i2, exact)
        if self.drift:
            out = _shifted_sum_exact(self.drift, v, iv, exact) + out
        return out

    def linear_matrix(self) -> np.ndarray:
        """Matrix of L on the monomials 1, x, ..., x^K: column j holds L(x^j).

        Each entry is at most one drift product plus one diffusion product,
        with the derivative weights j and j (j - 1)."""
        K = self.K
        j = np.arange(K + 1)
        G = np.zeros((K + 1, K + 1), dtype=np.complex128)
        for terms, shift, weight in ((self.drift, 1, j), (self.diffusion, 2, j * (j - 1))):
            for i, c in terms:
                cols = j[(j >= shift) & (j + i - shift <= K)]
                G[cols + i - shift, cols] += c * weight[cols]
        return G if G.imag.any() else G.real.copy()


def _shifted_sum(terms: tuple, x: np.ndarray) -> np.ndarray:
    """Cauchy product of a sparse series, given as (index, value) terms,
    with x, by shift and add.  A term at index 0 starts the sum, which saves
    a zero array and an add on the float path's most frequent call."""
    if terms and terms[0][0] == 0:
        out, terms = terms[0][1] * x, terms[1:]
    else:
        out = np.zeros_like(x)
    for i, c in terms:
        out[i:] += c * x[: len(x) - i]
    return out


def _shifted_sum_exact(terms: tuple, x: np.ndarray, support: np.ndarray, exact) -> np.ndarray:
    """The same on an object array, over x's support, each value converted
    by ``exact``."""
    K = len(x) - 1
    out = np.zeros(K + 1, dtype=object)
    for i, c in terms:
        j = support[support <= K - i]
        out[j + i] = out[j + i] + exact(c) * x[j]
    return out


def R_pow(u: np.ndarray, m: Model1D) -> np.ndarray:
    """Quadratic operator in the monomial basis,
    b conv u' + (1/2) a conv (u'' + u' conv u'), read from the model's field."""
    return m.field.apply(u, quadratic=True)


def L_pow(u: np.ndarray, m: Model1D) -> np.ndarray:
    """Linear operator in the monomial basis: b conv u' + (1/2) a conv u''."""
    return m.field.apply(u, quadratic=False)


def exp_conv(u: np.ndarray) -> np.ndarray:
    """exp under the Cauchy product: coefficients of exp(h_u)."""
    K = len(u) - 1
    bar = u.copy()
    scalar = bar[0]
    bar[0] = 0.0
    acc = term = _poly(K, 1.0)
    for k in range(1, K + 1):
        term = np.convolve(term, bar)[: K + 1] * (1.0 / k)
        acc = acc + term
    return acc * np.exp(scalar)


def linear_matrix_1d(m: Model1D, K: int) -> np.ndarray:
    """Matrix of the linear operator on monomials 1, x, ..., x^K.

    Column j holds the coefficients of L_pow applied to x^j.
    """
    return (m if m.K == K else m.with_truncation(K)).field.linear_matrix()


# -- stock models ------------------------------------------------------------


def brownian_model(K: int, x0: float = 0.0) -> Model1D:
    return Model1D(b=_poly(K), a=_poly(K, 1.0), x0=x0, name="brownian")


def gbm_laplace_initial(c: float, y0: float, K: int) -> np.ndarray:
    """Exponent coefficients for E[exp(-c Y_T)], Y lognormal started at y0:
    h_u(x) = -c y0 e^x, so u_k = -c y0 / k!."""
    w = np.array([1.0 / math.factorial(k) for k in range(K + 1)])
    return (-c * y0 * w).astype(np.complex128)


def quartic_initial(K: int) -> np.ndarray:
    """Exponent coefficients of exp(-x^4/4!) in the monomial basis."""
    if K < 4:
        raise ValueError("quartic initial data needs K >= 4")
    return _poly(K, 0.0, 0.0, 0.0, 0.0, -1.0 / math.factorial(4))


def jacobi_model(K: int, x0: float = 0.5) -> Model1D:
    return Model1D(
        b=_poly(K), a=_poly(K, 0.0, 1.0, -1.0), x0=x0, name="jacobi",
        state_interval=(0.0, 1.0),
    )


def mgf_initial(c: float, K: int) -> np.ndarray:
    """Exponent coefficients of E[exp(c X_T)]: h_u(x) = c x."""
    out = _poly(K)
    out[1:2] = c  # nothing to set at K = 0
    return out
