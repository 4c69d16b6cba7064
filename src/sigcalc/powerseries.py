"""One-dimensional polynomial-diffusion calculus on truncated power series.

A state is a 1-D coefficient array u = (u_0, ..., u_K), K = len(u) - 1,
representing h_u(x) = sum u_k x^k.  Numeric series are complex128; object
arrays of extended-precision scalars (Decimal, mpf) pass through untouched.
The product is the Cauchy convolution, derivatives act as index shifts with
small integer weights (exact at any precision), and the quadratic/linear
operators mirror their tensor-algebra counterparts.  Each ``Model1D`` is
immutable and compiles once into the field ``SdeSpec`` compiles into, a
``QuadraticField`` of ``_Terms``, here over the monomial basis: ``R_pow``
(``model.field.riccati.apply``), L (``model.field.linear.apply``) and
``linear_matrix_1d`` read it as their tensor counterparts do, on float,
complex and object states.  This is the only scalar basis here: the
signature (factorial) basis, u_k -> k! u_k, is the d=1 case of
``sigcalc.tensor`` and ``sigcalc.operators``, reached through
``to_factorial_basis``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .operators import QuadraticField, _Terms


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
            vals = np.polyval(a[::-1], np.linspace(lo, hi, 201))
            if np.max(np.abs(vals.imag)) > 0 or np.min(vals.real) < -1e-9:
                raise ValueError(
                    f"squared diffusion of {self.name} is negative on "
                    f"[{lo}, {hi}]"
                )

    @property
    def K(self) -> int:
        return len(self.b) - 1

    @cached_property
    def field(self) -> QuadraticField:
        return QuadraticField(self.K + 1, partial(_scalar_terms, self.b, self.a))


def _scalar_terms(b: np.ndarray, a: np.ndarray, quadratic: bool) -> _Terms:
    """R, or L without ``quadratic``, of the scalar model with drift b and
    squared diffusion a as terms over the monomial basis.

    With v_j = (j+1) u_{j+1}, R(u) = b v + (a/2)(v' + v v), products being
    Cauchy products; the index weights are the derivative weights, z_n = n
    u_n = v_{n-1}.  At k = i + j, a nonzero b_i feeds b_i v_j and a nonzero
    a_i feeds (a_i/2)(j+1) v_{j+1}; at k = i + p + q, a_i feeds (a_i/2) v_p^2
    when p = q and a_i v_p v_q when p < q.
    """
    K = len(b) - 1
    half = a * 0.5

    def spread(c, shifts):
        """(i, n) for each nonzero c_i and each shifts[n] with i + shifts[n] <= K."""
        i = np.flatnonzero(c)
        at, n = np.nonzero(i[:, None] + shifts <= K)
        return i[at], n

    i, j = spread(b, np.arange(K))
    terms = [(i + j, j + 1, np.full_like(j, K + 1), np.ones_like(j), b[i])]
    i, j = spread(a, np.arange(K - 1))
    terms.append((i + j, j + 2, np.full_like(j, K + 1), j + 1, half[i]))
    if quadratic:
        p, q = np.triu_indices(K)
        i, n = spread(a, p + q)
        p, q = p[n], q[n]
        terms.append((i + p + q, p + 1, q + 1, np.ones_like(p), np.where(p == q, half[i], a[i])))
    return _Terms(*(np.concatenate(x) for x in zip(*terms)), np.arange(K + 1))


def R_pow(u: np.ndarray, m: Model1D) -> np.ndarray:
    """Quadratic operator in the monomial basis,
    b conv u' + (1/2) a conv (u'' + u' conv u'): ``m.field.riccati.apply``
    (route 2 takes ``m.field.riccati`` itself); its linear part
    b conv u' + (1/2) a conv u'' is ``m.field.linear.apply``."""
    return m.field.riccati.apply(u)


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


def linear_matrix_1d(m: Model1D) -> np.ndarray:
    """Matrix of the linear operator on monomials 1, x, ..., x^K, K = m.K.

    Column j holds the coefficients of L applied to x^j.
    """
    return m.field.matrix()


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


def mgf_initial_block(cs, K: int) -> np.ndarray:
    """Coefficients of exp(c x) through degree K, one column per c: a
    (K + 1, len(cs)) complex128 block for ``scheme3_linear``.  The recurrence
    t_0 = 1, t_k = t_(k-1) c (1/k) makes the operations that
    ``exp_conv(mgf_initial(c, K))`` makes on this exponent, so each column
    holds its bits."""
    c = np.asarray(cs, dtype=np.complex128)
    out = np.empty((K + 1, len(c)), dtype=np.complex128)
    out[0] = 1.0
    for k in range(1, K + 1):
        out[k] = out[k - 1] * c * (1.0 / k)
    return out
