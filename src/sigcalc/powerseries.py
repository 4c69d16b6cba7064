"""One-dimensional polynomial-diffusion calculus on truncated power series.

States are monomial coefficient sequences u = (u_0, ..., u_K) representing
h_u(x) = sum u_k x^k.  The product is the Cauchy convolution, derivatives act
as index shifts with small integer weights (exact at any precision), and the
quadratic/linear operators mirror their tensor-algebra counterparts.  This is
the only scalar basis here: the signature (factorial) basis, u_k -> k! u_k,
is the d=1 case of ``sigcalc.tensor`` and ``sigcalc.operators``, reached
through ``to_factorial_basis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _real_if_exact(c: np.ndarray) -> np.ndarray:
    """Real part of a complex array whose imaginary part is all zero."""
    if c.dtype.kind == "c" and not np.any(c.imag):
        return c.real
    return c


def _exactly_as(c: np.ndarray, like) -> np.ndarray:
    """A float array as objects of the type of ``like``, each entry converted
    exactly (Decimal(float) and mpf(float) are exact; Decimal refuses float
    operands).  Other arrays, and ``like`` a Python number, pass through."""
    if c.dtype.kind != "f" or isinstance(like, (int, float)):
        return c
    return np.array([type(like)(x) for x in c.tolist()], dtype=object)


@dataclass
class Seq:
    """Coefficient sequence truncated at degree K."""

    K: int
    coeffs: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("truncation degree must be >= 0")
        if self.coeffs is None:
            self.coeffs = np.zeros(self.K + 1, dtype=np.complex128)
        else:
            self.coeffs = np.asarray(self.coeffs)
            if self.coeffs.dtype != object:
                # object arrays (e.g. extended-precision scalars) pass through
                self.coeffs = self.coeffs.astype(np.complex128)
            if self.coeffs.shape != (self.K + 1,):
                raise ValueError(
                    f"expected {self.K + 1} coefficients, got {self.coeffs.shape}"
                )

    @classmethod
    def zero(cls, K: int) -> "Seq":
        return cls(K)

    @classmethod
    def delta(cls, k: int, K: int, value: complex = 1.0) -> "Seq":
        if not 0 <= k <= K:
            raise ValueError(f"index {k} outside 0..{K}")
        out = cls(K)
        out.coeffs[k] = value
        return out

    @classmethod
    def from_list(cls, values, K: int | None = None) -> "Seq":
        values = np.asarray(values, dtype=np.complex128)
        if K is None:
            K = len(values) - 1
        out = cls(K)
        m = min(len(values), K + 1)
        out.coeffs[:m] = values[:m]
        return out

    def copy(self) -> "Seq":
        return Seq(self.K, self.coeffs.copy())

    def with_truncation(self, K: int) -> "Seq":
        out = Seq(K)
        m = min(K, self.K) + 1
        out.coeffs[:m] = self.coeffs[:m]
        return out

    def _check(self, other: "Seq"):
        if self.K != other.K:
            raise ValueError(f"mismatched truncations {self.K} vs {other.K}")

    def __add__(self, other: "Seq") -> "Seq":
        self._check(other)
        return Seq(self.K, self.coeffs + other.coeffs)

    def __sub__(self, other: "Seq") -> "Seq":
        self._check(other)
        return Seq(self.K, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "Seq":
        return Seq(self.K, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Seq":
        return Seq(self.K, -self.coeffs)

    def conv(self, other: "Seq") -> "Seq":
        """Cauchy product truncated at degree K.

        When either factor holds objects (extended-precision scalars), only
        the products of nonzero pairs with index sum <= K are formed, a
        complex factor with zero imaginary part enters as real, so a real
        state stays real, and a real float factor enters converted exactly
        to the other factor's element type.
        """
        self._check(other)
        u, v = self.coeffs, other.coeffs
        if u.dtype != object and v.dtype != object:
            return Seq(self.K, np.convolve(u, v)[: self.K + 1])
        u, v = _real_if_exact(u), _real_if_exact(v)
        iu, iv = np.flatnonzero(u != 0), np.flatnonzero(v != 0)
        a, b = np.nonzero(iu[:, None] + iv[None, :] <= self.K)
        i, j = iu[a], iv[b]
        out = np.zeros(self.K + 1, dtype=object)
        if i.size:
            u, v = _exactly_as(u, v[j[0]]), _exactly_as(v, u[i[0]])
            np.add.at(out, i + j, u[i] * v[j])
        return Seq(self.K, out)

    def bracket1(self) -> "Seq":
        """Coefficients of h_u': u_k -> (k+1) u_{k+1}."""
        out = np.zeros_like(self.coeffs)
        k = np.arange(1, self.K + 1)
        out[:-1] = k * self.coeffs[1:]
        return Seq(self.K, out)

    def bracket2(self) -> "Seq":
        """Coefficients of h_u'': u_k -> (k+1)(k+2) u_{k+2}."""
        return self.bracket1().bracket1()

    def eval(self, x) -> complex | np.ndarray:
        """Horner evaluation of h_u."""
        acc = np.zeros_like(np.asarray(x, dtype=np.complex128))
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        return acc


def _factorial_weights(K: int) -> np.ndarray:
    """(0!, 1!, ..., K!) in float64."""
    return np.array([math.factorial(k) for k in range(K + 1)], dtype=np.float64)


def to_factorial_basis(u: Seq) -> Seq:
    """Rescale u_k -> k! u_k (monomial to signature-coefficient basis)."""
    return Seq(u.K, u.coeffs * _factorial_weights(u.K))


def from_factorial_basis(u: Seq) -> Seq:
    """Rescale u_k -> u_k / k! (signature-coefficient to monomial basis)."""
    return Seq(u.K, u.coeffs / _factorial_weights(u.K))


@dataclass
class Model1D:
    """Scalar polynomial diffusion: drift and squared-diffusion coefficients."""

    b: Seq
    a: Seq
    x0: float
    name: str = "model"
    state_interval: tuple[float, float] | None = None

    def __post_init__(self):
        self.b._check(self.a)
        if self.state_interval is not None:
            lo, hi = self.state_interval
            grid = np.linspace(lo, hi, 201)
            vals = self.a.eval(grid)
            if np.max(np.abs(vals.imag)) > 0 or np.min(vals.real) < -1e-9:
                raise ValueError(
                    f"squared diffusion of {self.name} is negative on "
                    f"[{lo}, {hi}]"
                )

    @property
    def K(self) -> int:
        return self.b.K

    def with_truncation(self, K: int) -> "Model1D":
        return Model1D(
            b=self.b.with_truncation(K),
            a=self.a.with_truncation(K),
            x0=self.x0,
            name=self.name,
            state_interval=self.state_interval,
        )


def R_pow(u: Seq, m: Model1D) -> Seq:
    """Quadratic operator in the monomial basis:
    b conv u' + (1/2) a conv (u'' + u' conv u').

    The 1/2 scales a, exactly in binary, so that an object state (Decimal
    refuses float operands) meets no float factor outside ``conv``.
    """
    u1 = u.bracket1()
    u2 = u.bracket2()
    return m.b.conv(u1) + (m.a * 0.5).conv(u2 + u1.conv(u1))


def L_pow(u: Seq, m: Model1D) -> Seq:
    """Linear operator in the monomial basis: b conv u' + (1/2) a conv u''."""
    return m.b.conv(u.bracket1()) + (m.a * 0.5).conv(u.bracket2())


def exp_conv(u: Seq) -> Seq:
    """exp under the Cauchy product: coefficients of exp(h_u)."""
    bar = u.copy()
    scalar = bar.coeffs[0]
    bar.coeffs[0] = 0.0
    acc = Seq.delta(0, u.K)
    term = Seq.delta(0, u.K)
    for k in range(1, u.K + 1):
        term = term.conv(bar) * (1.0 / k)
        acc = acc + term
    return acc * np.exp(scalar)


def linear_matrix_1d(m: Model1D, K: int) -> np.ndarray:
    """Matrix of the linear operator on monomials 1, x, ..., x^K.

    Column j holds the coefficients of L_pow applied to x^j.
    """
    mm = m if m.K == K else m.with_truncation(K)
    G = np.zeros((K + 1, K + 1), dtype=np.complex128)
    for j in range(K + 1):
        G[:, j] = L_pow(Seq.delta(j, K), mm).coeffs
    if np.all(G.imag == 0):
        return G.real.copy()
    return G


# -- stock models ------------------------------------------------------------


def brownian_model(K: int, x0: float = 0.0) -> Model1D:
    return Model1D(
        b=Seq.zero(K), a=Seq.delta(0, K), x0=x0, name="brownian"
    )


def gbm_laplace_initial(c: float, y0: float, K: int) -> Seq:
    """Exponent coefficients for E[exp(-c Y_T)], Y lognormal started at y0:
    h_u(x) = -c y0 e^x, so u_k = -c y0 / k!."""
    w = np.array([1.0 / math.factorial(k) for k in range(K + 1)])
    return Seq(K, -c * y0 * w)


def quartic_initial(K: int) -> Seq:
    """Exponent coefficients of exp(-x^4/4!) in the monomial basis."""
    if K < 4:
        raise ValueError("quartic initial data needs K >= 4")
    return Seq.delta(4, K, -1.0 / math.factorial(4))


def jacobi_model(K: int, x0: float = 0.5) -> Model1D:
    a = Seq.zero(K)
    a.coeffs[1] = 1.0
    a.coeffs[2] = -1.0
    return Model1D(b=Seq.zero(K), a=a, x0=x0, name="jacobi", state_interval=(0.0, 1.0))


def shifted_jacobi_model(K: int, x0: float = -0.5) -> Model1D:
    """Jacobi diffusion shifted to [-1, 0]: squared diffusion -(x^2 + x)."""
    a = Seq.zero(K)
    a.coeffs[1] = -1.0
    a.coeffs[2] = -1.0
    return Model1D(
        b=Seq.zero(K), a=a, x0=x0, name="shifted_jacobi", state_interval=(-1.0, 0.0)
    )


def cubic_interval_model(K: int, x0: float = 0.5) -> Model1D:
    """Diffusion on [0, 1] with squared diffusion x(1-x)(1-x/2)."""
    a = Seq.zero(K)
    a.coeffs[1] = 1.0
    a.coeffs[2] = -1.5
    a.coeffs[3] = 0.5
    return Model1D(
        b=Seq.zero(K), a=a, x0=x0, name="cubic_interval", state_interval=(0.0, 1.0)
    )


def wright_fisher_model(b_weights, K: int, x0: float = 0.5) -> Model1D:
    """Mutation-selection diffusion: drift sum_n b_n (x^n - x^{n+1}),
    squared diffusion x(1 - x)."""
    b = Seq.zero(K)
    prev = 0.0
    for n in range(1, K + 1):
        cur = b_weights[n - 1] if n - 1 < len(b_weights) else 0.0
        b.coeffs[n] = cur - prev
        prev = cur
    a = Seq.zero(K)
    a.coeffs[1] = 1.0
    a.coeffs[2] = -1.0
    return Model1D(b=b, a=a, x0=x0, name="wright_fisher", state_interval=(0.0, 1.0))


def mgf_initial(c: float, K: int) -> Seq:
    """Exponent coefficients of E[exp(c X_T)]: h_u(x) = c x."""
    out = Seq.zero(K)
    if K >= 1:
        out.coeffs[1] = c
    return out
