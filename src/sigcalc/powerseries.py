"""One-dimensional polynomial-diffusion calculus on truncated power series.

States are monomial coefficient sequences u = (u_0, ..., u_K) representing
h_u(x) = sum u_k x^k.  The product is the Cauchy convolution, derivatives act
as index shifts with combinatorial weights, and the quadratic/linear
operators mirror their tensor-algebra counterparts.  A second basis rescales
u_k by k!; it matches the coefficients obtained when the same scalar model is
written on the signature of the path itself.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

import numpy as np


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
        """Cauchy product truncated at degree K."""
        self._check(other)
        full = np.convolve(self.coeffs, other.coeffs)
        return Seq(self.K, full[: self.K + 1])

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

    def to_list(self) -> list[complex]:
        return [complex(c) for c in self.coeffs]


_factorial_cache: dict[int, np.ndarray] = {}


def _factorial_weights(K: int) -> np.ndarray:
    """Read-only vector (0!, 1!, ..., K!) in float64, built once per K (a
    race between threads only builds it twice)."""
    got = _factorial_cache.get(K)
    if got is None:
        got = np.array([math.factorial(k) for k in range(K + 1)], dtype=np.float64)
        got.setflags(write=False)
        _factorial_cache[K] = got
    return got


def to_factorial_basis(u: Seq) -> Seq:
    """Rescale u_k -> k! u_k (monomial to signature-coefficient basis)."""
    return Seq(u.K, u.coeffs * _factorial_weights(u.K))


def from_factorial_basis(u: Seq) -> Seq:
    """Rescale u_k -> u_k / k! (signature-coefficient to monomial basis)."""
    return Seq(u.K, u.coeffs / _factorial_weights(u.K))


_binom_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_binom_mp_cache: dict[int, np.ndarray] = {}
_binom_lock = threading.Lock()


def _binom_triplets(K: int):
    """Index arrays (k, n-k, n) with weights C(n, k) for n <= K."""
    got = _binom_cache.get(K)
    if got is None:
        with _binom_lock:
            got = _binom_cache.get(K)
            if got is None:
                ks, ms, ws = [], [], []
                for n in range(K + 1):
                    for k in range(n + 1):
                        ks.append(k)
                        ms.append(n - k)
                        ws.append(math.comb(n, k))
                got = (
                    np.array(ks, dtype=np.int64),
                    np.array(ms, dtype=np.int64),
                    np.array(ws, dtype=np.float64),
                )
                _binom_cache[K] = got
    return got


def _binom_weights_mp(K: int) -> np.ndarray:
    """The float64 weights of ``_binom_triplets(K)`` as mpmath numbers.

    Each is converted exactly (53 bits), whatever the working precision, so
    a product with an mpmath number rounds exactly as the float weight's
    product does.  Equal weights share one object.
    """
    got = _binom_mp_cache.get(K)
    if got is None:
        ws = _binom_triplets(K)[2]
        with _binom_lock:
            got = _binom_mp_cache.get(K)
            if got is None:
                from mpmath import mp
                from mpmath.libmp import from_float

                exact = {w: mp.make_mpf(from_float(w)) for w in set(ws.tolist())}
                got = np.array([exact[w] for w in ws.tolist()], dtype=object)
                got.setflags(write=False)
                _binom_mp_cache[K] = got
    return got


def _real_if_exact(c: np.ndarray) -> np.ndarray:
    """Real part of a complex array whose imaginary part is all zero."""
    if c.dtype.kind == "c" and not np.any(c.imag):
        return c.real
    return c


def _all_mpmath(c: np.ndarray) -> bool:
    from mpmath import mp

    return all(isinstance(x, (mp.mpf, mp.mpc)) for x in c)


def binom_conv(u: Seq, v: Seq) -> Seq:
    """Binomial convolution (u * v)_n = sum_k C(n,k) u_k v_{n-k}.

    Only terms whose two factors are nonzero are formed.  When either
    factor holds objects (extended-precision scalars), a complex factor with
    zero imaginary part enters as real, so real inputs give real outputs;
    the products are the real parts of the complex ones, bit for bit.
    """
    u._check(v)
    ks, ms, ws = _binom_triplets(u.K)
    uc, vc = u.coeffs, v.coeffs
    if uc.dtype == object or vc.dtype == object:
        uc, vc = _real_if_exact(uc), _real_if_exact(vc)
    # skip structurally zero terms: K+1 comparisons per factor, gathered
    # through the triplet indices, instead of one per (k, n-k) pair
    nzu = uc != 0
    keep = nzu[ks] & (vc != 0)[ms]
    if uc.dtype == object and _all_mpmath(uc[nzu]):
        ws = _binom_weights_mp(u.K)
    ks, ms = ks[keep], ms[keep]
    out = np.zeros(u.K + 1, dtype=np.result_type(uc, vc))
    np.add.at(out, ks + ms, ws[keep] * uc[ks] * vc[ms])
    return Seq(u.K, out)


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "b": [float(c.real) for c in self.b.coeffs],
                "a": [float(c.real) for c in self.a.coeffs],
                "x0": self.x0,
                "K": self.K,
                "name": self.name,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Model1D":
        data = json.loads(text)
        K = int(data["K"])
        return cls(
            b=Seq.from_list(data["b"], K=K),
            a=Seq.from_list(data["a"], K=K),
            x0=float(data["x0"]),
            name=data.get("name", "model"),
        )


def R_pow(u: Seq, m: Model1D) -> Seq:
    """Quadratic operator in the monomial basis:
    b conv u' + (1/2) a conv (u'' + u' conv u')."""
    u1 = u.bracket1()
    u2 = u.bracket2()
    return m.b.conv(u1) + 0.5 * m.a.conv(u2 + u1.conv(u1))


def L_pow(u: Seq, m: Model1D) -> Seq:
    """Linear operator in the monomial basis: b conv u' + (1/2) a conv u''."""
    return m.b.conv(u.bracket1()) + 0.5 * m.a.conv(u.bracket2())


def R_sig(u: Seq, m: Model1D) -> Seq:
    """Quadratic operator in the factorial basis.

    Shifts become plain index drops and convolutions pick up binomial
    weights; equivalent to conjugating R_pow by the basis change.
    """
    u1 = Seq(u.K, np.concatenate([u.coeffs[1:], [0.0]]))
    u2 = Seq(u.K, np.concatenate([u.coeffs[2:], [0.0, 0.0]]))
    bf = to_factorial_basis(m.b)
    af = to_factorial_basis(m.a)
    return binom_conv(bf, u1) + 0.5 * binom_conv(af, u2 + binom_conv(u1, u1))


def L_sig(u: Seq, m: Model1D) -> Seq:
    """Linear operator in the factorial basis."""
    u1 = Seq(u.K, np.concatenate([u.coeffs[1:], [0.0]]))
    u2 = Seq(u.K, np.concatenate([u.coeffs[2:], [0.0, 0.0]]))
    bf = to_factorial_basis(m.b)
    af = to_factorial_basis(m.a)
    return binom_conv(bf, u1) + 0.5 * binom_conv(af, u2)


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


def log_conv(u: Seq) -> Seq:
    """Inverse of exp_conv; needs a nonzero constant term."""
    scalar = u.coeffs[0]
    if scalar == 0:
        raise ValueError("power-series logarithm needs a nonzero constant term")
    bar = u * (1.0 / scalar)
    bar.coeffs[0] = 0.0
    acc = Seq.zero(u.K)
    term = Seq.delta(0, u.K)
    for k in range(1, u.K + 1):
        term = term.conv(bar)
        acc = acc + term * ((-1.0) ** (k - 1) / k)
    acc.coeffs[0] = np.log(scalar)
    return acc


def linear_matrix_1d(m: Model1D, K: int) -> np.ndarray:
    """Matrix of the linear operator on monomials 1, x, ..., x^K.

    Entry (i, j) = j b_{i-j+1} + j(j-1)/2 a_{i-j+2}; column j reproduces
    L applied to the j-th monomial.
    """
    mm = m if m.K == K else m.with_truncation(K)
    G = np.zeros((K + 1, K + 1), dtype=np.complex128)
    for j in range(K + 1):
        for i in range(K + 1):
            v = 0.0 + 0.0j
            bi = i - (j - 1)
            if j >= 1 and 0 <= bi <= K:
                v += j * mm.b.coeffs[bi]
            ai = i - (j - 2)
            if j >= 2 and 0 <= ai <= K:
                v += 0.5 * j * (j - 1) * mm.a.coeffs[ai]
            G[i, j] = v
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
