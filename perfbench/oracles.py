"""Reference values computed by the benchmark itself.

None of these call into sigcalc: quadrature comes from numpy's Gauss-Hermite
nodes, the lognormal moments are summed in mpmath at 50 digits so that the
alternating binomial sum does not cancel in float64, and the rest are
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Double-precision resolution: an error below eps * max(1, |reference|) is
# indistinguishable from exact, so it is floored there when margins are taken.
EPS = float(np.finfo(np.float64).eps)

# Two-sided bound on |z| for Monte-Carlo coefficients.  With at most 11
# random coefficients per run (d=2, N=3 minus the four pure-time words), a
# Bonferroni bound puts the chance that a correct program fails a run at
# 11 * P(|Z| > 5) = 6.3e-6.
Z_BOUND = 5.0


@dataclass
class Check:
    """One oracle comparison: observed error against its tolerance."""

    name: str
    err: float
    tol: float
    scale: float = 1.0
    in_margin: bool = True  # statistical checks gate but stay out of margins

    @property
    def passed(self) -> bool:
        return bool(math.isfinite(self.err) and self.err <= self.tol)

    @property
    def margin_digits(self) -> float:
        """log10(tol / err), with err floored at double-precision resolution."""
        if not math.isfinite(self.err):
            return -math.inf
        floor = EPS * max(1.0, abs(self.scale))
        return math.log10(self.tol / max(self.err, floor))


class GaussianExpectation:
    """E[f(sqrt(t) Z)] for standard normal Z by Gauss-Hermite quadrature.

    The node count is fixed; ``__init__`` confirms on the hardest integrands
    it serves (t = 1, c y0 = 2.25) that 1.5 times the nodes changes nothing
    above 1e-14, so the oracle is accurate well below every tolerance.
    """

    def __init__(self, n_nodes: int = 200):
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
        self.x, self.w = x, w / math.sqrt(math.pi)
        # numpy's weights overflow beyond about 350 nodes
        x2, w2 = np.polynomial.hermite.hermgauss(3 * n_nodes // 2)
        probe = lambda z: np.exp(-(z**4) / 24.0) + np.exp(-2.25 * np.exp(z))
        a = float(np.sum(self.w * probe(self.x * math.sqrt(2.0))))
        b = float(np.sum(w2 / math.sqrt(math.pi) * probe(x2 * math.sqrt(2.0))))
        if not abs(a - b) <= 1e-14:
            raise RuntimeError("Gauss-Hermite oracle is not converged")

    def __call__(self, f, t: float) -> float:
        if t == 0.0:
            return float(f(np.zeros(1))[0])
        return float(np.sum(self.w * f(self.x * math.sqrt(2.0 * t))))


def quartic(gauss: GaussianExpectation, t: float) -> float:
    """E[exp(-B_t^4 / 24)]."""
    return gauss(lambda z: np.exp(-(z**4) / 24.0), t)


def gbm_laplace(gauss: GaussianExpectation, c: float, y0: float, t: float) -> float:
    """E[exp(-c y0 exp(B_t))]."""
    return gauss(lambda z: np.exp(-c * y0 * np.exp(z)), t)


def signed_area_cf(lam: float, t: float) -> float:
    """E[exp(i lam A_t)] for the Levy area of a planar Brownian motion."""
    return 1.0 / math.cosh(lam * t / 2.0)


def pure_time_word(m: int, T: float) -> float:
    """Signature coefficient of the time word of length m: T^m / m!."""
    return T**m / math.factorial(m)


def lognormal_word(m: int, sigma: float, s0: float, T: float) -> float:
    """E[(S_T - s0)^m] / m! for driftless geometric Brownian motion S.

    Uses E[S_T^j] = s0^j exp(sigma^2 T j (j - 1) / 2); summed in mpmath
    because the binomial expansion alternates in sign.
    """
    import mpmath

    with mpmath.workdps(50):
        s = mpmath.mpf(s0)
        v = mpmath.mpf(sigma) ** 2 * mpmath.mpf(T)
        acc = mpmath.fsum(
            mpmath.binomial(m, j) * s**j * mpmath.exp(v * j * (j - 1) / 2) * (-s) ** (m - j)
            for j in range(m + 1)
        )
        return float(acc / mpmath.factorial(m))


def jacobi_two_point(c: float, x0: float) -> float:
    """Long-horizon mgf of the Jacobi diffusion: X_inf is 1 with probability x0."""
    return (1.0 - x0) + x0 * math.exp(c)

