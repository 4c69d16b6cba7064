"""Monte-Carlo simulation and Gaussian quadrature cross-checks.

Euler discretization of the scalar polynomial models and of the
signature-driven models, with the running truncated signature updated
multiplicatively each step.  Estimates are reproducible: paths are split
into fixed-size blocks and every block draws from its own counter-derived
substream, so results depend only on (seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import SdeSpec
from .powerseries import Model1D
from .tensor import tables


@dataclass
class SimConfig:
    n_paths: int = 10_000
    dt: float = 1e-3
    seed: int = 0
    block_size: int = 65_536

    def __post_init__(self):
        if self.n_paths < 1 or self.block_size < 1:
            raise ValueError("path and block counts must be positive")
        if self.dt <= 0:
            raise ValueError("step size must be positive")


@dataclass
class McEstimate:
    mean: complex
    std_error: float
    n_paths: int

    def within(self, reference: complex, n_se: float = 3.0) -> bool:
        return abs(self.mean - reference) <= n_se * self.std_error


def estimate(samples: np.ndarray) -> McEstimate:
    samples = np.asarray(samples)
    n = len(samples)
    mean = complex(np.mean(samples))
    if n > 1:
        var = float(np.sum(np.abs(samples - mean) ** 2)) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = math.inf
    return McEstimate(mean=mean, std_error=se, n_paths=n)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def _blocks(n_paths: int, block_size: int):
    start = 0
    b = 0
    while start < n_paths:
        yield b, min(block_size, n_paths - start)
        start += block_size
        b += 1


@dataclass
class Sim1DResult:
    finals: np.ndarray
    clamped_steps: int
    n_steps: int


def simulate_1d(model: Model1D, cfg: SimConfig, T: float) -> Sim1DResult:
    """Euler paths of the scalar model; negative squared diffusion is clamped
    to zero and counted."""
    steps = max(1, round(T / cfg.dt))
    dt = T / steps
    finals = np.empty(cfg.n_paths)
    clamped = 0
    bc = np.ascontiguousarray(model.b.coeffs.real[::-1])
    ac = np.ascontiguousarray(model.a.coeffs.real[::-1])
    for blk, nb in _blocks(cfg.n_paths, cfg.block_size):
        rng = _block_rng(cfg.seed, blk)
        x = np.full(nb, model.x0)
        sqrt_dt = math.sqrt(dt)
        for _ in range(steps):
            drift = np.polyval(bc, x)
            diff2 = np.polyval(ac, x)
            neg = diff2 < 0
            clamped += int(np.count_nonzero(neg))
            np.maximum(diff2, 0.0, out=diff2)
            x = x + drift * dt + np.sqrt(diff2) * sqrt_dt * rng.standard_normal(nb)
        finals[blk * cfg.block_size : blk * cfg.block_size + nb] = x
    return Sim1DResult(finals=finals, clamped_steps=clamped, n_steps=steps)


def _segment_signature_block(dx: np.ndarray, tab) -> np.ndarray:
    """Per-path signature of one linear segment, flat layout (nb, n_words)."""
    nb, d = dx.shape
    out = np.empty((nb, tab.size))
    out[:, 0] = 1.0
    lvl = np.ones((nb, 1))
    fact = 1.0
    for n in range(1, tab.N + 1):
        lvl = (lvl[:, :, None] * dx[:, None, :]).reshape(nb, -1)
        fact *= n
        out[:, tab.offsets[n] : tab.offsets[n + 1]] = lvl / fact
    return out


def _chen_apply(sig: np.ndarray, seg: np.ndarray, tab) -> np.ndarray:
    out = np.zeros_like(sig)
    for i, j, k in zip(tab.cc_i, tab.cc_j, tab.cc_k):
        out[:, k] += sig[:, i] * seg[:, j]
    return out


@dataclass
class SigSimResult:
    sig_mean: np.ndarray
    sig_se: np.ndarray
    finals: np.ndarray
    functional: McEstimate | None
    clamped_steps: int


def simulate_sigsde(
    spec: SdeSpec,
    cfg: SimConfig,
    T: float,
    N_sig: int,
    functional=None,
) -> SigSimResult:
    """Euler paths of a signature-driven model with the running truncated
    signature carried along multiplicatively.

    The drift vector and diffusion matrix are evaluated per path by pairing
    the characteristics with the running signature; the signature must be
    carried at a truncation at least as deep as the characteristics' support.
    ``functional`` maps the final (nb, n_words) signature block to one sample
    per path.
    """
    d = spec.d
    need = max(
        [c.max_support_level() for c in spec.b]
        + [c.max_support_level() for row in spec.a for c in row]
    )
    if N_sig < need:
        raise ValueError(
            f"signature truncation {N_sig} below characteristic support {need}"
        )
    tab = tables(d, N_sig)
    b_vecs = [c.with_truncation(N_sig).coeffs.real for c in spec.b]
    a_vecs = [[c.with_truncation(N_sig).coeffs.real for c in row] for row in spec.a]
    diag_only = all(
        not np.any(a_vecs[i][j]) for i in range(d) for j in range(d) if i != j
    )
    steps = max(1, round(T / cfg.dt))
    dt = T / steps
    sqrt_dt = math.sqrt(dt)

    sig_sum = np.zeros(tab.size)
    sig_sumsq = np.zeros(tab.size)
    finals = np.empty((cfg.n_paths, d))
    fn_samples = [] if functional is not None else None
    clamped = 0

    for blk, nb in _blocks(cfg.n_paths, cfg.block_size):
        rng = _block_rng(cfg.seed, blk)
        x = np.tile(spec.x0, (nb, 1))
        sig = np.zeros((nb, tab.size))
        sig[:, 0] = 1.0
        for _ in range(steps):
            dW = rng.standard_normal((nb, d)) * sqrt_dt
            drift = np.column_stack([sig @ bv for bv in b_vecs])
            if diag_only:
                dx = drift * dt
                for i in range(d):
                    a_ii = sig @ a_vecs[i][i]
                    neg = a_ii < 0
                    clamped += int(np.count_nonzero(neg))
                    np.maximum(a_ii, 0.0, out=a_ii)
                    dx[:, i] += np.sqrt(a_ii) * dW[:, i]
            else:
                amat = np.empty((nb, d, d))
                for i in range(d):
                    for j in range(d):
                        amat[:, i, j] = sig @ a_vecs[i][j]
                amat += 1e-14 * np.eye(d)
                root = np.linalg.cholesky(amat)
                dx = drift * dt + np.einsum("nij,nj->ni", root, dW)
            sig = _chen_apply(sig, _segment_signature_block(dx, tab), tab)
            x = x + dx
        lo = blk * cfg.block_size
        finals[lo : lo + nb] = x
        sig_sum += sig.sum(axis=0)
        sig_sumsq += (sig**2).sum(axis=0)
        if functional is not None:
            fn_samples.append(np.asarray(functional(sig)))

    n = cfg.n_paths
    mean = sig_sum / n
    var = np.maximum(sig_sumsq - n * mean**2, 0.0) / max(n - 1, 1)
    se = np.sqrt(var / n)
    fn_est = estimate(np.concatenate(fn_samples)) if functional is not None else None
    return SigSimResult(
        sig_mean=mean, sig_se=se, finals=finals, functional=fn_est, clamped_steps=clamped
    )


_hermite_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights, computed once per n (a
    race between threads only computes them twice)."""
    got = _hermite_cache.get(n)
    if got is None:
        from scipy.special import roots_hermite

        got = roots_hermite(n)
        for a in got:
            a.setflags(write=False)
        _hermite_cache[n] = got
    return got


def gauss_hermite_expectation(
    f,
    variance: float,
    n_nodes: int = 200,
    tol: float = 1e-10,
    max_doublings: int = 4,
) -> complex:
    """E[f(Z)] for Z centered Gaussian with the given variance.

    Gauss-Hermite quadrature; the node count doubles until two consecutive
    evaluations agree to ``tol``.
    """
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0:
        return complex(f(np.array([0.0]))[0]) if callable(f) else complex(f)

    def run(n):
        x, w = _hermite_rule(n)
        vals = f(x * math.sqrt(2.0 * variance))
        return complex(np.sum(w * vals) / math.sqrt(math.pi))

    prev = run(n_nodes)
    for _ in range(max_doublings):
        n_nodes *= 2
        cur = run(n_nodes)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise RuntimeError("quadrature did not stabilize within the node budget")
