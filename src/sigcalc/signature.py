"""Truncated signatures of piecewise-linear paths.

The signature of a straight segment with increment v is the tensor
exponential sum_k v^{(x)k} / k!, and signatures of concatenated paths
multiply under the concatenation product, so the full path signature is the
ordered product of its segment signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import TensorCoeffs, level_offsets, tables


@dataclass
class PiecewisePath:
    """Sampled path: strictly increasing times, one d-vector per sample."""

    times: np.ndarray
    points: np.ndarray
    time_extended: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("a path needs at least two samples")
        if self.points.shape[0] != len(self.times):
            raise ValueError("times and points disagree in length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.points))):
            raise ValueError("times and points must be finite numbers")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, text: str) -> "PiecewisePath":
        lines = [
            (i, l.strip()) for i, l in enumerate(text.splitlines(), 1) if l.strip()
        ]
        if not lines:
            raise ValueError("empty path file")
        header = lines[0][1].split(",")
        if header[0] != "t" or any(
            h != f"x{i}" for i, h in enumerate(header[1:], start=1)
        ):
            raise ValueError(f"bad path header: {lines[0][1]!r}")
        rows = []
        for i, line in lines[1:]:
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(
                    f"line {i} has {len(fields)} fields, the header "
                    f"{len(header)}: {line!r}"
                )
            rows.append([float(v) for v in fields])
        arr = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
        return cls(times=arr[:, 0], points=arr[:, 1:])


def time_extend(path: PiecewisePath) -> PiecewisePath:
    """Prepend running time as the first coordinate (letter 1)."""
    if path.time_extended:
        raise ValueError("path is already time-extended")
    pts = np.column_stack([path.times, path.points])
    return PiecewisePath(times=path.times.copy(), points=pts, time_extended=True)


def segment_signature(increment: np.ndarray, N: int) -> TensorCoeffs:
    """Signature of one linear segment: tensor exponential of the increment."""
    v = np.asarray(increment, dtype=np.complex128).ravel()
    d = len(v)
    out = TensorCoeffs(d, N)
    offs = level_offsets(d, N)
    lvl = np.array([1.0 + 0j])
    out.coeffs[0] = 1.0
    for n in range(1, N + 1):
        lvl = np.kron(lvl, v)
        out.coeffs[offs[n] : offs[n + 1]] = lvl / math.factorial(n)
    return out


def path_signature(path: PiecewisePath, N: int) -> TensorCoeffs:
    """Truncated signature via the multiplicative segment decomposition."""
    sig = TensorCoeffs.unit(path.d, N)
    for k in range(len(path.times) - 1):
        inc = path.points[k + 1] - path.points[k]
        sig = sig.concat(segment_signature(inc, N))
    return sig


def is_grouplike(x: TensorCoeffs) -> tuple[bool, float]:
    """Check x_emptyword = 1 and multiplicativity x_I x_J = <e_I sh e_J, x>.

    Returns (worst violation <= 1e-9, worst violation) over all word pairs
    that fit in the truncation.
    """
    tab = tables(x.d, x.N)
    terms = tab.sh_c * x.coeffs[tab.sh_k]
    sums = np.add.reduceat(terms, tab.pair_start)
    viol = np.abs(x.coeffs[tab.pair_i] * x.coeffs[tab.pair_j] - sums)
    worst = float(max(np.max(viol, initial=0.0), abs(x.coeffs[0] - 1.0)))
    return worst <= 1e-9, worst
