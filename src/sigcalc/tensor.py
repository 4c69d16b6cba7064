"""Truncated tensor algebra over R^d with shuffle and concatenation products.

Elements live in the direct sum of tensor levels 0..N and are stored as one
dense complex coefficient vector in level-major order.  Words (multi-indices)
over the alphabet {1, ..., d} index the coefficients: within a level, words
are ordered lexicographically, so the rank of a word I = (i_1, ..., i_n) is

    offset(n) + sum_j (i_j - 1) * d^(n - j).

Both products, the shuffle/concatenation exponentials and logarithms,
pairing and the seminorm family operate on this flat layout.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


def n_words(d: int, N: int) -> int:
    """Number of words of length <= N over a d-letter alphabet."""
    if d == 1:
        return N + 1
    return (d ** (N + 1) - 1) // (d - 1)


def level_offsets(d: int, N: int) -> list[int]:
    """offsets[n] = rank of the first word of length n; has N+2 entries."""
    offs = [0]
    for n in range(N + 1):
        offs.append(offs[-1] + d**n)
    return offs


def word_index(word: Word, d: int) -> int:
    n = len(word)
    idx = n_words(d, n - 1) if n else 0
    for j, letter in enumerate(word):
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside alphabet 1..{d}")
        idx += (letter - 1) * d ** (n - 1 - j)
    return idx


def index_word(idx: int, d: int) -> Word:
    n = 0
    while idx >= d**n:
        idx -= d**n
        n += 1
    letters = []
    for j in range(n):
        letters.append(idx // d ** (n - 1 - j) + 1)
        idx %= d ** (n - 1 - j)
    return tuple(letters)


def words_of_level(d: int, n: int):
    """All words of length n in rank order, which is lexicographic order."""
    return itertools.product(range(1, d + 1), repeat=n)


def all_words(d: int, N: int):
    for n in range(N + 1):
        yield from words_of_level(d, n)


@lru_cache(maxsize=None)
def shuffle_word_pair(left: Word, right: Word) -> tuple[tuple[Word, int], ...]:
    """All words arising from shuffling two words, with multiplicities."""
    if not left:
        return ((right, 1),)
    if not right:
        return ((left, 1),)
    acc: Counter[Word] = Counter()
    for w, c in shuffle_word_pair(left[:-1], right):
        acc[w + (left[-1],)] += c
    for w, c in shuffle_word_pair(left, right[:-1]):
        acc[w + (right[-1],)] += c
    return tuple(sorted(acc.items()))


class _Tables:
    """Sparse index tables of the shuffle and concatenation products for one
    (d, N) pair, built by index arithmetic on word ranks."""

    def __init__(self, d: int, N: int):
        offs = np.array(level_offsets(d, N), dtype=np.int64)

        # shuffle triplets per level pair (n1, n2): ranks a, b of two words
        # within their levels, the rank r of a word of level n1 + n2 in their
        # shuffle and its multiplicity c, by (u.x) sh (v.y) = (u sh v.y).x +
        # (u.x sh v).y; then ordered by (i, j, k), grouped per word pair
        x = np.arange(d, dtype=np.int64)[:, None]
        pair = {}
        for n in range(N + 1):
            r = np.arange(d**n, dtype=np.int64)
            pair[n, 0], pair[0, n] = (r, 0 * r, r, 1.0 + 0 * r), (0 * r, r, r, 1.0 + 0 * r)
            for n1 in range(1, n):
                n2 = n - n1
                (a1, b1, r1, c1), (a2, b2, r2, c2) = pair[n1 - 1, n2], pair[n1, n2 - 1]
                a, b, r, c = (np.concatenate([u.ravel(), v.ravel()]) for u, v in [
                    (a1 * d + x, a2 + 0 * x), (b1 + 0 * x, b2 * d + x),
                    (r1 * d + x, r2 * d + x), (c1 + 0 * x, c2 + 0 * x)])
                key, at = np.unique((a * d**n2 + b) * d**n + r, return_inverse=True)
                pair[n1, n2] = (*np.divmod(key // d**n, d**n2), key % d**n, np.bincount(at, c))
        i, j, k, c = (np.concatenate(v) for v in zip(*(
            (offs[n1] + a, offs[n2] + b, offs[n1 + n2] + r, c)
            for (n1, n2), (a, b, r, c) in pair.items())))
        order = np.lexsort((k, j, i))
        self.sh_i, self.sh_j, self.sh_k, self.sh_c = i[order], j[order], k[order], c[order]
        self.pair_start = np.flatnonzero(np.diff(self.sh_i * offs[-1] + self.sh_j, prepend=-1))
        self.pair_i, self.pair_j = self.sh_i[self.pair_start], self.sh_j[self.pair_start]

        # concatenation triplets: every cut c of every word k of level n,
        # the prefix of length c and the suffix of length n - c
        ci, cj, ck = [], [], []
        for n in range(N + 1):
            rank = np.arange(d**n, dtype=np.int64)[:, None]
            tail = d ** np.arange(n, -1, -1)  # d^(n - c) for c = 0..n
            ci.append((offs[: n + 1] + rank // tail).ravel())
            cj.append((offs[n::-1] + rank % tail).ravel())
            ck.append(np.repeat(offs[n] + rank.ravel(), n + 1))
        self.cc_i, self.cc_j, self.cc_k = (np.concatenate(x) for x in (ci, cj, ck))


@lru_cache(maxsize=None)
def tables(d: int, N: int) -> _Tables:
    """The product tables of (d, N), built once per process and shared by
    every caller (a race between threads only builds them twice)."""
    return _Tables(d, N)


class Partition(Enum):
    """Ways of grouping words when evaluating the coefficient seminorm."""

    SINGLETON = "singleton"
    ORDERED = "ordered"
    BY_LEVEL = "by_level"


@dataclass
class TensorCoeffs:
    """Coefficient vector in the tensor algebra truncated at level N."""

    d: int
    N: int
    coeffs: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.N < 0:
            raise ValueError("truncation level must be >= 0")
        size = n_words(self.d, self.N)
        if self.coeffs is None:
            self.coeffs = np.zeros(size, dtype=np.complex128)
        else:
            self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
            if self.coeffs.shape != (size,):
                raise ValueError(
                    f"expected {size} coefficients for d={self.d}, N={self.N}, "
                    f"got shape {self.coeffs.shape}"
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d: int, N: int) -> "TensorCoeffs":
        return cls(d, N)

    @classmethod
    def unit(cls, d: int, N: int) -> "TensorCoeffs":
        out = cls(d, N)
        out.coeffs[0] = 1.0
        return out

    @classmethod
    def basis(cls, d: int, N: int, word: Word) -> "TensorCoeffs":
        if len(word) > N:
            raise ValueError(f"word {word} longer than truncation {N}")
        out = cls(d, N)
        out.coeffs[word_index(word, d)] = 1.0
        return out

    def copy(self) -> "TensorCoeffs":
        return TensorCoeffs(self.d, self.N, self.coeffs.copy())

    # -- access -------------------------------------------------------

    def __getitem__(self, word: Word) -> complex:
        return complex(self.coeffs[word_index(word, self.d)])

    def __setitem__(self, word: Word, value: complex):
        self.coeffs[word_index(word, self.d)] = value

    def max_support_level(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        if len(nz) == 0:
            return 0
        return bisect.bisect_right(level_offsets(self.d, self.N), int(nz[-1])) - 1

    def with_truncation(self, N: int) -> "TensorCoeffs":
        """Pad with zeros or drop top levels to reach truncation N."""
        if N == self.N:
            return self.copy()
        out = TensorCoeffs(self.d, N)
        m = min(len(out.coeffs), len(self.coeffs))
        out.coeffs[:m] = self.coeffs[:m]
        return out

    # -- linear structure ----------------------------------------------

    def _check_match(self, other: "TensorCoeffs"):
        if self.d != other.d or self.N != other.N:
            raise ValueError(
                f"mismatched algebras: (d={self.d}, N={self.N}) vs "
                f"(d={other.d}, N={other.N})"
            )

    def __add__(self, other: "TensorCoeffs") -> "TensorCoeffs":
        self._check_match(other)
        return TensorCoeffs(self.d, self.N, self.coeffs + other.coeffs)

    def __sub__(self, other: "TensorCoeffs") -> "TensorCoeffs":
        self._check_match(other)
        return TensorCoeffs(self.d, self.N, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "TensorCoeffs":
        return TensorCoeffs(self.d, self.N, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TensorCoeffs":
        return TensorCoeffs(self.d, self.N, -self.coeffs)

    # -- products -------------------------------------------------------

    def shuffle(self, other: "TensorCoeffs") -> "TensorCoeffs":
        self._check_match(other)
        tab = tables(self.d, self.N)
        out = np.zeros_like(self.coeffs)
        np.add.at(
            out, tab.sh_k, self.coeffs[tab.sh_i] * other.coeffs[tab.sh_j] * tab.sh_c
        )
        return TensorCoeffs(self.d, self.N, out)

    def concat(self, other: "TensorCoeffs") -> "TensorCoeffs":
        self._check_match(other)
        tab = tables(self.d, self.N)
        out = np.zeros_like(self.coeffs)
        np.add.at(out, tab.cc_k, self.coeffs[tab.cc_i] * other.coeffs[tab.cc_j])
        return TensorCoeffs(self.d, self.N, out)

    def shuffle_exp(self) -> "TensorCoeffs":
        """exp of this element under the shuffle product."""
        bar = self.copy()
        scalar = bar.coeffs[0]
        bar.coeffs[0] = 0.0
        acc = TensorCoeffs.unit(self.d, self.N)
        term = TensorCoeffs.unit(self.d, self.N)
        for k in range(1, self.N + 1):
            term = term.shuffle(bar) * (1.0 / k)
            acc = acc + term
        return acc * np.exp(scalar)

    def shuffle_log(self) -> "TensorCoeffs":
        """Inverse of shuffle_exp; requires a nonzero scalar part."""
        scalar = self.coeffs[0]
        if scalar == 0:
            raise ValueError("shuffle logarithm needs a nonzero scalar part")
        bar = self * (1.0 / scalar)
        bar.coeffs[0] = 0.0
        acc = TensorCoeffs.zero(self.d, self.N)
        term = TensorCoeffs.unit(self.d, self.N)
        for k in range(1, self.N + 1):
            term = term.shuffle(bar)
            acc = acc + term * ((-1.0) ** (k - 1) / k)
        acc.coeffs[0] = np.log(scalar)
        return acc

    # -- pairing ------------------------------------------------------------

    def pair(self, other: "TensorCoeffs") -> complex:
        """Bilinear pairing sum_I a_I b_I over common levels (no conjugation)."""
        if self.d != other.d:
            raise ValueError("pairing needs matching alphabet size")
        m = min(len(self.coeffs), len(other.coeffs))
        return complex(np.sum(self.coeffs[:m] * other.coeffs[:m]))

    # -- seminorms ---------------------------------------------------------

    def _partition_blocks(self, partition: Partition, include_level0: bool):
        blocks: dict = {}
        for k, w in enumerate(all_words(self.d, self.N)):
            if not include_level0 and len(w) == 0:
                continue
            if partition is Partition.SINGLETON:
                key = k
            elif partition is Partition.ORDERED:
                key = tuple(sorted(w))
            else:
                key = len(w)
            blocks.setdefault(key, []).append(k)
        return blocks

    def seminorm(
        self,
        state: "TensorCoeffs",
        partition: Partition = Partition.BY_LEVEL,
        include_level0: bool = False,
    ) -> float:
        """sum over blocks of |sum_{I in block} u_I x_I| at state x."""
        if self.d != state.d:
            raise ValueError("seminorm needs matching alphabet size")
        x = state.with_truncation(self.N) if state.N != self.N else state
        total = 0.0
        for idxs in self._partition_blocks(partition, include_level0).values():
            idxs = np.asarray(idxs)
            total += abs(np.sum(self.coeffs[idxs] * x.coeffs[idxs]))
        return float(total)

    def l1_norm(
        self,
        partition: Partition = Partition.BY_LEVEL,
        include_level0: bool = False,
    ) -> float:
        """sum over blocks of |sum_{I in block} x_I|."""
        total = 0.0
        for idxs in self._partition_blocks(partition, include_level0).values():
            total += abs(np.sum(self.coeffs[np.asarray(idxs)]))
        return float(total)

    # -- text round trip -----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for k in np.nonzero(self.coeffs)[0]:
            word = ",".join(str(l) for l in index_word(int(k), self.d))
            c = self.coeffs[k]
            lines.append(f"word={word} re={float(c.real)!r} im={float(c.imag)!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(
        cls, text: str, d: int | None = None, N: int | None = None
    ) -> "TensorCoeffs":
        entries: list[tuple[Word, complex]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [p.partition("=") for p in line.split()]
            if [f[:2] for f in fields] != [("word", "="), ("re", "="), ("im", "=")]:
                raise ValueError(f"malformed coefficient line, not word=... re=... im=...: {line!r}")
            wtxt, re_, im_ = (f[2] for f in fields)
            word = tuple(int(t) for t in wtxt.split(",")) if wtxt else EMPTY_WORD
            re_, im_ = float(re_), float(im_)
            if not np.all(np.isfinite((re_, im_))):
                raise ValueError(f"coefficient is not a finite number: {line!r}")
            entries.append((word, complex(re_, im_)))
        if d is None:
            d = max((max(w) for w, _ in entries if w), default=1)
        if N is None:
            N = max((len(w) for w, _ in entries), default=0)
        out = cls(d, N)
        for word, c in entries:
            if len(word) > N:
                raise ValueError(
                    f"word={','.join(map(str, word))} has length {len(word)}, "
                    f"above the truncation level N={N}"
                )
            out.coeffs[word_index(word, d)] += c
        return out

    def allclose(self, other: "TensorCoeffs", tol: float = 1e-12) -> bool:
        self._check_match(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs), initial=0.0) <= tol)
