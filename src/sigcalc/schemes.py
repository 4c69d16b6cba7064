"""Numerical schemes for exponential and linear functionals.

Three routes to E[exp(<u, X_T>)] and E[<u, X_T>]:

1. integrate the truncated quadratic (Riccati-type) coefficient ODE and
   exponentiate its scalar part;
2. a binomial transport mixture built from repeated explicit half-steps of
   the compiled quadratic field, which postpones blow-up of route 1;
3. exponentiate the linear operator when it preserves the truncation: a dense
   matrix exponential, or a sparse action for expected signatures.

All routes detect and report explosion instead of silently returning junk.
Route 1 stops at the first step at which the coefficients or the value
exp(u_0) stop being finite; it applies no size test, because the
factorial/signature layout scales the coefficient of x^k by k! and a size
test would give a different time in each basis, while overflow happens
within a step of the true blow-up in either.  Neither rule depends on the
step size, so coarse grids are not flagged.
"""

from __future__ import annotations

import cmath
import decimal
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from itertools import count
from typing import Callable

import numpy as np

from .operators import SdeSpec, _Terms, linear_field

# Route 2 flags explosion at a grid value above this magnitude, or whose
# second difference exceeds this fraction of the local scale.
_TRANSPORT_VALUE_LIMIT = 1e10
_TRANSPORT_JUMP_FRACTION = 0.01


@dataclass
class SchemeConfig:
    T: float
    steps: int = 1000
    N: int = 1  # number of transport grid points
    M: int = 1  # transport half-step count per unit time

    def __post_init__(self):
        for name in ("steps", "N", "M"):  # numpy integers too, not bool
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.T < math.inf:
            raise ValueError(f"horizon must be finite and >= 0, got {self.T}")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.N < 1 or self.M < 1:
            raise ValueError("transport needs N >= 1 grid points and M >= 1 half-steps")

    @property
    def transport_lambda(self) -> float:
        return self.M * self.T / self.N


@dataclass
class Trajectory:
    """Time grid, the states at those times, and the explosion time (None
    when the run completed).  ``ode_integrate``'s states are an array with
    one row of coefficients per time; ``scheme1_riccati``'s and
    ``scheme1_stack``'s are u_0 alone, one entry per time; route 2's are the
    grid values.

    Route 1 fills ``stats``: RK4 steps taken, RHS evaluations, the largest
    |entry| of the states kept, and why the run stopped ("completed",
    "non-finite state" or "non-finite value").  Route 2 fills it with the
    half-steps taken, RHS evaluations and why it stopped ("completed",
    "magnitude cut", "smoothness test" or "non-finite value"), and at
    lam > 1 with the decimal digits used and the n log10(2 lam - 1) digits
    the mixture is predicted to cancel.  ``ode_integrate`` fills ``blocks``
    with one trajectory per block of its state."""

    times: np.ndarray
    states: np.ndarray
    explosion_time: float | None = None
    stats: dict | None = None
    blocks: list[Trajectory] | None = None

    @property
    def status(self) -> str:
        return "completed" if self.explosion_time is None else "exploded"


# Route 1 reduces its states through a window of about this many bytes (at
# least one row), so its memory does not grow with the steps times the state.
_WINDOW_BYTES = 256 * 1024


def ode_integrate(
    f: Callable[[np.ndarray], np.ndarray] | _Terms,
    y0: np.ndarray,
    cfg: SchemeConfig,
    starts=(0,),
) -> Trajectory:
    """Fixed-step RK4 for the autonomous ODE y' = f(y) on a state made of
    independent blocks, from each of ``starts`` to the next (one block by
    default: the starts begin at 0 and increase strictly below len(y0)); f
    must not mix blocks, as a stack of fields (``_Terms.stack``) does not.
    A block stops, flagging explosion, at the first step whose state is not
    finite in it; large finite states are integrated as they are.  The loop
    ends when every block has stopped or at T.  At T = 0 the state cannot
    move: every row is y0 and f is not evaluated.

    f is a callable returning complex128, or a compiled field (a ``_Terms``
    of len(y0) entries).  f's argument may be a view of a kept state row,
    so f must neither write to it nor keep it.  A field's states carry its
    trailing 1, whose derivative is exactly 0, and each stage calls
    ``f.kernel`` on them: no copy, check or scatter per evaluation.  Either
    way the step is the same arithmetic, so the field and ``f.apply`` give
    the same bits.

    Every state is kept, in its row of one (steps + 1)-row array: route 1
    (``scheme1_riccati``, ``scheme1_stack``) runs the same loop but keeps u_0
    alone.  The trajectory returned is the loop's: its times and states
    (len(y0) columns, the trailing 1 dropped) run to the last step any
    block kept, and its ``stats`` count the steps taken, the final
    non-finite one included.  Its ``blocks`` hold one trajectory per block,
    whose states are the view of the block's columns up to its first
    non-finite row, with the times, explosion time and stats a separate
    solve of that block returns."""
    f, y, n, starts = _rk4_start(f, y0, starts)
    Y = np.empty((cfg.steps + 1, len(y)), dtype=np.complex128)
    rows = _rk4(f, y, cfg, starts, Y, None)  # steps + 1 rows never fill
    Y = Y[:rows, :n]
    times, (max_abs, finite) = _times(cfg, rows), _reduce(Y, starts)
    kept = _kept(finite)
    bounds = zip(starts.tolist(), [*starts[1:].tolist(), n])
    blocks = [_record(cfg, times, r, Y[:r, lo:hi], float(max_abs[:r, b].max()))
              for b, (r, (lo, hi)) in enumerate(zip(kept, bounds))]
    r = max(kept)
    return _record(cfg, times, r, Y[:r], max(b.stats["max_abs_state"] for b in blocks), blocks)


def scheme1_riccati(
    R_fn: Callable[[np.ndarray], np.ndarray] | _Terms,
    u0: np.ndarray,
    cfg: SchemeConfig,
) -> tuple[Trajectory, np.ndarray]:
    """Route 1: solve du/dt = R(u) truncated, return exp of the scalar slot.

    R_fn is the compiled field (such as ``spec.field.riccati``), which the
    loop steps through its kernel, or any callable on the flat state; the
    field and its ``apply`` give the same bits.  The scalar (empty-word /
    degree-zero) coefficient is assumed to sit at index 0 of the flat
    state, which holds for both coefficient layouts.  One problem is the
    one-block case of ``scheme1_stack``'s loop.

    The loop is ``ode_integrate``'s and gives its bits, but it keeps a
    window of about 256 KiB of states (at least one), reduced to u_0, the
    largest |entry| and finiteness per row each time it fills: memory grows
    with the steps, not with the steps times the state.  The trajectory's
    states are u_0 alone, one entry per time, and its stats are taken over
    the whole state; ``ode_integrate(R_fn, u0, cfg)`` returns every state.

    Explosion is reported at the first step whose state or value exp(u_0)
    is non-finite.  Non-finiteness does not depend on the basis (up to the
    step in which k! pushes an overflowing coefficient past the float range)
    nor on the step size, and a large but finite value such as
    E[exp(7 B_1)] ~ 4e10 is not an explosion.  Right before the blow-up of
    a truncated ODE its values grow without bound, as the truncated solution
    itself does.
    """
    return _route1(R_fn, u0, cfg, (0,))[0]


def scheme1_stack(
    fields: list[_Terms],
    u0s: list[np.ndarray],
    cfg: SchemeConfig,
) -> list[tuple[Trajectory, np.ndarray]]:
    """Route 1 on independent problems at once: the compiled fields (such as
    ``model.field.riccati``) are stacked block-diagonally, and the stack is
    integrated from their initial data in one RK4 loop, which ends when
    every block has stopped or at T.  Returns one (Trajectory, values) per
    field, each with the bits, explosion time and stats of
    ``scheme1_riccati(field, u0, cfg)``: its states are the block's u_0 per
    time, and the "non-finite value" cut is made per block.  Small fields
    cost the loop's per-step overhead once for the whole stack.  The loop
    keeps scheme1_riccati's window of states, so a stack of B problems over
    S steps holds O(S B) numbers, not one state per step."""
    sizes = [len(u) for u in u0s]
    if sizes != [t.size for t in fields]:
        raise ValueError(f"initial data of sizes {sizes} for fields of sizes "
                         f"{[t.size for t in fields]}")
    if not fields:
        return []
    return _route1(_Terms.stack(fields), np.concatenate(u0s), cfg,
                   np.cumsum([0] + sizes[:-1]))


def _route1(f, u0, cfg: SchemeConfig, starts) -> list[tuple[Trajectory, np.ndarray]]:
    """Route 1 on the blocks of u0: ``ode_integrate``'s loop through a
    window of ``_WINDOW_BYTES``, each flush reduced to u_0, the largest
    |entry| and finiteness per block and row, then one (Trajectory,
    values) per block with its values exp(u_0), cut before the first that
    is not finite."""
    f, y, n, starts = _rk4_start(f, u0, starts)
    parts = []  # (u_0, max |entry|, finite) of each flush, rows x blocks

    def flush(rows: np.ndarray) -> None:
        rows = rows[:, :n]
        parts.append((rows[:, starts], *_reduce(rows, starts)))

    rows = min(cfg.steps + 1, max(1, _WINDOW_BYTES // y.nbytes))
    window = np.empty((rows, len(y)), dtype=np.complex128)
    flush(window[:_rk4(f, y, cfg, starts, window, flush)])
    u, max_abs, finite = (np.concatenate(p) for p in zip(*parts))
    u = np.ascontiguousarray(u.T)
    times = _times(cfg, len(finite))
    solved = []
    for b, r in enumerate(_kept(finite)):
        with np.errstate(over="ignore"):
            values = np.exp(u[b, :r])
        bad = np.flatnonzero(~np.isfinite(values))
        c = int(bad[0]) if bad.size else r  # the rows with a finite value
        traj = _record(cfg, times, r, u[b, :c], float(max_abs[:c, b].max(initial=0.0)))
        if c < r:
            traj.times, traj.explosion_time = times[:c], float(times[c])
            traj.stats["stop"] = "non-finite value"
        solved.append((traj, values[:c]))
    return solved


def _rk4_start(f, y0, starts):
    """(f, y, n, starts) of an RK4 run from y0 of n entries: a compiled
    field runs as its kernel, on y0 with the field's trailing 1 appended."""
    y = np.array(y0, dtype=np.complex128)
    n = len(y)
    starts = np.asarray(starts, dtype=np.intp)
    if not (starts.ndim == 1 and starts.size and starts[0] == 0
            and np.all(np.diff(starts) > 0) and starts[-1] < n):
        raise ValueError(f"block starts {starts.tolist()} must begin at 0 and "
                         f"increase strictly below the state's {n} entries")
    if isinstance(f, _Terms):
        if f.size != n:
            raise ValueError(f"initial data of size {n} for a field of size {f.size}")
        f, y = f.kernel, np.append(y, 1.0)
    return f, y, n, starts


def _rk4(f, y, cfg: SchemeConfig, starts: np.ndarray, window: np.ndarray, flush) -> int:
    """Route 1's one RK4 loop.  y and then each step's state are written to
    the next row of ``window``; when every row is written, ``flush(window)``
    is called and writing starts again at row 0.  Returns the rows written
    since the last flush.  Stops after cfg.steps steps or at the first whose
    state is not finite in any block.  At T = 0, f is not evaluated: the
    first step's row is y, tested as a step's, and the later rows repeat it
    one slice of the window per fill, with the same flushes.

    A step has the operands, order and bits of ``y + h/6 (k1 + 2 k2 + 2 k3
    + k4)`` for an f returning complex128, but its scalars are complex128
    once per solve, the stage sum is formed in two arrays made once, and
    the new state is written into its row, which is then y: f's argument
    may be a view of a kept row, so f must neither write to it nor keep it."""
    h = cfg.T / cfg.steps
    h1, h2, h6, two = (np.array(c, dtype=np.complex128) for c in (h, 0.5 * h, h / 6.0, 2.0))
    s, t = np.empty_like(y), np.empty_like(y)
    window[0] = y
    i, left = 1, cfg.steps
    with np.errstate(all="ignore"):
        while left:
            if i == len(window):
                flush(window)
                i = 0
            if h:
                k1 = f(y)  # each stage input is y + (h k), in a fresh array
                k2 = f(np.add(y, a := h2 * k1, out=a))
                k3 = f(np.add(y, a := h2 * k2, out=a))
                k4 = f(np.add(y, a := h1 * k3, out=a))
                np.add(k1, np.multiply(two, k2, out=s), out=s)
                np.add(s, np.multiply(two, k3, out=t), out=s)
                np.multiply(h6, np.add(s, k4, out=s), out=s)
                y = np.add(y, s, out=window[i])
                j = i + 1
            else:  # the state cannot move: after the first step, fill the window
                j = i + 1 if left == cfg.steps else min(len(window), i + left)
                window[i:j] = y
            left -= j - i
            i = j
            # the sum is not finite when an entry is not (nor, rarely, when
            # finite entries overflow it): then test every block
            if (not cmath.isfinite(np.add.reduce(y))
                    and not np.logical_and.reduceat(np.isfinite(y), starts).any()):
                break
    return i


def _reduce(rows: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row and per block of the states: the largest |entry|, and whether
    every entry is finite.  A finite largest |entry| has finite entries, so
    the entries are tested only when some largest |entry| is not finite
    (a NaN or infinite entry, or a finite one whose |entry| overflows)."""
    size = np.maximum.reduceat(np.abs(rows), starts, axis=1)
    finite = np.isfinite(size)
    if not finite.all():
        finite = np.logical_and.reduceat(np.isfinite(rows), starts, axis=1)
    return size, finite


def _kept(finite: np.ndarray) -> list[int]:
    """Rows kept per block: up to its first non-finite row after row 0 (a
    non-finite entry stays so), or all of them."""
    ok = finite[1:]
    return np.where(ok.all(axis=0), len(finite), ok.argmin(axis=0) + 1).tolist()


def _times(cfg: SchemeConfig, rows: int) -> np.ndarray:
    h = cfg.T / cfg.steps
    return np.append(0.0, np.arange(rows - 1) * h + h)


def _record(cfg: SchemeConfig, times: np.ndarray, r: int, states: np.ndarray,
            max_abs_state: float, blocks=None) -> Trajectory:
    """The first r rows of a loop's; fewer than all of them end in an
    explosion."""
    explosion_time = float(times[r]) if r < len(times) else None
    steps = min(r, cfg.steps) if cfg.T / cfg.steps else 0
    stats = {"steps": steps, "rhs_evals": 4 * steps, "max_abs_state": max_abs_state,
             "stop": "completed" if explosion_time is None else "non-finite state"}
    return Trajectory(times[:r], states, explosion_time, stats, blocks)


def scheme2_transport(
    field: _Terms,
    u0: np.ndarray,
    cfg: SchemeConfig,
) -> tuple[Trajectory, np.ndarray]:
    """Route 2: binomial mixture of repeated explicit half-steps of the
    compiled field R, a ``_Terms`` of len(u0) entries such as
    ``model.field.riccati`` (anything else raises TypeError).

    With lam = M T / N and A(u) = u + R(u)/M applied m times,

        v(T n / N) = sum_m C(n, m) (1-lam)^(n-m) lam^m exp(A^m(u)_0).

    One mixture serves every lam: exact integer binomials in decimal
    floating point (the standard library's ``decimal``), each sum taken 40
    digits wider than its terms and rounded once to double.  lam selects
    only the half-step arithmetic.  For lam <= 1 the weights are a
    probability mixture and the half-steps run in complex128 on every row;
    at lam = 0 (T = 0) every weight but u0's is zero and none is taken.
    For lam > 1 the weights alternate in sign and their magnitudes sum to
    (2 lam - 1)^n, so the mixture cancels roughly n log10(2 lam - 1) digits;
    the half-steps then run in ``decimal`` with that many digits to spare,
    on a real state (a complex one raises ValueError).  Only u_0 is read,
    and row k of R reads entries below ``reach[k + 1]``, so half-step n
    updates only the rows that can still reach u_0 by grid point N, with
    the bits of a full evaluation.  The decimal contexts return infinities
    and NaNs instead of raising, and are entered per grid value, so the
    caller's context is left alone.

    Explosion is flagged at the first grid point whose value is non-finite,
    exceeds 1e10 in magnitude, or breaks the smoothness of the value
    sequence (second difference beyond 1% of the local scale) -- truncated
    dynamics lose accuracy a step or two before the values visibly blow up,
    and the smoothness test catches that onset.  Each value is tested as
    soon as its half-step lands, and no half-step is taken past the cut.
    """
    if not isinstance(field, _Terms):
        raise TypeError("route 2 takes a compiled field (a _Terms, such as "
                        f"model.field.riccati), not {type(field).__name__}")
    u = np.array(u0, dtype=np.complex128)
    if field.size != len(u):
        raise ValueError(f"initial data of size {len(u)} for a field of size {field.size}")
    lam = cfg.transport_lambda
    exact = lam > 1.0 + 1e-12
    if exact:
        if np.any(u.imag != 0.0):
            raise ValueError(
                "at lam > 1 the transport runs in decimal arithmetic, which has "
                "no complex type: the state must be real"
            )
        cancel = cfg.N * math.log10(2.0 * lam - 1.0)
        dps = max(30, int(math.ceil(cancel)) + 30)
        precision = {"dps": dps, "predicted_cancellation_digits": cancel}
    else:
        dps, precision = 30, {}
    ctx = decimal.Context(
        prec=dps,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.DivisionByZero],
    )
    wide = ctx.copy()
    wide.prec = dps + 40
    with decimal.localcontext(ctx):
        if exact:
            u = np.array([Decimal(x) for x in u.real.tolist()], dtype=object)
            live = _live_rows(field, cfg.N)
        lam_d = Decimal(cfg.T) * cfg.M / cfg.N
        one_minus = 1 - lam_d
        inv_m = Decimal(1) / cfg.M
    # one list of values per part summed: the real part, and on the float
    # path the imaginary part; the n = 0 powers are 1 (decimal's 0**0 is NaN)
    g = ([],) if exact else ([], [])
    lam_pow, rest_pow = [Decimal(1)], [Decimal(1)]
    times = cfg.T * np.arange(cfg.N + 1) / cfg.N
    values, stop = [], None
    for n in range(cfg.N + 1):
        step = n > 0 and cfg.T > 0  # at T = 0 only u0's value has a weight
        with decimal.localcontext(ctx):
            if exact:
                if step:
                    r = live[n]
                    u[:r] = u[:r] + field.apply(u, r) * inv_m
                g[0].append(u[0].exp())
            else:
                # a non-finite state stays so, and its value is NaN
                with np.errstate(all="ignore"):
                    if step:
                        u = u + field.apply(u) / cfg.M
                    gn = np.exp(u[0]) if np.all(np.isfinite(u)) else np.nan + 0j
                g[0].append(Decimal(gn.real))
                g[1].append(Decimal(gn.imag))
            if n:
                lam_pow.append(lam_d**n)
                rest_pow.append(one_minus**n)
            w = [math.comb(n, m) * rest_pow[n - m] * lam_pow[m] for m in range(n + 1)]
            terms = [[wm * x for wm, x in zip(w, part) if wm] for part in g]
        with decimal.localcontext(wide):
            v = np.complex128(complex(*[sum(t) for t in terms]))
        stop = _transport_cut(v, values)
        if stop:
            break
        values.append(v)
    values = np.array(values, dtype=np.complex128)
    steps = n if cfg.T else 0
    traj = Trajectory(
        times=times[: len(values)],
        states=values,
        explosion_time=float(times[n]) if stop else None,
        stats={"half_steps": steps, "rhs_evals": steps, "stop": stop or "completed",
               **precision},
    )
    return traj, values


def _transport_cut(v: np.complex128, kept: list) -> str | None:
    """Route 2's explosion test of a grid value against the values kept:
    the reason for a cut, or None."""
    with np.errstate(all="ignore"):
        if not np.isfinite(v):
            return "non-finite value"
        if abs(v) > _TRANSPORT_VALUE_LIMIT:
            return "magnitude cut"
        if len(kept) < 2:
            return None
        pred = 2.0 * kept[-1] - kept[-2]
        scale = max(1.0, abs(kept[-1]))
        if abs(v - pred) > _TRANSPORT_JUMP_FRACTION * scale:
            return "smoothness test"
        return None


def _live_rows(field: _Terms, N: int) -> list[int]:
    """live[n]: the rows of the state after half-step n that u_0 after
    half-step N depends on.  Updating the rows below live[n] reads them and
    the entries below ``field.reach[live[n]]``, hence the recursion."""
    live = [1]
    for _ in range(N):
        live.append(max(live[-1], int(field.reach[live[-1]])))
    return live[::-1]


def scheme3_linear(
    G: np.ndarray, u0: np.ndarray, T: float, x0: float | None = None
) -> tuple[np.ndarray, complex | np.ndarray | None]:
    """Route 3: propagate coefficient vectors by the matrix exponential.

    u0 is one coefficient vector (n,) or a block (n, B) of them, one initial
    datum per column: exp(T G) depends on the model and the horizon only, so
    it is formed once for the whole block.  Returns c(T) = exp(T G) u0, of
    u0's shape, and, when a scalar state is supplied, the value
    sum_n c_n(T) x0^n: a complex for a vector, a (B,) complex128 array for a
    block.

    Each column is its own matrix-vector product, so a block returns the bits
    of B single-column calls; one matrix-matrix product would round
    differently.
    """
    u0 = np.asarray(u0, dtype=np.complex128)
    n = len(G)
    if len(u0) != n:
        raise ValueError(f"initial data have {len(u0)} rows but G is {n} x {n}")
    U = u0.reshape(n, -1)
    c = np.empty_like(U)
    with np.errstate(all="ignore"):
        E = matrix_exp(G, T).astype(np.complex128, copy=False)
        for j, col in enumerate(np.ascontiguousarray(U.T)):
            c[:, j] = E @ col
    if not np.all(np.isfinite(c)):
        raise FloatingPointError("linear propagation produced non-finite values")
    value = None
    if x0 is not None:
        # Horner in x0 over the coefficients, all columns at once
        acc = np.zeros(c.shape[1], dtype=np.complex128)
        for ck in c[::-1]:
            acc = acc * x0 + ck
        value = acc if u0.ndim > 1 else complex(acc[0])
    return c.reshape(u0.shape), value


def expected_signature(spec: SdeSpec, N: int, T: float) -> np.ndarray:
    """Route 3 for a tensor model: the expected signature exp(T G^T) e_0 at
    level N, acting with G^T (G the matrix of L) from the field's linear terms
    (k, p, w), each adding w v[k] to entry p: no n x n array is formed.  A
    Taylor series with scaling (Al-Mohy and Higham, SIAM J. Sci. Comput. 2011):
    s = ceil(T ||G^T||_1) steps, each summed until two successive terms fall
    below 2^-53 ||F|| in max norm, or one vanishes (a nilpotent field)."""
    if not 0 <= T < math.inf:
        raise ValueError(f"horizon must be finite and >= 0, got {T}")
    field = linear_field(spec, N)
    k, p, w, n = field.linear.k, field.linear.p, field.linear.w, field.size

    def act(v: np.ndarray) -> np.ndarray:
        wv = w * v[k]
        if np.iscomplexobj(wv):  # bincount takes real weights only
            return np.bincount(p, wv.real, n) + 1j * np.bincount(p, wv.imag, n)
        return np.bincount(p, wv, n)

    s = max(1, math.ceil(T * np.bincount(k, np.abs(w), n).max()))
    F = np.eye(1, n, dtype=w.dtype)[0]
    with np.errstate(all="ignore"):
        for _ in range(s):
            term, c1 = F, np.abs(F).max()
            for j in count(1):
                term = act(term) * (T / s / j)
                F, c2 = F + term, np.abs(term).max()
                if not c2 or not c1 + c2 > 2.0**-53 * np.abs(F).max():
                    break  # also on NaN, which the check below reports
                c1 = c2
    if not np.all(np.isfinite(F)):
        raise FloatingPointError("linear propagation produced non-finite values")
    return F


def matrix_exp(G: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Scaling-and-squaring diagonal Pade (6,6) matrix exponential."""
    A = np.asarray(G, dtype=np.complex128 if np.iscomplexobj(G) else np.float64) * t
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    norm = float(np.max(np.abs(A).sum(axis=0), initial=0.0))
    s = 0
    if norm > 0.5:
        s = max(0, int(math.ceil(math.log2(norm / 0.5))))
    A = A / (2.0**s)

    q = 6
    c = np.zeros(q + 1)
    for j in range(q + 1):
        c[j] = (
            math.factorial(2 * q - j)
            * math.factorial(q)
            / (math.factorial(2 * q) * math.factorial(j) * math.factorial(q - j))
        )
    I = np.eye(n, dtype=A.dtype)
    A2 = A @ A
    U = c[1] * I + c[3] * A2 + c[5] * (A2 @ A2)
    U = A @ U
    V = c[0] * I + c[2] * A2 + c[4] * (A2 @ A2) + c[6] * (A2 @ A2 @ A2)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E
