import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sigcalc.montecarlo import SimConfig, _block_rng
from sigcalc.powerseries import Model1D
from sigcalc.schemes import Trajectory
from sigcalc.tensor import TensorCoeffs, all_words, level_offsets, n_words, shuffle_word_pair, word_index


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_tensor(rng, d, N, scale=0.5, complex_=True, zero_scalar=False):
    size = n_words(d, N)
    c = rng.normal(size=size) * scale
    if complex_:
        c = c + 1j * rng.normal(size=size) * scale
    out = TensorCoeffs(d, N, c)
    if zero_scalar:
        out[()] = 0.0
    return out


def series(K, *c):
    """c_0 + c_1 x + ... as a complex128 coefficient array of degree K."""
    out = np.zeros(K + 1, dtype=np.complex128)
    out[: len(c)] = c
    return out


def delta(k, K, value=1.0):
    """value x^k as a complex128 coefficient array of degree K."""
    out = np.zeros(K + 1, dtype=np.complex128)
    out[k] = value
    return out


def from_factorial_basis(u):
    """Rescale u_k -> u_k / k! (signature-coefficient to monomial basis)."""
    return u / np.array([math.factorial(k) for k in range(len(u))], dtype=np.float64)


# -- scalar models the tests use beyond the stock ones --------------------------


def shifted_jacobi_model(K, x0=-0.5):
    """Jacobi diffusion shifted to [-1, 0]: squared diffusion -(x^2 + x)."""
    return Model1D(
        b=series(K), a=series(K, 0.0, -1.0, -1.0), x0=x0, name="shifted_jacobi",
        state_interval=(-1.0, 0.0),
    )


def cubic_interval_model(K, x0=0.5):
    """Diffusion on [0, 1] with squared diffusion x(1-x)(1-x/2)."""
    return Model1D(
        b=series(K), a=series(K, 0.0, 1.0, -1.5, 0.5), x0=x0, name="cubic_interval",
        state_interval=(0.0, 1.0),
    )


def wright_fisher_model(b_weights, K, x0=0.5):
    """Mutation-selection diffusion: drift sum_n b_n (x^n - x^{n+1}),
    squared diffusion x(1 - x)."""
    b = series(K)
    prev = 0.0
    for n in range(1, K + 1):
        cur = b_weights[n - 1] if n - 1 < len(b_weights) else 0.0
        b[n] = cur - prev
        prev = cur
    return Model1D(
        b=b, a=series(K, 0.0, 1.0, -1.0), x0=x0, name="wright_fisher",
        state_interval=(0.0, 1.0),
    )


@dataclass
class Sim1DResult:
    finals: np.ndarray
    clamped_steps: int
    n_steps: int


def simulate_1d(model: Model1D, cfg: SimConfig, T: float) -> Sim1DResult:
    """Euler paths of the scalar model; negative squared diffusion is clamped
    to zero and counted.  The Monte Carlo oracle of the scalar models, drawn
    from the same per-block substreams as ``simulate_sigsde``.  Its buffers
    are allocated once per call; each step runs ``np.polyval``'s Horner loop
    and the Euler update in place, operation for operation, so the paths
    have the bits of the allocating form
    x + b(x) dt + sqrt(max(a(x), 0)) sqrt(dt) Z."""
    steps = max(1, round(T / cfg.dt))
    dt = T / steps
    sqrt_dt = math.sqrt(dt)
    finals = np.empty(cfg.n_paths)
    clamped = 0
    bc = np.ascontiguousarray(model.b.real[::-1])
    ac = np.ascontiguousarray(model.a.real[::-1])
    size = min(cfg.block_size, cfg.n_paths)
    buffers = [np.empty(size) for _ in range(4)] + [np.empty(size, dtype=bool)]

    def horner(coeffs, x, out):
        out[:] = 0.0
        for c in coeffs:
            np.multiply(out, x, out=out)
            np.add(out, c, out=out)

    for blk, lo in enumerate(range(0, cfg.n_paths, cfg.block_size)):
        nb = min(cfg.block_size, cfg.n_paths - lo)
        rng = _block_rng(cfg.seed, blk)
        x, drift, diff2, z, neg = (b[:nb] for b in buffers)
        x.fill(model.x0)
        for _ in range(steps):
            horner(bc, x, drift)
            horner(ac, x, diff2)
            np.less(diff2, 0, out=neg)
            clamped += int(np.count_nonzero(neg))
            np.maximum(diff2, 0.0, out=diff2)
            np.multiply(drift, dt, out=drift)
            np.add(x, drift, out=x)
            np.sqrt(diff2, out=diff2)
            np.multiply(diff2, sqrt_dt, out=diff2)
            rng.standard_normal(out=z)
            np.multiply(diff2, z, out=diff2)
            np.add(x, diff2, out=x)
        finals[lo : lo + nb] = x
    return Sim1DResult(finals=finals, clamped_steps=clamped, n_steps=steps)


def tables_reference(d, N):
    """The ten index arrays of ``tensor.tables(d, N)``, built word by word:
    shuffle triplets (i, j, k, c) grouped per word pair (i, j) in rank order,
    then concatenation triplets per word k and cut."""
    words = list(all_words(d, N))
    tri_i, tri_j, tri_k, tri_c = [], [], [], []
    pr_i, pr_j, pr_start = [], [], []
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if len(wi) + len(wj) > N:
                continue
            pr_i.append(i)
            pr_j.append(j)
            pr_start.append(len(tri_i))
            for w, c in shuffle_word_pair(wi, wj):
                tri_i.append(i)
                tri_j.append(j)
                tri_k.append(word_index(w, d))
                tri_c.append(c)
    ci, cj, ck = [], [], []
    for k, w in enumerate(words):
        for cut in range(len(w) + 1):
            ci.append(word_index(w[:cut], d))
            cj.append(word_index(w[cut:], d))
            ck.append(k)
    out = dict(sh_i=tri_i, sh_j=tri_j, sh_k=tri_k, pair_i=pr_i, pair_j=pr_j,
               pair_start=pr_start, cc_i=ci, cc_j=cj, cc_k=ck)
    out = {name: np.array(v, dtype=np.int64) for name, v in out.items()}
    out["sh_c"] = np.array(tri_c, dtype=np.float64)
    return out


def ode_integrate_reference(f, y0, cfg):
    """Fixed-step RK4 with one call per step: the loop ``ode_integrate``
    inlines, kept to pin its bits (times, states, explosion time)."""

    def rk4_step(y, h):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = np.asarray(y0, dtype=np.complex128).copy()
    h = cfg.T / cfg.steps
    times = [0.0]
    states = [y.copy()]
    explosion_time = None
    with np.errstate(all="ignore"):
        for k in range(cfg.steps):
            t = k * h
            y_new = rk4_step(y, h)
            if not np.all(np.isfinite(y_new)):
                explosion_time = t + h
                break
            y = y_new
            times.append(t + h)
            states.append(y.copy())
    return Trajectory(times=np.array(times), states=states, explosion_time=explosion_time)


def concat_exp(x):
    """exp of x under the concatenation product; scalar part must be 0."""
    if x.coeffs[0] != 0:
        raise ValueError("concatenation exponential needs zero scalar part")
    acc = TensorCoeffs.unit(x.d, x.N)
    term = TensorCoeffs.unit(x.d, x.N)
    for k in range(1, x.N + 1):
        term = term.concat(x) * (1.0 / k)
        acc = acc + term
    return acc


def path_to_csv(path):
    """A sampled path in the CSV layout ``PiecewisePath.from_csv`` reads."""
    header = "t," + ",".join(f"x{i}" for i in range(1, path.d + 1))
    lines = [header]
    for t, row in zip(path.times, path.points):
        lines.append(f"{float(t)!r}," + ",".join(f"{float(v)!r}" for v in row))
    return "\n".join(lines) + "\n"


def d1_image(model):
    """A scalar model as the d=1 signature model with the same dynamics.

    Returns (spec, to_d1): a polynomial in x is a linear functional of the
    signature of the one-dimensional path, with coefficients k! u_k, so the
    drift and squared diffusion map through ``to_factorial_basis``, and so
    does ``to_d1`` for states.
    """
    from sigcalc.operators import SdeSpec
    from sigcalc.powerseries import to_factorial_basis

    def to_d1(u):
        return TensorCoeffs(1, len(u) - 1, to_factorial_basis(u))

    spec = SdeSpec(d=1, x0=[model.x0], b=[to_d1(model.b)], a=[[to_d1(model.a)]])
    return spec, to_d1


def shift1(u):
    """Right one-letter shifts: component k collects the words ending in
    letter k + 1, with that letter stripped; d elements truncated at N - 1.

    In the level-major layout, the level-n block read as a (d^(n-1), d)
    array holds the word p.k at row rank(p), column k - 1; so column k - 1
    is level n - 1 of the shift by letter k.
    """
    d, N = u.d, u.N
    if N < 1:
        raise ValueError("shift needs truncation level >= 1")
    offs = level_offsets(d, N)
    out = [TensorCoeffs(d, N - 1) for _ in range(d)]
    for n in range(1, N + 1):
        block = u.coeffs[offs[n] : offs[n + 1]].reshape(-1, d)
        for k in range(d):
            out[k].coeffs[offs[n - 1] : offs[n]] = block[:, k]
    return out


def shift2(u):
    """Right two-letter shifts: entry [k][l] strips the suffix (k+1, l+1)."""
    if u.N < 2:
        raise ValueError("second shift needs truncation level >= 2")
    return [shift1(c) for c in shift1(u)]


def _shifted(u, times):
    """Right shifts by 1 or 2 letters, padded back to u's truncation.

    One shift of an element at N = 0 is zero, as are two shifts at N <= 1.
    """
    d, N = u.d, u.N
    if N < times:
        zero = TensorCoeffs.zero(d, N)
        return [zero] * d if times == 1 else [[zero] * d for _ in range(d)]
    if times == 1:
        return [c.with_truncation(N) for c in shift1(u)]
    return [[c.with_truncation(N) for c in row] for row in shift2(u)]


def R_reference(u, spec):
    """R(u) = b.u1 + (1/2) tr(a sh (u2 + u1 u1^T)), spelled out term by term.

    The paper's formula with the tensor algebra's own shifts and shuffles;
    the compiled field behind ``R_op`` is checked against it.
    """
    d = spec.d
    u1, u2 = _shifted(u, 1), _shifted(u, 2)
    out = TensorCoeffs.zero(d, u.N)
    for i in range(d):
        out = out + spec.b[i].shuffle(u1[i])
    for i in range(d):
        for j in range(d):
            m_ji = u2[j][i] + u1[j].shuffle(u1[i])
            out = out + 0.5 * spec.a[i][j].shuffle(m_ji)
    return out


def L_reference(u, spec):
    """L(u) = b.u1 + (1/2) tr(a sh u2), spelled out term by term."""
    d = spec.d
    u1, u2 = _shifted(u, 1), _shifted(u, 2)
    out = TensorCoeffs.zero(d, u.N)
    for i in range(d):
        out = out + spec.b[i].shuffle(u1[i])
    for i in range(d):
        for j in range(d):
            out = out + 0.5 * spec.a[i][j].shuffle(u2[j][i])
    return out


def linear_to_riccati(times, c_states, u0, spec):
    """Rebuild Riccati solutions from a linear-equation trajectory.

    The paper's duality between the linear and the Riccati equation: given
    c(t) with nonvanishing scalar part and c(0) = shuffle_exp(u0), the
    exponent is psi(t) = [u0_0 + int (L c)_0 / c_0] e_0 + shuffle_log(c/c_0),
    the integral taken by the trapezoidal rule on ``times``.
    """
    times = np.asarray(times, dtype=np.float64)
    integrand = np.array([spec.field.linear.apply(c.coeffs)[0] / c.coeffs[0] for c in c_states])
    psi0 = u0.coeffs[0] + np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times))]
    )
    out = []
    for k, c in enumerate(c_states):
        bar = (c * (1.0 / c.coeffs[0])).shuffle_log()
        bar.coeffs[0] = psi0[k]
        out.append(bar)
    return out


def _derivative(u):
    """u -> u' in the monomial basis, (k + 1) u_{k+1} at k, padded with 0."""
    out = np.zeros_like(u)
    out[:-1] = np.arange(1, len(u)) * u[1:]
    return out


def _cauchy(x, y):
    """Cauchy product truncated to len(x): ``np.convolve`` on numbers; on
    objects, the products of nonzero pairs added in (i, j) order."""
    K = len(x) - 1
    if x.dtype != object and y.dtype != object:
        return np.convolve(x, y)[: K + 1]
    out = np.zeros(K + 1, dtype=object)
    for i in np.flatnonzero(x != 0):
        for j in np.flatnonzero(y != 0):
            if i + j <= K:
                out[i + j] = out[i + j] + x[i] * y[j]
    return out


def _pow_coefficients(model, u):
    """b and a/2 of a scalar model, for an object state as exact objects of
    the type of its first nonzero entry (a real model only)."""
    b, ah = model.b, model.a * 0.5
    nonzero = [z for z in u if z != 0] if u.dtype == object else []
    if not nonzero:
        return b, ah
    scalar = type(nonzero[0])
    return tuple(
        np.array([scalar(float(z.real)) if z else 0 for z in c], dtype=object)
        for c in (b, ah)
    )


def R_pow_reference(u, model):
    """R(u) = b u' + (1/2) a (u'' + u' u'), with dense Cauchy products.

    The formula the scalar operators evaluated before the model was
    compiled; the field behind ``R_pow``, the one ``R_op`` reads, is
    checked against it.  Like ``R_pow``, it takes and returns coefficient
    arrays, u_k at index k.
    """
    b, ah = _pow_coefficients(model, u)
    u1 = _derivative(u)
    u2 = _derivative(u1)
    return _cauchy(b, u1) + _cauchy(ah, u2 + _cauchy(u1, u1))


def L_pow_reference(u, model):
    """L(u) = b u' + (1/2) a u'', with dense Cauchy products."""
    b, ah = _pow_coefficients(model, u)
    u1 = _derivative(u)
    return _cauchy(b, u1) + _cauchy(ah, _derivative(u1))


def random_path(rng, d, n_segments=4, scale=1.0):
    from sigcalc.signature import PiecewisePath

    times = np.sort(rng.uniform(0.0, 1.0, size=n_segments + 1))
    times[0] = 0.0
    points = rng.normal(size=(n_segments + 1, d)) * scale
    return PiecewisePath(times, points)


def quartic_blowup_reference(K, t_max):
    """Blow-up time of the truncated quartic-exponent ODE, or None.

    The oracle shares no code with sigcalc: the Brownian coefficient ODE
    dh/dt = h''/2 + (h')^2/2 for h(0, x) = -x^4/24, projected onto degree
    <= K, is written out in monomial coordinates and solved by scipy's
    DOP853 at rtol 1e-10.  Blow-up is where the coefficients pass 1e100 or
    the solver can no longer take a step; None means the solution stays
    finite on [0, t_max].
    """
    k = np.arange(K + 1)

    def rhs(_t, c):
        d1 = k[1:] * c[1:]
        out = 0.5 * np.convolve(d1, d1)[: K + 1]  # K >= 2 fills all K + 1 slots
        out[: K - 1] += 0.5 * k[2:] * (k[2:] - 1) * c[2:]
        return out

    def huge(_t, c):
        return np.max(np.abs(c)) - 1e100

    huge.terminal = True
    c0 = np.zeros(K + 1)
    c0[4] = -1.0 / 24.0
    sol = solve_ivp(rhs, (0.0, t_max), c0, method="DOP853", rtol=1e-10, atol=1e-12, events=huge)
    return None if sol.status == 0 else float(sol.t[-1])
