"""Spans, self time and by-name wrappers for the traced benchmark run.

The traced run wraps public sigcalc functions from the outside: each probe
names a function by module and qualified name, and installing it replaces
every reference to that function object in the loaded ``sigcalc`` modules
(so ``from .tensor import tables`` aliases are caught too).  A probe whose
function no longer exists installs nothing and its metrics read zero calls.

Spans live in flat arrays while the run lasts and are written out when it
ends.  Self time is computed offline: a span's duration minus the union of
its direct children's intervals.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inst = array("i")
        self._stack: list[int] = []
        self.instance = -1
        self.counters: Counter = Counter()

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def rename(self, idx: int, name: str) -> None:
        self.name_id[idx] = self._name(name)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write(self, path: str) -> None:
        """Write every span as gzip CSV: id, name, start, end, parent, instance."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "instance"])
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                out.writerow(
                    [
                        i,
                        self.span_name(i),
                        f"{self.start[i] - t0:.9f}",
                        f"{self.end[i] - t0:.9f}",
                        self.parent[i],
                        self.inst[i],
                    ]
                )


class NullTracer:
    """Stand-in used for untraced passes: spans cost nothing."""

    instance = -1

    def span(self, name: str):
        return contextlib.nullcontext()


def self_times(starts, ends, parents) -> list[float]:
    """Per span: duration minus the part of it covered by its child spans.

    Children may overlap one another; their union is subtracted once, and
    only the part inside the parent's interval counts.
    """
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: starts[k]):
            lo, hi = max(starts[k], lo_p), min(ends[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def aggregate(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed inclusive time."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    agg: dict[str, dict[str, float]] = {}
    for i in range(len(tracer)):
        rec = agg.setdefault(
            tracer.span_name(i), {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        rec["total_s"] += tracer.end[i] - tracer.start[i]
    return agg


# -- probes -----------------------------------------------------------------


@dataclass
class Probe:
    """A function resolved by name and the hooks run around each call.

    ``split`` picks a suffix for the span name from the bound arguments,
    ``before`` may replace arguments (to count callback evaluations) and
    ``after`` records counters from the result.
    """

    layer: str
    module: str
    qualname: str
    split: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None


def _dtype_split(argname: str):
    def split(args):
        coeffs = getattr(args.get(argname), "coeffs", None)
        return "mp" if getattr(coeffs, "dtype", None) == object else "f64"

    return split


def _count_rhs(tracer: Tracer, counter: str, args: dict, argname: str, seen: dict):
    fn = args.get(argname)
    if not callable(fn):
        return

    def counted(*a, **k):
        tracer.counters[counter] += 1
        if "dtype" not in seen:
            y = a[-1] if a else None
            seen["dtype"] = "mp" if getattr(y, "dtype", None) == object else "f64"
        return fn(*a, **k)

    args[argname] = counted


def _ode_before(tracer, args, seen):
    _count_rhs(tracer, "schemes.ode_integrate.rhs_evals", args, "f", seen)


def _ode_after(tracer, idx, args, result, seen):
    times = getattr(result, "times", None)
    if times is not None:
        tracer.counters["schemes.ode_integrate.steps"] += len(times) - 1


def _transport_before(tracer, args, seen):
    _count_rhs(tracer, "schemes.scheme2_transport.rhs", args, "R_fn", seen)


def _transport_after(tracer, idx, args, result, seen):
    path = seen.get("dtype", "f64")
    tracer.rename(idx, "schemes.scheme2_transport." + path)
    evals = tracer.counters.pop("schemes.scheme2_transport.rhs", 0)
    tracer.counters[f"schemes.scheme2_transport.{path}.rhs_evals"] += evals
    cfg = args.get("cfg")
    traj = result[0] if isinstance(result, tuple) else result
    times = getattr(traj, "times", None)
    if cfg is not None and times is not None:
        tracer.counters["schemes.scheme2_transport.useful_steps"] += max(len(times) - 1, 0)
        tracer.counters["schemes.scheme2_transport.requested_steps"] += cfg.N


def _sim_after(tracer, idx, args, result, seen):
    cfg, T = args.get("cfg"), args.get("T")
    if cfg is not None and T is not None:
        steps = max(1, round(T / cfg.dt))
        tracer.counters["montecarlo.simulate_sigsde.path_steps"] += cfg.n_paths * steps
    tracer.counters["montecarlo.simulate_sigsde.clamped_steps"] += getattr(
        result, "clamped_steps", 0
    )


PROBES = [
    Probe("tensor.tables", "sigcalc.tensor", "tables"),
    Probe("tensor.shuffle", "sigcalc.tensor", "TensorCoeffs.shuffle"),
    Probe("tensor.shift1", "sigcalc.tensor", "TensorCoeffs.shift1"),
    Probe("operators.R_op", "sigcalc.operators", "R_op"),
    Probe("operators.L_op", "sigcalc.operators", "L_op"),
    Probe("operators.linear_matrix", "sigcalc.operators", "linear_matrix"),
    Probe("powerseries.R_sig", "sigcalc.powerseries", "R_sig", split=_dtype_split("u")),
    Probe(
        "powerseries.binom_conv", "sigcalc.powerseries", "binom_conv",
        split=_dtype_split("u"),
    ),
    Probe("powerseries.R_pow", "sigcalc.powerseries", "R_pow"),
    Probe("powerseries.linear_matrix_1d", "sigcalc.powerseries", "linear_matrix_1d"),
    Probe("powerseries.exp_conv", "sigcalc.powerseries", "exp_conv"),
    Probe(
        "schemes.ode_integrate", "sigcalc.schemes", "ode_integrate",
        before=_ode_before, after=_ode_after,
    ),
    Probe(
        "schemes.scheme2_transport", "sigcalc.schemes", "scheme2_transport",
        before=_transport_before, after=_transport_after,
    ),
    Probe("schemes.scheme3_linear", "sigcalc.schemes", "scheme3_linear"),
    Probe("schemes.matrix_exp", "sigcalc.schemes", "matrix_exp"),
    Probe(
        "montecarlo.simulate_sigsde", "sigcalc.montecarlo", "simulate_sigsde",
        after=_sim_after,
    ),
    Probe(
        "montecarlo.gauss_hermite_expectation", "sigcalc.montecarlo",
        "gauss_hermite_expectation",
    ),
    Probe("report.write", "sigcalc.report", "write_csv"),
    Probe("report.write", "sigcalc.report", "write_svg"),
    Probe("report.write", "sigcalc.report", "RunReport.write"),
]


def _resolve(module: str, qualname: str):
    """(owner, attribute name, function) or None when the target is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _make_wrapper(tracer: Tracer, probe: Probe, fn):
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        sig = None
    hooked = probe.split or probe.before or probe.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not hooked or sig is None:
            idx = tracer.begin(probe.layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            bound = None
        named = dict(bound.arguments) if bound is not None else {}
        seen: dict = {}
        name = probe.layer
        if probe.split is not None:
            name += "." + probe.split(named)
        if probe.before is not None and bound is not None:
            probe.before(tracer, named, seen)
            bound.arguments.update(named)
            args, kwargs = bound.args, bound.kwargs
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if probe.after is not None:
            probe.after(tracer, idx, named, result, seen)
        return result

    return wrapper


def install(tracer: Tracer, probes: list[Probe] = PROBES) -> Callable[[], None]:
    """Wrap every probe target that exists; return a function undoing it."""
    undo: list[tuple[object, str, object]] = []
    for probe in probes:
        found = _resolve(probe.module, probe.qualname)
        if found is None:
            continue
        owner, attr, fn = found
        wrapper = _make_wrapper(tracer, probe, fn)
        undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sigcalc" or name.startswith("sigcalc.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    return uninstall
