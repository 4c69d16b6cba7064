"""Metric catalogue and the arithmetic that turns runs into metric values.

``BENCHMARK.json`` at the repository root lists the same names, units and
bounds; ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening share


# Reported with tracing off, on every workload.  Times carry the largest
# bound the benchmark contract allows: even after host-speed normalisation a
# single long instance varies by about 10% between runs on the shared host.
END_TO_END = [
    Metric("wall_s", "s", "lower", 0.25),
    Metric("solve_p50_s", "s", "lower", 0.25),
    Metric("solve_tail_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("margin_digits", "digits", "higher", 0.25),
    Metric("horizon_frac", "frac", "higher", 0.05),
    Metric("pass_frac", "frac", "higher", 0.05),
]


def _calls_self(prefix: str) -> list[Metric]:
    return [Metric(prefix + ".calls", "count", "lower"),
            Metric(prefix + ".self_s", "s", "lower")]


# Reported by the traced run, on every workload; a layer the workload does
# not reach, or a function that no longer exists, reads zero.
PER_LAYER = [
    *_calls_self("tensor.tables"),
    *_calls_self("tensor.shuffle"),
    *_calls_self("tensor.shift1"),
    *_calls_self("operators.R_op"),
    Metric("operators.R_op.us_per_call", "us", "lower"),
    *_calls_self("operators.L_op"),
    Metric("operators.linear_matrix.self_s", "s", "lower"),
    *_calls_self("powerseries.R_sig.f64"),
    *_calls_self("powerseries.R_sig.mp"),
    *_calls_self("powerseries.binom_conv.f64"),
    *_calls_self("powerseries.binom_conv.mp"),
    *_calls_self("powerseries.R_pow"),
    Metric("powerseries.linear_matrix_1d.self_s", "s", "lower"),
    Metric("powerseries.exp_conv.self_s", "s", "lower"),
    *_calls_self("schemes.ode_integrate"),
    Metric("schemes.ode_integrate.rhs_evals", "count", "lower"),
    Metric("schemes.ode_integrate.steps", "count", "lower"),
    Metric("schemes.scheme2_transport.f64.self_s", "s", "lower"),
    Metric("schemes.scheme2_transport.f64.rhs_evals", "count", "lower"),
    Metric("schemes.scheme2_transport.mp.self_s", "s", "lower"),
    Metric("schemes.scheme2_transport.mp.rhs_evals", "count", "lower"),
    Metric("schemes.scheme2_transport.useful_frac", "frac", "higher"),
    Metric("schemes.scheme3_linear.self_s", "s", "lower"),
    *_calls_self("schemes.matrix_exp"),
    Metric("montecarlo.simulate_sigsde.self_s", "s", "lower"),
    Metric("montecarlo.simulate_sigsde.path_steps", "count", "higher"),
    Metric("montecarlo.simulate_sigsde.ns_per_path_step", "ns", "lower"),
    Metric("montecarlo.simulate_sigsde.clamped_steps", "count", "lower"),
    *_calls_self("montecarlo.gauss_hermite_expectation"),
    Metric("cli.bm-quartic.self_s", "s", "lower"),
    Metric("cli.levy-area.self_s", "s", "lower"),
    Metric("cli.gbm-laplace.self_s", "s", "lower"),
    Metric("cli.expected-sig.self_s", "s", "lower"),
    Metric("cli.jacobi-mgf.self_s", "s", "lower"),
    *_calls_self("report.write"),
    Metric("trace.untraced_wall_s", "s", "lower"),
    Metric("trace.traced_wall_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
    Metric("trace.spans", "count", "lower"),
]


def layer_values(agg: dict, counters: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric from span aggregates, hook counters and the
    run-level numbers in ``extra``.

    Per-call costs are inclusive: ``R_op.us_per_call`` is R_op's whole
    duration per call (shuffles and shifts included), ``ns_per_path_step``
    the whole simulate_sigsde duration per path-step.
    """

    def span(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    derived = {
        "operators.R_op.us_per_call": (
            1e6 * span("operators.R_op", "total_s") / span("operators.R_op", "calls")
            if span("operators.R_op", "calls") else 0.0
        ),
        "montecarlo.simulate_sigsde.ns_per_path_step": (
            1e9 * span("montecarlo.simulate_sigsde", "total_s")
            / counters["montecarlo.simulate_sigsde.path_steps"]
            if counters.get("montecarlo.simulate_sigsde.path_steps") else 0.0
        ),
        "schemes.scheme2_transport.useful_frac": (
            counters["schemes.scheme2_transport.useful_steps"]
            / counters["schemes.scheme2_transport.requested_steps"]
            if counters.get("schemes.scheme2_transport.requested_steps") else 0.0
        ),
    }
    out = {}
    for m in PER_LAYER:
        n = m.name
        if n in extra:
            out[n] = extra[n]
        elif n in derived:
            out[n] = derived[n]
        elif n.endswith(".calls"):
            out[n] = span(n[: -len(".calls")], "calls")
        elif n.endswith(".self_s"):
            out[n] = span(n[: -len(".self_s")], "self_s")
        else:
            out[n] = counters.get(n, 0)
    return out


def tail_stats(times: list[float]) -> tuple[float, float]:
    """(tail value, tail percentile) of per-instance solve times.

    The tail is the highest percentile with at least ten instances beyond
    it, i.e. the eleventh-largest time at percentile 100 (n - 10) / n.  With
    ten or fewer instances no percentile qualifies and the maximum is
    reported at percentile 100.
    """
    if not times:
        raise ValueError("no instance times")
    srt = sorted(times)
    n = len(srt)
    if n <= 10:
        return srt[-1], 100.0
    return srt[n - 11], 100.0 * (n - 10) / n
