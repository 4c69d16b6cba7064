"""Tiny-size tests of the benchmark's own machinery (no workload is run)."""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import metrics
import oracles
import run
import tracing
import workloads


@pytest.fixture
def fake_module():
    """A throwaway ``sigcalc.*`` module so probes can be installed on it."""
    name = "sigcalc._perfbench_fake"
    mod = types.ModuleType(name)

    def double(x):
        return 2 * x

    def outer(x):
        return mod.double(x) + 1

    mod.double, mod.outer = double, outer
    sys.modules[name] = mod
    yield mod
    del sys.modules[name]


def test_wrapper_counts_calls_and_uninstalls(fake_module):
    tracer = tracing.Tracer()
    original = fake_module.double
    undo = tracing.install(
        tracer,
        [tracing.Probe("fake.double", fake_module.__name__, "double"),
         tracing.Probe("fake.outer", fake_module.__name__, "outer")],
    )
    assert fake_module.outer(3) == 7
    assert fake_module.double(1) == 2
    undo()
    assert fake_module.double is original
    agg = tracing.aggregate(tracer)
    assert agg["fake.double"]["calls"] == 2
    assert agg["fake.outer"]["calls"] == 1


def test_wrapper_on_missing_function_reports_zero_calls(fake_module):
    tracer = tracing.Tracer()
    probes = [
        tracing.Probe("operators.L_op", fake_module.__name__, "no_such_function"),
        tracing.Probe("schemes.matrix_exp", "sigcalc._perfbench_absent", "matrix_exp"),
        tracing.Probe("tensor.shuffle", fake_module.__name__, "Missing.shuffle"),
    ]
    tracing.install(tracer, probes)()
    values = metrics.layer_values(tracing.aggregate(tracer), tracer.counters, {})
    for name in ("operators.L_op.calls", "schemes.matrix_exp.calls",
                 "tensor.shuffle.calls", "operators.L_op.self_s"):
        assert values[name] == 0
    assert len(tracer) == 0


def test_self_time_is_duration_minus_child_coverage():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap (union 4), a third
    # child [8, 12] sticks out of the parent (2 inside); a grandchild inside
    # [1, 3] must not count against the parent
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_tracer_nesting_records_parent_and_instance():
    tracer = tracing.Tracer()
    tracer.instance = 4
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    assert tracer.parent[1] == outer and tracer.parent[0] == -1
    assert list(tracer.inst) == [4, 4]
    agg = tracing.aggregate(tracer)
    inner = agg["inner"]["total_s"]
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["total_s"] - inner)


def test_each_metric_prints_with_name_and_unit():
    for catalogue in (metrics.END_TO_END, metrics.PER_LAYER):
        values = {m.name: 1.5 for m in catalogue}
        lines = run.metric_lines(catalogue, values)
        res = json.loads(json.dumps(run.result(
            catalogue, values, {"attempted": 3, "failed": 0})))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        for m, line in zip(catalogue, lines):
            assert line == f"metric {m.name} = 1.5 {m.unit}"
            assert res["metrics"][m.name] == {"value": 1.5, "unit": m.unit}


def test_benchmark_json_matches_catalogue():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert metrics.tail_stats([3.0, 1.0, 2.0]) == (3.0, 100.0)
    times = [float(i) for i in range(1, 21)]
    tail, pct = metrics.tail_stats(times)
    assert tail == 10.0 and pct == 50.0
    assert sum(t > tail for t in times) == 10


def test_oracles_against_closed_forms():
    gauss = oracles.GaussianExpectation()
    assert gauss(lambda z: np.exp(0.7 * z), 2.0) == pytest.approx(math.exp(0.49), rel=1e-13)
    assert oracles.quartic(gauss, 0.0) == 1.0
    sigma, s0 = 0.3, 1.7
    assert abs(oracles.lognormal_word(1, sigma, s0, 1.0)) < 1e-15
    assert oracles.lognormal_word(2, sigma, s0, 1.0) == pytest.approx(
        s0**2 * math.expm1(sigma**2) / 2, rel=1e-14
    )
    assert oracles.jacobi_two_point(0.0, 0.3) == pytest.approx(1.0)


def test_margin_floors_error_at_double_resolution():
    exact = oracles.Check("exact", 0.0, 1e-10)
    assert exact.passed
    assert exact.margin_digits == pytest.approx(math.log10(1e-10 / oracles.EPS))
    assert not oracles.Check("bad", math.nan, 1.0).passed
    assert oracles.Check("bad", 2.0, 1.0).margin_digits < 0



def test_calibration_inside_a_block_is_subtracted_and_undone():
    import signal
    import time

    import speed

    handler = signal.getsignal(signal.SIGALRM)
    speedo = speed.Speedometer()
    speedo.measure(1)
    with speedo.during() as rec:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            pass
    assert rec.paused_s > 0 and rec.scale > 0
    assert len(speedo.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
