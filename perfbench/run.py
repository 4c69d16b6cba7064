"""sigcalc benchmark runner.

One workload per process:

    python3 perfbench/run.py --workload quartic-mp --seed 1 --seconds 20 --trace 0

runs the workload's problem set repeatedly for about ``--seconds`` seconds
with tracing off and prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass instead and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is the result JSON.

    python3 perfbench/run.py --all --seed 1 --seconds 20

runs every workload both ways in child processes and prints every metric
with its unit.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark's own modules import numpy, so they are imported inside the
# functions below, after pin_environment() has fixed the BLAS thread count.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("quartic-mp", "riccati-f64", "linear-expsig", "sig-mc")

# One BLAS thread (at most nproc): an unpinned OpenBLAS pool on two cores
# turned a 2.4 ms median matrix exponential into a 260 ms worst case.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 5


def pin_environment() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import hashlib
    from importlib import metadata, util

    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sigcalc").glob("*.py")):
        digest.update(path.read_bytes())
    has_tpc = util.find_spec("threadpoolctl") is not None
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "SIGCALC_THREADS": (
            "applied through threadpoolctl" if has_tpc
            else "no effect: threadpoolctl is not installed"
        ),
    }


def time_setup(args, speedo) -> tuple[float, float]:
    """(raw, normalised) seconds from starting a fresh interpreter to the
    workload being ready."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    first = len(speedo.samples)
    speedo.measure()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    speedo.measure()
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + proc.stderr[-2000:])
    slices = speedo.samples[first:]
    return elapsed, elapsed * speed.REF_SLICE_S / statistics.median(slices)


# -- passes over the problem set ------------------------------------------------


def judge(inst, out, error) -> dict:
    """Run the instance's oracle; an exception in solve or check is a failure."""
    rec = {"label": inst.label, "error": error, "checks": [], "delivered": 0,
           "requested": 1, "info": {}}
    if error is None:
        try:
            outcome = inst.check(out)
        except Exception as exc:  # noqa: BLE001 -- a broken output is a failed instance
            rec["error"] = f"check: {type(exc).__name__}: {exc}"
        else:
            rec.update(checks=outcome.checks, delivered=outcome.delivered,
                       requested=outcome.requested, info=outcome.info)
    rec["passed"] = rec["error"] is None and all(c.passed for c in rec["checks"])
    return rec


def run_pass(instances, tracer, speedo=None) -> tuple[list[float], list[float], list[dict]]:
    """Solve every instance once (timed), then check each (untimed).

    Returns raw times (calibration slices taken inside an instance are
    subtracted), the host-speed factor of each instance (1.0 without a
    speedometer) and the oracle records.
    """
    times, scales, outputs = [], [], []
    if speedo:
        speedo.measure()
    for i, inst in enumerate(instances):
        tracer.instance = i
        with speedo.during() if speedo else contextlib.nullcontext() as sampled:
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.instance"):
                    out = inst.solve(tracer)
                error = None
            except Exception as exc:  # noqa: BLE001 -- a raising solve is a failed instance
                out, error = None, f"solve: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        outputs.append((out, error))
        times.append(elapsed - (sampled.paused_s if sampled else 0.0))
        scales.append(sampled.scale if sampled else 1.0)
    records = [judge(inst, o, e) for inst, (o, e) in zip(instances, outputs)]
    return times, scales, records


def summarize_checks(records: list[dict]) -> dict:
    margins = [c.margin_digits for r in records for c in r["checks"] if c.in_margin]
    attempted = len(records)
    failed = sum(not r["passed"] for r in records)
    requested = sum(r["requested"] for r in records)
    return {
        "attempted": attempted,
        "failed": failed,
        "margin_digits": min(margins) if margins else 0.0,
        "horizon_frac": sum(r["delivered"] for r in records) / requested,
        "pass_frac": 1.0 - failed / attempted,
    }


def timed_run(instances, seconds: float, speedo) -> tuple[dict, dict]:
    """Repeat the problem set while another pass still fits in ``seconds``.

    Times are normalised to reference-host seconds (see ``speed.py``), or
    raw when ``speedo`` is None.
    """
    from metrics import tail_stats
    from tracing import NullTracer

    null = NullTracer()
    raw, passes, records = [], [], []
    start = time.perf_counter()
    while True:
        times, scales, recs = run_pass(instances, null, speedo)
        raw.append(times)
        passes.append([t * f for t, f in zip(times, scales)])
        records.extend(recs)
        if time.perf_counter() - start + sum(times) > seconds:
            break
    per_instance = [statistics.median(p[i] for p in passes) for i in range(len(instances))]
    tail, pct = tail_stats(per_instance)
    p50 = statistics.median(t for p in passes for t in p)
    summary = summarize_checks(records)
    values = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "solve_p50_s": p50,
        "solve_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "margin_digits": summary["margin_digits"],
        "horizon_frac": summary["horizon_frac"],
        "pass_frac": summary["pass_frac"],
    }
    details = {
        "passes": len(passes),
        "instances_per_pass": len(instances),
        "instances_timed": len(records),
        "tail_percentile": pct,
        "tail_over_instances": len(instances),
        "pass_wall_s": [sum(p) for p in passes],
        "pass_wall_raw_s": [sum(p) for p in raw],
        "normalised": speedo is not None,
        "per_instance_median_s": {
            inst.label: t for inst, t in zip(instances, per_instance)
        },
    }
    return values, details | {"summary": summary, "records": records}


def traced_run(instances, workload: str) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass; per-layer metrics from spans."""
    from metrics import layer_values
    from tracing import NullTracer, Tracer, aggregate, install

    untraced, _, recs_u = run_pass(instances, NullTracer())
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced, _, recs_t = run_pass(instances, tracer)
    finally:
        uninstall()
    spans_path = WORKDIR / f"spans-{workload}.csv.gz"
    tracer.write(str(spans_path))
    extra = {
        "trace.untraced_wall_s": sum(untraced),
        "trace.traced_wall_s": sum(traced),
        "trace.overhead_s": sum(traced) - sum(untraced),
        "trace.spans": len(tracer),
    }
    values = layer_values(aggregate(tracer), tracer.counters, extra)
    records = recs_u + recs_t
    return values, {"spans_file": str(spans_path.relative_to(ROOT)),
                    "summary": summarize_checks(records), "records": records}


# -- output ---------------------------------------------------------------------


def print_details(details: dict) -> None:
    for rec in details.pop("records"):
        status = "ok" if rec["passed"] else "FAIL"
        print(f"instance {rec['label']}: {status}"
              + (f" ({rec['error']})" if rec["error"] else ""))
        for c in rec["checks"]:
            print(f"  check {c.name}: err={c.err:.3e} tol={c.tol:.1e} "
                  f"margin={c.margin_digits:.2f} {'pass' if c.passed else 'FAIL'}")
        for key, val in rec["info"].items():
            print(f"  {key}: {json.dumps(val)}")
    print("details " + json.dumps(details, default=str))


def run_workload(args) -> int:
    import metrics
    import workloads

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    if args.setup_probe:
        wl.setup()
        return 0

    import speed

    speedo = speed.Speedometer()
    setup_samples = [time_setup(args, speedo) for _ in range(SETUP_PROBES)]
    wl.setup()
    import sigcalc

    if SRC.resolve() not in Path(sigcalc.__file__).resolve().parents:
        print(f"error: sigcalc imported from {sigcalc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl.prepare_oracles()
    instances = wl.instances()

    if args.trace:
        values, details = traced_run(instances, args.workload)
        catalogue = metrics.PER_LAYER
    else:
        values, details = timed_run(instances, args.seconds,
                                    speedo if wl.normalised else None)
        values["setup_s"] = statistics.median(norm for _, norm in setup_samples)
        details["setup_samples_s"] = [norm for _, norm in setup_samples]
        details["setup_samples_raw_s"] = [raw for raw, _ in setup_samples]
        details["calibration_slice_median_s"] = statistics.median(speedo.samples)
        catalogue = metrics.END_TO_END
    summary = details.pop("summary")
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": environment()} | details
    print_details(details)
    print("\n".join(metric_lines(catalogue, values)))
    print(json.dumps(result(catalogue, values, summary)))
    return 0


def metric_lines(catalogue, values: dict) -> list[str]:
    return [f"metric {m.name} = {values[m.name]!r} {m.unit}" for m in catalogue]


def result(catalogue, values: dict, summary: dict) -> dict:
    """The final line: every catalogue metric with its unit, plus counts."""
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"== {name} (trace={trace}) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith(("  direct_ode", "  horizon", "  max_abs_z",
                                    "  transport_explosion")):
                    print(line)
            for key, m in result["metrics"].items():
                print(f"   {key:<48} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (SRC / "sigcalc" / "__init__.py").is_file():
        print(f"error: no sigcalc sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
