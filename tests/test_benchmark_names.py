"""The names of sigcalc that the benchmark's workloads read must exist.

No tier-1 test runs a workload, so a cut of the public surface that drops
one of these names would otherwise pass here and fail only in a benchmark
run.
"""

import re
from pathlib import Path

import sigcalc
import sigcalc.cli  # the workloads import it too

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def benchmark_names(source: str) -> set[str]:
    """Every dotted ``sc.<name>`` and every ``getattr(sc.<x>, "<y>"`` read."""
    names = set(re.findall(r"\bsc\.([A-Za-z_][\w.]*\w)", source))
    for owner, attr in re.findall(r"getattr\((?:self\.)?sc\.([\w.]+), \"(\w+)\"", source):
        names.add(f"{owner}.{attr}")
    return names


def test_every_name_the_benchmark_reads_resolves():
    names = benchmark_names(WORKLOADS.read_text())
    assert {"index_word", "operators.R_op", "tensor.tables"} <= names
    missing = []
    for name in sorted(names):
        obj = sigcalc
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert missing == []
