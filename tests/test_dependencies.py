"""The package imports only the standard library and its declared runtime
dependencies."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}


def test_src_imports_only_the_stdlib_and_declared_dependencies():
    # every import, function-level ones included: an undeclared module that
    # is present here would pass the tests and fail on a clean install
    allowed = set(sys.stdlib_module_names) | declared_dependencies() | {"sigcalc"}
    stray = []
    for path in sorted((ROOT / "src" / "sigcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] not in allowed]
    assert stray == []
