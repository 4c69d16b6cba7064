"""Run artifacts: CSV tables, dependency-free SVG line plots, JSON reports."""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            # float (np.float64 too) first: the ABC check is the slow one
            if isinstance(v, float) or (
                isinstance(v, numbers.Real) and not isinstance(v, (int, bool))
            ):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def write_svg(
    path: str,
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Minimal polyline plot: axes box, ticks, legend, one polyline per series."""
    width, height = 720, 440
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        out.append(
            f'<line x1="{px(xv):.1f}" y1="{mt + ph}" x2="{px(xv):.1f}" '
            f'y2="{mt + ph + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(xv):.1f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        out.append(
            f'<line x1="{ml - 5}" y1="{py(yv):.1f}" x2="{ml}" '
            f'y2="{py(yv):.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{py(yv):.1f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" '
            f'font-size="11">{yv:.4g}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="18" y="{mt + ph / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 18 {mt + ph / 2})">{ylabel}</text>'
        )
    for idx, (name, sx, sy) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(sx, sy))
        if pts:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = mt + 16 + 16 * idx
        out.append(
            f'<line x1="{ml + pw - 150}" y1="{ly}" x2="{ml + pw - 125}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{ml + pw - 120}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


@dataclass
class RunReport:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter)

    def add_check(self, name: str, value: float, tol: float) -> bool:
        ok = bool(value <= tol)
        self.checks.append(
            {"name": name, "value": float(value), "tolerance": float(tol), "pass": ok}
        )
        return ok

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def write(self, path: str) -> None:
        payload = {
            "command": self.command,
            "config": self.config,
            "elapsed_seconds": round(time.perf_counter() - self._t0, 3),
            "checks": self.checks,
            "passed": self.all_passed,
            **self.extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
