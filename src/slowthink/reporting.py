"""Deterministic CSV, SVG, and manifest emission.

Floats print with 9 significant digits. Plots are fixed-canvas SVG built from
pure string formatting with no timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

SVG_WIDTH = 640
SVG_HEIGHT = 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 42, 52
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def format_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def run_environment() -> dict:
    """What bit-identical reruns depend on: the interpreter, numpy (its
    Philox stream draws every sample) and the machine; scipy's version only
    when the process loaded it."""
    env = {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "python": platform.python_version(),
    }
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        env["scipy"] = scipy.__version__
    return env


def manifest_dict(
    command: str, config: dict, seed, version: str, wall_clock_s: float
) -> dict:
    return {
        "command": command,
        "config": config,
        "environment": run_environment(),
        "seed": seed,
        "version": version,
        "wall_clock_s": wall_clock_s,
    }


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if count < 2:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _spans(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_plot(
    series: Sequence[tuple[Sequence[float], Sequence[float]]],
    labels: Sequence[str] | None = None,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: Sequence[tuple[float, str]] = (),
    markers: bool = True,
) -> str:
    """Render line series (with optional labelled vertical threshold lines)
    into a deterministic SVG string."""
    if not series:
        raise ValidationError("at least one series is required")
    cleaned = []
    for i, (xs, ys) in enumerate(series):
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if not xs or len(xs) != len(ys):
            raise ValidationError(f"series {i} must have matching nonempty x and y")
        cleaned.append((xs, ys))
    if labels is None:
        labels = [f"series {i}" for i in range(len(cleaned))]
    if len(labels) != len(cleaned):
        raise ValidationError("labels must match the number of series")

    all_x = [v for xs, _ in cleaned for v in xs] + [x for x, _ in vlines]
    all_y = [v for _, ys in cleaned for v in ys]
    x_lo, x_hi = _spans(all_x)
    y_lo, y_hi = _spans(all_y)
    plot_w = SVG_WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = SVG_HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return SVG_HEIGHT - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    if title:
        out.append(
            f'<text x="{SVG_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{SVG_HEIGHT - _MARGIN_B}" '
            f'x2="{px(tx):.2f}" y2="{SVG_HEIGHT - _MARGIN_B + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{SVG_HEIGHT - _MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="monospace" font-size="10">'
            f"{tx:.4g}</text>"
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py(ty):.2f}" '
            f'x2="{_MARGIN_L}" y2="{py(ty):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py(ty) + 3:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{ty:.4g}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{SVG_WIDTH / 2:.1f}" y="{SVG_HEIGHT - 14}" '
            f'text-anchor="middle" font-family="monospace" font-size="12">'
            f"{xlabel}</text>"
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{SVG_HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 16 {SVG_HEIGHT / 2:.1f})">{ylabel}</text>'
        )
    for x, label in vlines:
        out.append(
            f'<line x1="{px(x):.2f}" y1="{_MARGIN_T}" x2="{px(x):.2f}" '
            f'y2="{SVG_HEIGHT - _MARGIN_B}" stroke="#555555" '
            f'stroke-dasharray="5,4"/>'
        )
        if label:
            out.append(
                f'<text x="{px(x) + 4:.2f}" y="{_MARGIN_T + 12}" '
                f'font-family="monospace" font-size="10">{label}</text>'
            )
    for i, (xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if len(xs) > 1:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        if markers or len(xs) == 1:
            for x, y in zip(xs, ys):
                out.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                    f'fill="{color}"/>'
                )
        out.append(
            f'<text x="{SVG_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 14 + 13 * i}" '
            f'text-anchor="end" font-family="monospace" font-size="10" '
            f'fill="{color}">{labels[i]}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plot(series, labels, path, **kwargs) -> None:
    """Write a deterministic SVG plot of the given series to ``path``."""
    svg = render_plot(series, labels, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
