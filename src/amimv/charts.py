"""Dependency-free SVG 1.1 chart emitters: bar chart, heatmap, scatter."""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

_PALETTE = [
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
    "#eeca3b", "#b279a2", "#ff9da6", "#9d755d", "#bab0ac",
]


def _svg(width: int, height: int, body: list[str], title: str) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f"<title>{escape(title)}</title>\n"
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "middle", fill="#333") -> str:
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}" fill="{fill}">{escape(s)}</text>'
    )


def bar_chart(values: list[float], labels: list[str], title: str) -> str:
    """Vertical bars on a [0,1] axis, one per class."""
    n = len(values)
    width, height = max(320, 60 * n + 120), 300
    left, bottom, top = 60, height - 50, 40
    span = bottom - top
    body = [_text(width / 2, 24, title, size=14)]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = bottom - frac * span
        body.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - 30}" y2="{y:.1f}" stroke="#ddd"/>')
        body.append(_text(left - 8, y + 4, f"{frac:.2f}", anchor="end"))
    bar_w = (width - left - 30) / max(n, 1) * 0.7
    for i, (v, lab) in enumerate(zip(values, labels)):
        v = 0.0 if not np.isfinite(v) else float(v)
        x = left + (i + 0.5) * (width - left - 30) / n - bar_w / 2
        h = v * span
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            f'<rect x="{x:.1f}" y="{bottom - h:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="{color}"/>'
        )
        body.append(_text(x + bar_w / 2, bottom - h - 5, f"{v:.2f}", size=10))
        body.append(_text(x + bar_w / 2, bottom + 16, lab))
    body.append(f'<line x1="{left}" y1="{bottom}" x2="{width - 30}" y2="{bottom}" stroke="#333"/>')
    return _svg(width, height, body, title)


def heatmap(matrix: np.ndarray, title: str) -> str:
    """Count heatmap with the integer value printed in every cell: true class by row, predicted by column."""
    matrix = np.asarray(matrix)
    rows, cols = matrix.shape
    cell = max(36, min(64, 480 // max(rows, cols)))
    left, top = 70, 60
    width = left + cols * cell + 30
    height = top + rows * cell + 50
    vmax = float(matrix.max()) or 1.0
    body = [_text(width / 2, 24, title, size=14)]
    for r in range(rows):
        for c in range(cols):
            v = float(matrix[r, c])
            shade = int(255 - 190 * (v / vmax))
            x, y = left + c * cell, top + r * cell
            body.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},255)" stroke="#fff"/>'
            )
            text_fill = "#000" if shade > 110 else "#fff"
            body.append(_text(x + cell / 2, y + cell / 2 + 4, str(int(matrix[r, c])), fill=text_fill))
        body.append(_text(left - 8, top + r * cell + cell / 2 + 4, str(r), anchor="end"))
    for c in range(cols):
        body.append(_text(left + c * cell + cell / 2, top + rows * cell + 16, str(c)))
    body.append(_text(left - 40, top + rows * cell / 2, "true", size=12))
    body.append(_text(left + cols * cell / 2, height - 10, "predicted", size=12))
    return _svg(width, height, body, title)


def scatter(coords: np.ndarray, labels: np.ndarray, title: str) -> str:
    """2D scatter colored by integer label, with a class legend."""
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    width, height = 520, 440
    left, right, top, bottom = 50, 120, 50, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    body = [_text(width / 2, 24, title, size=14)]
    body.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#999"/>'
    )
    for (px, py), lab in zip(coords, labels):
        x = left + (px - lo[0]) / span[0] * plot_w
        y = top + plot_h - (py - lo[1]) / span[1] * plot_h
        color = _PALETTE[int(lab) % len(_PALETTE)]
        body.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}" fill-opacity="0.7"/>')
    for i, lab in enumerate(sorted(set(int(v) for v in labels))):
        y = top + 14 + i * 18
        color = _PALETTE[lab % len(_PALETTE)]
        body.append(f'<circle cx="{width - right + 16}" cy="{y}" r="5" fill="{color}"/>')
        body.append(_text(width - right + 28, y + 4, f"class {lab}", anchor="start"))
    return _svg(width, height, body, title)
