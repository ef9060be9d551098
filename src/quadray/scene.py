"""Deterministic SVG rendering of Julia sets, rays, orbits and pressure curves.

Each drawing function maps points of the complex plane through a viewport
rectangle onto a WIDTH x HEIGHT canvas and returns SVG elements with fixed
decimal formatting; render_scene wraps elements in a document, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QuadraticMap
from .orbits import alpha_beta_fixed_points

WIDTH = 640
HEIGHT = 640
BACKGROUND = "#ffffff"
#: backward steps taken from beta before julia_point_cloud keeps a point
BURN_IN = 64


@dataclass(frozen=True)
class Viewport:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

    def to_px(self, z: complex) -> tuple[float, float]:
        return ((z.real - self.re_min) / (self.re_max - self.re_min) * WIDTH,
                (self.im_max - z.imag) / (self.im_max - self.im_min) * HEIGHT)


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def julia_point_cloud(qmap: QuadraticMap, count: int = 20000,
                      seed: int = 0) -> list[complex]:
    """Inverse-iteration sampling of the Julia set: random backward orbit of
    beta with uniformly chosen square-root branches."""
    rng = np.random.default_rng(seed)
    z = alpha_beta_fixed_points(qmap).beta
    pts: list[complex] = []
    signs = rng.integers(0, 2, size=count + BURN_IN)
    for i in range(count + BURN_IN):
        w = np.sqrt(complex(z - qmap.c))
        z = w if signs[i] else -w
        if i >= BURN_IN:
            pts.append(complex(z))
    return pts


def _clip_segment(a: complex, b: complex, vp: Viewport):
    """Liang-Barsky clip of segment a->b to the viewport; None when outside."""
    t0, t1 = 0.0, 1.0
    dx, dy = b.real - a.real, b.imag - a.imag
    for p, q in ((-dx, a.real - vp.re_min), (dx, vp.re_max - a.real),
                 (-dy, a.imag - vp.im_min), (dy, vp.im_max - a.imag)):
        if p == 0:
            if q < 0:
                return None
            continue
        t = q / p
        if p < 0:
            if t > t1:
                return None
            t0 = max(t0, t)
        else:
            if t < t0:
                return None
            t1 = min(t1, t)
    return (complex(a.real + t0 * dx, a.imag + t0 * dy),
            complex(a.real + t1 * dx, a.imag + t1 * dy))


def point_cloud_svg(points: list[complex], vp: Viewport) -> list[str]:
    """One path of dots at the points inside the viewport."""
    coords = " ".join(f"M{_fmt(x)},{_fmt(y)}h0.01"
                      for x, y in (vp.to_px(z) for z in points if vp.contains(z)))
    return [f'<path d="{coords}" stroke="#303030" fill="none" '
            f'stroke-width="0.8" stroke-linecap="round"/>']


def polyline_svg(points: list[complex], vp: Viewport, color: str,
                 label: str) -> list[str]:
    """The polyline through the points, one piece per visible stretch, and
    the label at its visible point of largest modulus."""
    pieces: list[list[complex]] = []
    cur: list[complex] = []
    for a, b in zip(points, points[1:]):
        seg = _clip_segment(a, b, vp)
        if seg is None:
            if cur:
                pieces.append(cur)
                cur = []
            continue
        if not cur:
            cur = [seg[0]]
        elif abs(cur[-1] - seg[0]) > 1e-12:
            pieces.append(cur)
            cur = [seg[0]]
        cur.append(seg[1])
    if cur:
        pieces.append(cur)
    parts = []
    for piece in pieces:
        pstr = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(vp.to_px, piece))
        parts.append(f'<polyline points="{pstr}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
    if label and points:
        x, y = vp.to_px(max((z for z in points if vp.contains(z)),
                            key=lambda z: abs(z), default=points[0]))
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="10" '
                     f'fill="{color}">{label}</text>')
    return parts


def markers_svg(points: list[complex], labels: list[str], vp: Viewport) -> list[str]:
    """A dot and its label at each point inside the viewport."""
    color = "#d62728"
    parts = []
    for z, label in zip(points, labels):
        if not vp.contains(z):
            continue
        x, y = vp.to_px(z)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4.0" fill="{color}"/>')
        if label:
            parts.append(f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" font-size="10" '
                         f'fill="{color}">{label}</text>')
    return parts


def render_scene(elements: list[str], height: int = HEIGHT) -> str:
    """Deterministic SVG document of the elements over the background (no
    timestamps); no elements yield a valid empty document."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="{BACKGROUND}"/>',
        *elements,
        "</svg>"]) + "\n"


def pressure_curve_svg(t_values, per_values, tree_values) -> str:
    """Overlay plot of the two pressure estimators against t."""
    w, h, margin = WIDTH, 420, 48
    ts = list(t_values)
    lo = min(min(per_values), min(tree_values))
    hi = max(max(per_values), max(tree_values))
    span = (hi - lo) or 1.0
    lo -= 0.08 * span
    hi += 0.08 * span

    def to_px(t, v):
        x = margin + (t - ts[0]) / ((ts[-1] - ts[0]) or 1.0) * (w - 2 * margin)
        y = h - margin - (v - lo) / (hi - lo) * (h - 2 * margin)
        return x, y

    def poly(vals, color, label, dy):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(t, v) for t, v in zip(ts, vals)))
        return (f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                f'<text x="{w - margin - 80}" y="{margin + dy}" font-size="11" '
                f'fill="{color}">{label}</text>')

    return render_scene([
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="#000"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="#000"/>',
        poly(per_values, "#d62728", "periodic", 0),
        poly(tree_values, "#1f77b4", "tree", 14),
    ], height=h)
