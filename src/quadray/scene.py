"""Deterministic SVG rendering of Julia sets, rays, orbits and bunches.

The scene model is geometry in the complex plane plus a viewport rectangle;
rendering maps to pixel coordinates with fixed decimal formatting so that
identical scenes produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import QuadraticMap
from .orbits import alpha_beta_fixed_points


@dataclass(frozen=True)
class Viewport:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)


@dataclass
class PointCloudLayer:
    points: list[complex]
    color: str = "#303030"
    size: float = 0.8


@dataclass
class PolylineLayer:
    points: list[complex]
    color: str = "#1f77b4"
    width: float = 1.2
    label: str = ""


@dataclass
class MarkerLayer:
    points: list[complex]
    labels: list[str]
    color: str = "#d62728"
    size: float = 4.0


@dataclass
class HullLayer:
    """Translucent convex hull around a group of points (bunch highlight)."""
    points: list[complex]
    color: str = "#2ca02c"
    opacity: float = 0.25


@dataclass
class SceneModel:
    viewport: Viewport
    layers: list = field(default_factory=list)


@dataclass(frozen=True)
class RenderStyle:
    width: int = 640
    height: int = 640
    background: str = "#ffffff"


def julia_point_cloud(qmap: QuadraticMap, count: int = 20000, seed: int = 0,
                      burn_in: int = 64) -> list[complex]:
    """Inverse-iteration sampling of the Julia set: random backward orbit of
    beta with uniformly chosen square-root branches."""
    rng = np.random.default_rng(seed)
    z = alpha_beta_fixed_points(qmap).beta
    pts: list[complex] = []
    signs = rng.integers(0, 2, size=count + burn_in)
    for i in range(count + burn_in):
        w = np.sqrt(complex(z - qmap.c))
        z = w if signs[i] else -w
        if i >= burn_in:
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


def _convex_hull(points: list[complex]) -> list[complex]:
    """Andrew's monotone chain; degenerate inputs return what they are."""
    pts = sorted(set((z.real, z.imag) for z in points))
    if len(pts) <= 2:
        return [complex(x, y) for x, y in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [complex(x, y) for x, y in hull]


def render_scene(scene: SceneModel, style: RenderStyle = RenderStyle()) -> str:
    """Deterministic SVG document for the scene (no timestamps, fixed
    formatting).  An empty scene yields a valid document with the viewport."""
    vp = scene.viewport
    w, h = style.width, style.height

    def to_px(z: complex) -> tuple[float, float]:
        x = (z.real - vp.re_min) / (vp.re_max - vp.re_min) * w
        y = (vp.im_max - z.imag) / (vp.im_max - vp.im_min) * h
        return x, y

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="{style.background}"/>',
    ]
    for layer in scene.layers:
        if isinstance(layer, PointCloudLayer):
            kept = [z for z in layer.points if vp.contains(z)]
            coords = " ".join(
                f"M{fmt(x)},{fmt(y)}h0.01" for x, y in (to_px(z) for z in kept))
            parts.append(
                f'<path d="{coords}" stroke="{layer.color}" fill="none" '
                f'stroke-width="{layer.size}" stroke-linecap="round"/>')
        elif isinstance(layer, PolylineLayer):
            pieces: list[list[complex]] = []
            cur: list[complex] = []
            for a, b in zip(layer.points, layer.points[1:]):
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
            for piece in pieces:
                pstr = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in map(to_px, piece))
                parts.append(
                    f'<polyline points="{pstr}" fill="none" stroke="{layer.color}" '
                    f'stroke-width="{layer.width}"/>')
            if layer.label and layer.points:
                x, y = to_px(max((z for z in layer.points if vp.contains(z)),
                                 key=lambda z: abs(z), default=layer.points[0]))
                parts.append(
                    f'<text x="{fmt(x)}" y="{fmt(y)}" font-size="10" '
                    f'fill="{layer.color}">{layer.label}</text>')
        elif isinstance(layer, MarkerLayer):
            for z, label in zip(layer.points, layer.labels):
                if not vp.contains(z):
                    continue
                x, y = to_px(z)
                parts.append(
                    f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{layer.size}" '
                    f'fill="{layer.color}"/>')
                if label:
                    parts.append(
                        f'<text x="{fmt(x + 5)}" y="{fmt(y - 5)}" font-size="10" '
                        f'fill="{layer.color}">{label}</text>')
        elif isinstance(layer, HullLayer):
            hull = [z for z in _convex_hull(layer.points) if vp.contains(z)]
            if len(hull) >= 2:
                pstr = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in map(to_px, hull))
                parts.append(
                    f'<polygon points="{pstr}" fill="{layer.color}" '
                    f'fill-opacity="{layer.opacity}" stroke="{layer.color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def pressure_curve_svg(t_values, per_values, tree_values,
                       style: RenderStyle = RenderStyle(width=640, height=420)) -> str:
    """Overlay plot of the two pressure estimators against t."""
    w, h = style.width, style.height
    margin = 48
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="{style.background}"/>',
        f'<line x1="{margin}" y1="{h - margin}" x2="{w - margin}" y2="{h - margin}" stroke="#000"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{h - margin}" stroke="#000"/>',
        poly(per_values, "#d62728", "periodic", 0),
        poly(tree_values, "#1f77b4", "tree", 14),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
