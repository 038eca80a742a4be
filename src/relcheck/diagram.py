"""Static Minkowski-diagram rendering to SVG.

Projection onto a t-x_i plane; worldlines are solid, signals dashed,
events dots.  All geometry is computed exactly and only quantized to six
decimals at emission, so a fixed scenario renders to identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from relcheck.minkowski import Vec4
from relcheck.model import Scenario

PLANES = {"t-x1": 1, "t-x2": 2, "t-x3": 3}

WIDTH = 640
HEIGHT = 640
MARGIN = 60


class DiagramError(Exception):
    pass


def _dec6(x: Fraction) -> str:
    scaled = x * 10**6
    whole = scaled.numerator // scaled.denominator  # floor, deterministic
    rem = scaled - whole
    if rem * 2 >= 1:
        whole += 1
    sign = "-" if whole < 0 else ""
    whole = abs(whole)
    return f"{sign}{whole // 10**6}.{whole % 10**6:06d}"


def _project(v: Vec4, axis: int) -> tuple[Fraction, Fraction]:
    return v[axis].approx(Fraction(1, 10**9)), v[0].approx(Fraction(1, 10**9))


def render_svg(scenario: Scenario, plane: str = "t-x1") -> str:
    if plane not in PLANES:
        raise DiagramError(f"unknown plane {plane!r}; choose one of {sorted(PLANES)}")
    axis = PLANES[plane]
    pts: list[tuple[Fraction, Fraction]] = []
    for seg in scenario.signals.values():
        pts.append(_project(seg.beg, axis))
        pts.append(_project(seg.end, axis))
    for line in scenario.observers.values():
        pts.append(_project(line.base, axis))
        pts.append(_project(line.base + line.dir, axis))
    if not pts:
        pts = [(Fraction(0), Fraction(0))]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(2))
    cx = (max(xs) + min(xs)) / 2
    cy = (max(ys) + min(ys)) / 2
    half = span / 2 + span / 4
    x_lo, x_hi = cx - half, cx + half
    y_lo, y_hi = cy - half, cy + half
    scale = Fraction(WIDTH - 2 * MARGIN) / (2 * half)

    def to_px(p: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        px = Fraction(MARGIN) + (p[0] - x_lo) * scale
        py = Fraction(HEIGHT - MARGIN) - (p[1] - y_lo) * scale
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes through the projection origin when visible
    origin = to_px((Fraction(0), Fraction(0)))
    parts.append(
        f'<line x1="{_dec6(origin[0])}" y1="{MARGIN}" x2="{_dec6(origin[0])}"'
        f' y2="{HEIGHT - MARGIN}" stroke="#bbbbbb" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{_dec6(origin[1])}" x2="{WIDTH - MARGIN}"'
        f' y2="{_dec6(origin[1])}" stroke="#bbbbbb" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_dec6(origin[0])}" y="{MARGIN - 8}" font-size="12"'
        f' fill="#555555">t</text>'
    )
    parts.append(
        f'<text x="{WIDTH - MARGIN + 6}" y="{_dec6(origin[1])}" font-size="12"'
        f' fill="#555555">x{axis}</text>'
    )

    for name in sorted(scenario.observers):
        line = scenario.observers[name]
        seg = _clip_line(line, axis, x_lo, x_hi, y_lo, y_hi)
        if seg is None:
            p = to_px(_project(line.base, axis))
            parts.append(
                f'<circle cx="{_dec6(p[0])}" cy="{_dec6(p[1])}" r="3" fill="#204080"/>'
            )
            parts.append(_label(p, name))
            continue
        a, b = to_px(seg[0]), to_px(seg[1])
        parts.append(
            f'<line x1="{_dec6(a[0])}" y1="{_dec6(a[1])}" x2="{_dec6(b[0])}"'
            f' y2="{_dec6(b[1])}" stroke="#204080" stroke-width="1.5"/>'
        )
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        parts.append(_label(mid, name))

    for name in sorted(scenario.signals):
        seg = scenario.signals[name]
        a = to_px(_project(seg.beg, axis))
        b = to_px(_project(seg.end, axis))
        if seg.is_degenerate():
            parts.append(
                f'<circle cx="{_dec6(a[0])}" cy="{_dec6(a[1])}" r="3.5" fill="#a03020"/>'
            )
            parts.append(_label(a, name, color="#a03020"))
            continue
        parts.append(
            f'<line x1="{_dec6(a[0])}" y1="{_dec6(a[1])}" x2="{_dec6(b[0])}"'
            f' y2="{_dec6(b[1])}" stroke="#c08020" stroke-width="1.2"'
            f' stroke-dasharray="6,4"/>'
        )
        for p in (a, b):
            parts.append(
                f'<circle cx="{_dec6(p[0])}" cy="{_dec6(p[1])}" r="2.5" fill="#c08020"/>'
            )
        parts.append(_label(b, name, color="#c08020"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _label(p, text: str, color: str = "#204080") -> str:
    return (
        f'<text x="{_dec6(p[0] + 5)}" y="{_dec6(p[1] - 5)}" font-size="12"'
        f' fill="{color}">{text}</text>'
    )


def _clip_line(line, axis: int, x_lo, x_hi, y_lo, y_hi) -> Optional[tuple]:
    base = _project(line.base, axis)
    tip = _project(line.base + line.dir, axis)
    dx = tip[0] - base[0]
    dy = tip[1] - base[1]
    if dx == 0 and dy == 0:
        return None  # projects to a point
    # Liang–Barsky style parameter clipping with exact rationals
    bounds = [(-dx, base[0] - x_lo), (dx, x_hi - base[0]), (-dy, base[1] - y_lo), (dy, y_hi - base[1])]
    t_min, t_max = Fraction(-10**9), Fraction(10**9)
    for p, q in bounds:
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            t_min = max(t_min, r)
        else:
            t_max = min(t_max, r)
    if t_min > t_max:
        return None
    a = (base[0] + dx * t_min, base[1] + dy * t_min)
    b = (base[0] + dx * t_max, base[1] + dy * t_max)
    return a, b
