"""SVG rendering of instances, matchings, per-edge ratio ellipses, and the
witness point.

Figures use the mathematical y-up convention via a flip transform, with a
viewBox fitted to the data plus a 10% margin.  The box and the flip are
written with every digit, so that a figure far from the origin or at a tiny
scale is placed exactly.  Each matched edge gets the ellipse whose foci are
its endpoints and whose distance sum is (2/sqrt(3)) times the edge length
(eccentricity sqrt(3)/2).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING

from .geom import RATIO_BOUND, dist
from .matching import Matching, PointSet

if TYPE_CHECKING:
    from .witness import WitnessResult

_STYLE = (
    "  <style>\n"
    "    .edge { stroke: #1f4e8c; stroke-linecap: round; }\n"
    "    .ratio-ellipse { fill: #76a5d833; stroke: #76a5d8; }\n"
    "    .site { fill: #16324f; }\n"
    "    .witness { stroke: #c23b22; fill: none; }\n"
    "  </style>\n"
)

_PIXEL_SIZE = 640  # figure width; the height follows the viewBox's aspect


def render_svg(
    s: PointSet,
    m: Matching | None = None,
    witness: WitnessResult | None = None,
    path: str | Path | None = None,
) -> str:
    """Build the SVG document and, when ``path`` is given, write it there."""
    o = witness.o_star if witness is not None else None

    xs = [p[0] for p in s]
    ys = [p[1] for p in s]
    if o is not None:
        xs.append(o[0])
        ys.append(o[1])
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    extent = max(maxx - minx, maxy - miny)
    if extent == 0.0:  # every point coincides: a box at the coordinates' scale
        extent = 1e-9 * max(1.0, abs(minx), abs(miny))
    pad = 0.1 * extent
    # Ellipses overhang their edges; widen the box so they stay visible.
    if m is not None and m.pairs:
        pad += 0.35 * max(dist(s[i], s[j]) for i, j in m.pairs)
    vx, vy = minx - pad, miny - pad
    vw, vh = (maxx - minx) + 2 * pad, (maxy - miny) + 2 * pad

    sw = max(vw, vh) / 250.0  # stroke width in data units
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PIXEL_SIZE}" '
        f'height="{_PIXEL_SIZE * vh / vw:.6g}" viewBox="{vx!r} {vy!r} {vw!r} {vh!r}">\n',
        _STYLE,
        # y-up: flip the y axis about the viewBox center line.
        f'  <g transform="translate(0,{2 * vy + vh!r}) scale(1,-1)">\n',
    ]

    if m is not None:
        for i, j in m.pairs:
            a, b = s[i], s[j]
            d = dist(a, b)
            cx, cy = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
            rx = RATIO_BOUND * d / 2.0
            ry = (d / 2.0) * math.sqrt(RATIO_BOUND * RATIO_BOUND - 1.0)
            angle = math.degrees(math.atan2(b[1] - a[1], b[0] - a[0]))
            parts.append(
                f'    <ellipse class="ratio-ellipse" cx="{cx!r}" cy="{cy!r}" '
                f'rx="{rx!r}" ry="{ry!r}" '
                f'transform="rotate({angle:.9g} {cx!r} {cy!r})" stroke-width="{sw / 2:.9g}"/>\n'
            )
        for i, j in m.pairs:
            a, b = s[i], s[j]
            parts.append(
                f'    <line class="edge" x1="{a[0]!r}" y1="{a[1]!r}" '
                f'x2="{b[0]!r}" y2="{b[1]!r}" stroke-width="{sw:.9g}"/>\n'
            )

    r_site = 1.6 * sw
    for x, y in s:
        parts.append(f'    <circle class="site" cx="{x!r}" cy="{y!r}" r="{r_site:.9g}"/>\n')

    if o is not None:
        c = 2.5 * sw
        parts.append(
            f'    <path class="witness" stroke-width="{sw:.9g}" d="'
            f"M {o[0] - c!r} {o[1]!r} L {o[0] + c!r} {o[1]!r} "
            f'M {o[0]!r} {o[1] - c!r} L {o[0]!r} {o[1] + c!r}"/>\n'
        )

    parts.append("  </g>\n</svg>\n")
    doc = "".join(parts)
    if path is not None:
        Path(path).write_text(doc, encoding="utf-8")
    return doc
