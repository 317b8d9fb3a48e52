"""Structural checks of the SVG renderer."""

from __future__ import annotations

import math
import sys
import xml.etree.ElementTree as ET

import pytest

from conftest import DOUBLED_TRIANGLE, SQUARE, svg_numbers, triangle_sides
from ellimatch import Matching, PointSet, exact_max_sum, minimize_h, render_svg

NS = "{http://www.w3.org/2000/svg}"


def count(tree, tag):
    return len(tree.findall(f".//{NS}{tag}"))


class TestRenderSvg:
    def test_square_diagonals_structure(self, tmp_path):
        m = exact_max_sum(SQUARE)
        w = minimize_h(SQUARE, m)
        path = tmp_path / "fig.svg"
        doc = render_svg(SQUARE, m, w, path)
        tree = ET.fromstring(doc)  # well-formed XML
        assert count(tree, "circle") == 4
        assert count(tree, "line") == 2
        assert count(tree, "ellipse") == 2
        assert count(tree, "path") == 1  # witness marker
        assert path.read_text(encoding="utf-8") == doc

    def test_points_only(self):
        doc = render_svg(SQUARE)
        tree = ET.fromstring(doc)
        assert count(tree, "circle") == 4
        assert count(tree, "line") == 0
        assert count(tree, "ellipse") == 0
        assert count(tree, "path") == 0

    def test_doubled_triangle_ellipses_through_centroid(self):
        m = triangle_sides()
        w = minimize_h(DOUBLED_TRIANGLE, m)
        doc = render_svg(DOUBLED_TRIANGLE, m, w)
        tree = ET.fromstring(doc)
        assert count(tree, "ellipse") == 3
        # semi-axes follow the 2/sqrt(3) ratio: rx = lam/2, ry = 1/(2 sqrt 3)
        for el in tree.findall(f".//{NS}ellipse"):
            rx = float(el.get("rx"))
            ry = float(el.get("ry"))
            assert rx == pytest.approx(1.0 / math.sqrt(3), abs=1e-9)
            assert ry == pytest.approx(0.5 / math.sqrt(3), abs=1e-9)
            # eccentricity sqrt(1 - (ry/rx)^2) = sqrt(3)/2
            ecc = math.sqrt(1 - (ry / rx) ** 2)
            assert ecc == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_viewbox_includes_margin(self):
        (vx, vy, vw, vh), _ = _placement(render_svg(SQUARE))
        assert vx < 0 and vy < 0
        assert vx + vw > 1 and vy + vh > 1


def _placement(doc):
    """The viewBox in data coordinates and every site circle as (cx, cy, r),
    read back as floats.  The flip maps y to -y, so the box's y range
    by .. by + bh holds the data's -(by + bh) .. -by."""
    tree = ET.fromstring(doc)
    bx, by, bw, bh = (float(t) for t in tree.get("viewBox").split())
    assert tree.find(f"{NS}g").get("transform") == "scale(1,-1)"
    sites = [
        (float(c.get("cx")), float(c.get("cy")), float(c.get("r")))
        for c in tree.findall(f".//{NS}circle")
    ]
    return (bx, -(by + bh), bw, bh), sites


@pytest.mark.parametrize(
    "scale, offset", [(1.0, 0.0), (2.0**-40, 0.0), (1.0, 1e12)], ids=["unit", "2^-40", "+1e12"]
)
def test_viewbox_follows_the_data(scale, offset):
    # A similarity of the data moves the box by the same similarity, and
    # the flipped sites stay inside it, at any offset and scale.
    def similar(p):
        return (scale * p[0] + offset, scale * p[1] + offset)

    moved = PointSet.of([similar(p) for p in SQUARE])
    box, sites = _placement(render_svg(moved))
    unit_box, _ = _placement(render_svg(SQUARE))
    expected = (*similar(unit_box[:2]), scale * unit_box[2], scale * unit_box[3])
    for got, want in zip(box, expected):
        assert abs(got - want) <= 1e-12 * max(abs(want), scale), (box, expected)
    vx, vy, vw, vh = box
    for cx, cy, r in sites:
        assert vx <= cx - r and cx + r <= vx + vw, (cx, r, box)
        assert vy <= cy - r and cy + r <= vy + vh, (cy, r, box)


@pytest.mark.parametrize(
    "points",
    [[(0.0, 0.0)] * 2, [(1e12, 1e12)] * 2, [(0.0, 0.0), (0.0, 5e-324)]],
    ids=["origin", "+1e12", "a-subnormal-apart"],
)
def test_coincident_points_get_a_box(points):
    # With no extent to scale by, or one whose tenth underflows to 0, the
    # box takes the coordinates' scale, so that it stays wider than their
    # rounding.
    box, sites = _placement(render_svg(PointSet.of(points)))
    vx, vy, vw, vh = box
    assert vw > 0.0 and vh > 0.0 and vx + vw > vx and vy + vh > vy
    for cx, cy, r in sites:
        assert vx < cx < vx + vw and vy < cy < vy + vh


MAX = sys.float_info.max


@pytest.mark.parametrize("matched", [False, True], ids=["points", "matched"])
@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 0.0), (0.0, 1e306)],
        [(0.0, -1.5e308), (1.0, -1.5e308)],
        [(-1.79e308, 0.0), (-1.79e308 + 1e307, 0.0)],
        [(1e308, 0.0), (1e308, 1.0)],
        [(MAX, 0.0), (MAX, 1e300)],
    ],
    ids=["tall", "far-below", "at-the-left-limit", "edge-at-1e308", "witness-at-max"],
)
def test_far_sets_write_only_finite_numbers(points, matched):
    # The height, the flipped box, its clamped corners, the ellipse centres
    # and the witness marker would each overflow if written as a sum.
    s = PointSet.of(points)
    m = Matching.from_pairs(s, [(0, 1)]) if matched else None
    doc = render_svg(s, m, minimize_h(s, m) if matched else None)
    assert all(math.isfinite(x) for x in svg_numbers(doc)), doc
    (vx, vy, vw, vh), sites = _placement(doc)
    assert -MAX <= vx and vy + vh <= MAX
    for cx, cy, _ in sites:
        assert vx <= cx <= vx + vw and vy <= cy <= vy + vh
