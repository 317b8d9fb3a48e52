"""Structural checks of the SVG renderer."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from conftest import DOUBLED_TRIANGLE, SQUARE, triangle_sides
from ellimatch import PointSet, exact_max_sum, minimize_h, render_svg

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
        doc = render_svg(SQUARE)
        tree = ET.fromstring(doc)
        vx, vy, vw, vh = (float(t) for t in tree.get("viewBox").split())
        assert vx < 0 and vy < 0
        assert vx + vw > 1 and vy + vh > 1


def _placement(doc):
    """The viewBox, the y translation of the flip, and every site circle as
    (cx, cy, r), read back as floats."""
    tree = ET.fromstring(doc)
    box = tuple(float(t) for t in tree.get("viewBox").split())
    flip = tree.find(f"{NS}g").get("transform")
    shift = float(flip.split("translate(0,")[1].split(")")[0])
    sites = [
        (float(c.get("cx")), float(c.get("cy")), float(c.get("r")))
        for c in tree.findall(f".//{NS}circle")
    ]
    return box, shift, sites


@pytest.mark.parametrize(
    "scale, offset", [(1.0, 0.0), (2.0**-40, 0.0), (1.0, 1e12)], ids=["unit", "2^-40", "+1e12"]
)
def test_viewbox_follows_the_data(scale, offset):
    # A similarity of the data moves the box by the same similarity, and
    # the flipped sites stay inside it, at any offset and scale.
    def similar(p):
        return (scale * p[0] + offset, scale * p[1] + offset)

    moved = PointSet.of([similar(p) for p in SQUARE])
    box, shift, sites = _placement(render_svg(moved))
    unit_box, _, _ = _placement(render_svg(SQUARE))
    expected = (*similar(unit_box[:2]), scale * unit_box[2], scale * unit_box[3])
    for got, want in zip(box, expected):
        assert abs(got - want) <= 1e-12 * max(abs(want), scale), (box, expected)
    vx, vy, vw, vh = box
    # The flip maps y to shift - y and the box's y range onto itself.
    assert abs(shift - (2 * vy + vh)) <= 1e-12 * max(abs(shift), scale)
    for cx, cy, r in sites:
        fy = shift - cy
        assert vx <= cx - r and cx + r <= vx + vw, (cx, r, box)
        assert vy <= fy - r and fy + r <= vy + vh, (fy, r, box)


@pytest.mark.parametrize(
    "points",
    [[(0.0, 0.0)] * 2, [(1e12, 1e12)] * 2, [(0.0, 0.0), (0.0, 5e-324)]],
    ids=["origin", "+1e12", "a-subnormal-apart"],
)
def test_coincident_points_get_a_box(points):
    # With no extent to scale by, or one whose tenth underflows to 0, the
    # box takes the coordinates' scale, so that it stays wider than their
    # rounding.
    box, shift, sites = _placement(render_svg(PointSet.of(points)))
    vx, vy, vw, vh = box
    assert vw > 0.0 and vh > 0.0 and vx + vw > vx and vy + vh > vy
    for cx, cy, r in sites:
        assert vx < cx < vx + vw and vy < shift - cy < vy + vh
