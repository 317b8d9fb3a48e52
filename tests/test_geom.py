"""Geometry primitives: worked examples and invariants."""

from __future__ import annotations

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import compensated_sum, piece_derivatives
import ellimatch
from ellimatch import (
    RATIO_BOUND,
    DegenerateEdgeError,
    Matching,
    PointSet,
    ZeroVectorError,
    angle_undirected,
    bisector_point,
    check_fingerhut,
    dist,
    f_ratio,
    h_ratio,
    in_lens,
)
from ellimatch.geom import Frame, edge_lengths, left_sum

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coord, coord)


# An exact power of two, so that shrinking a point by it rounds nothing.
TINY = 2.0**-40


def shrunk(p):
    return (TINY * p[0], TINY * p[1])


def vectors_apart(min_norm=1e-3):
    return points.filter(lambda p: math.hypot(*p) > min_norm)


def grad_h(a, b, x):
    """Gradient of ``h_ratio(a, b, .)`` at x, from the code the minimizer's
    Newton steps run: the ratio is the piece ``(a, b, |ab|, 0)``."""
    return piece_derivatives((a, b, dist(a, b), 0.0), x)[0]


class TestLeftSum:
    def test_adds_left_to_right(self):
        # A compensated sum, Python 3.12's sum(), recovers the two 1.0s.
        values = [1.0, 1e100, 1.0, -1e100]
        assert left_sum(values) == 0.0
        assert compensated_sum(values) == 2.0

    def test_empty_total_is_that_of_sum(self):
        assert left_sum([]) == 0 and isinstance(left_sum([]), int)
        assert left_sum(iter([0.5, 0.25])) == 0.75

    def test_package_calls_no_builtin_sum(self):
        # Float totals go through left_sum, so results and JSON bytes do not
        # depend on the Python version.
        for path in sorted(Path(ellimatch.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ]
            assert not calls, (path.name, calls)


class TestFrame:
    @given(st.lists(points, min_size=1, max_size=8))
    def test_maps_into_unit_square_and_back(self, pts):
        f = Frame.of(pts)
        framed = [f.to(p) for p in pts]
        assert all(0.0 <= c <= 1.0 for q in framed for c in q)
        for p, q in zip(pts, framed):
            assert f.back(q) == pytest.approx(p, abs=1e-12)
        # The frame of a framed set is the identity, so solvers may frame
        # their input again without changing a bit.
        assert Frame.of(framed) == Frame((0.0, 0.0), 1.0)

    def test_coincident_points_keep_unit_scale(self):
        assert Frame.of([(2.0, 3.0)] * 3) == Frame((2.0, 3.0), 1.0)


class TestDist:
    def test_pythagorean(self):
        assert dist((0, 0), (3, 4)) == 5.0

    def test_identical(self):
        assert dist((1, 1), (1, 1)) == 0.0

    def test_sqrt2(self):
        assert dist((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_is_math_dist(self):
        assert dist is math.dist

    def test_rounds_as_hypot_of_the_differences(self):
        # math.dist(a, b) == math.hypot(a[0] - b[0], a[1] - b[1]) bit for
        # bit: the distance table, the minimizer's piece values and every
        # dist call rely on it, on each supported Python.
        big, tiny = 1.7976931348623157e308, 5e-324
        coords = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1.0, -1.0]
        coords += [1e16, 1e16 + 2.0, -1e16, 1e308, -1e308, big, -big]
        rng = random.Random(11)
        coords += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308) for _ in range(40)]
        ys = [(0.0, 0.0), (-0.0, 1.0), (tiny, -tiny), (1e16, 1e16 + 1.0)]
        cases = [((ax, ay), (bx, by)) for ax in coords for bx in coords for ay, by in [*ys, (ax, bx)]]
        offset = [(1e16 + rng.random(), 1e16 + rng.random()) for _ in range(1000)]
        cases += zip(offset[::2], offset[1::2])
        for a, b in cases:
            assert math.dist(a, b).hex() == math.hypot(a[0] - b[0], a[1] - b[1]).hex(), (a, b)


class TestAngles:
    def test_orthogonal(self):
        assert angle_undirected((1, 0), (0, 1)) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_opposite(self):
        assert angle_undirected((1, 0), (-1, 0)) == pytest.approx(math.pi, abs=1e-15)

    def test_same(self):
        assert angle_undirected((1, 0), (1, 0)) == 0.0

    def test_origin_rejected(self):
        with pytest.raises(ZeroVectorError):
            angle_undirected((0, 0), (1, 0))
        with pytest.raises(ZeroVectorError):
            angle_undirected((1, 0), (0, 0))

    @given(vectors_apart(), vectors_apart())
    def test_undirected_symmetric(self, x, y):
        assert angle_undirected(x, y) == angle_undirected(y, x)


class TestHRatio:
    def test_apex_over_horizontal_edge(self):
        # distances sqrt(2) each over edge length 2
        assert h_ratio((1, 0), (-1, 0), (0, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_on_segment_is_one(self):
        assert h_ratio((1, 0), (-1, 0), (0, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_triangle_center_attains_bound(self):
        # equilateral triangle centroid: two distances of 1/sqrt(3) over side 1
        center = (0.5, math.sqrt(3) / 6)
        assert h_ratio((0, 0), (1, 0), center) == pytest.approx(RATIO_BOUND, abs=1e-12)

    def test_degenerate_edge_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            h_ratio((1, 1), (1, 1), (0, 0))

    @given(points, points, points)
    def test_at_least_one(self, a, b, x):
        if dist(a, b) <= 1e-3:
            return
        assert h_ratio(a, b, x) >= 1.0 - 1e-12

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_equals_one_on_segment(self, a, b, t):
        if dist(a, b) <= 1e-3:
            return
        x = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        assert h_ratio(a, b, x) == pytest.approx(1.0, abs=1e-12)

    @given(points, points, points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_convexity(self, a, b, x, y, t):
        if dist(a, b) <= 1e-3:
            return
        z = (t * x[0] + (1 - t) * y[0], t * x[1] + (1 - t) * y[1])
        lhs = h_ratio(a, b, z)
        rhs = t * h_ratio(a, b, x) + (1 - t) * h_ratio(a, b, y)
        assert lhs <= rhs + 1e-12


class TestGradH:
    """The gradient of the ratio that the minimizer and the certificate use."""

    def test_at_origin_symmetric_edge(self):
        g = grad_h((1, 0), (0, 1), (0, 0))
        assert g[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert g[1] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_symmetry_kills_horizontal_component(self):
        g = grad_h((1, 0), (-1, 0), (0, 1))
        assert g[0] == pytest.approx(0.0, abs=1e-15)
        assert g[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_far_point_on_axis(self):
        g = grad_h((0, -1), (0, 1), (5, 0))
        assert g[0] == pytest.approx(5 / math.sqrt(26), abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-15)

    def test_rejects_coincident_endpoints(self):
        # No piece is built for a zero-length edge: the one edge rule
        # rejects it first.
        with pytest.raises(DegenerateEdgeError):
            edge_lengths([(1, 1), (1, 1)], [(0, 1)])

    def test_matches_central_differences(self):
        rng = random.Random(4)
        step = 1e-6
        for _ in range(100):
            a = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if dist(a, b) < 0.1 or dist(x, a) < 0.1 or dist(x, b) < 0.1:
                continue
            g = grad_h(a, b, x)
            fd = (
                (h_ratio(a, b, (x[0] + step, x[1])) - h_ratio(a, b, (x[0] - step, x[1])))
                / (2 * step),
                (h_ratio(a, b, (x[0], x[1] + step)) - h_ratio(a, b, (x[0], x[1] - step)))
                / (2 * step),
            )
            err = math.hypot(g[0] - fd[0], g[1] - fd[1])
            assert err <= 1e-6 * max(1.0, math.hypot(*g))


class TestBisectorPoint:
    def test_equal_norms_give_midpoint(self):
        assert bisector_point((1, 0), (0, 1)) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_weighted_combination(self):
        assert bisector_point((2, 0), (0, 1)) == pytest.approx((2 / 3, 2 / 3), abs=1e-12)

    def test_antipodal_collapses_to_origin(self):
        assert bisector_point((1, 0), (-1, 0)) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            bisector_point((0, 0), (1, 0))

    @given(vectors_apart(), vectors_apart())
    def test_lies_on_segment(self, x, y):
        l = bisector_point(x, y)
        # l = x + s (y - x) for some s in [0, 1]
        dx, dy = y[0] - x[0], y[1] - x[1]
        dd = dx * dx + dy * dy
        if dd == 0.0:
            assert l == pytest.approx(x, abs=1e-12)
            return
        s = ((l[0] - x[0]) * dx + (l[1] - x[1]) * dy) / dd
        proj = (x[0] + s * dx, x[1] + s * dy)
        assert -1e-12 <= s <= 1 + 1e-12
        assert dist(l, proj) <= 1e-12 * (1 + math.hypot(*x) + math.hypot(*y))

    @given(vectors_apart(), vectors_apart())
    def test_bisects_the_angle(self, x, y):
        l = bisector_point(x, y)
        if math.hypot(*l) <= 1e-6:
            return  # antipodal-ish: no bisecting ray
        assert angle_undirected(x, l) == pytest.approx(angle_undirected(l, y), abs=1e-9)


class TestFRatio:
    def test_origin_on_segment(self):
        assert f_ratio((1, 0), (-1, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_right_angle(self):
        assert f_ratio((1, 0), (0, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_three_four_five(self):
        assert f_ratio((3, 4), (3, -4)) == pytest.approx(1.25, abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            f_ratio((1, 1), (1, 1))

    def test_tiny_scale_matches_unit_scale(self):
        assert f_ratio((TINY, 0.0), (0.0, TINY)) == pytest.approx(math.sqrt(2), rel=1e-15)
        rng = random.Random(6)
        for _ in range(100):
            x, y = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
            assert f_ratio(shrunk(x), shrunk(y)) == pytest.approx(f_ratio(x, y), rel=1e-15)

    @given(vectors_apart(), vectors_apart())
    def test_equals_h_at_origin(self, x, y):
        if dist(x, y) <= 1e-3:
            return
        assert f_ratio(x, y) == pytest.approx(h_ratio(x, y, (0.0, 0.0)), rel=1e-12)

    @given(vectors_apart(), vectors_apart())
    def test_bisector_identity(self, x, y):
        # f(x, y) = |x| / |x - l_xy|
        if dist(x, y) <= 1e-3:
            return
        l = bisector_point(x, y)
        fx = f_ratio(x, y)
        assert abs(fx - math.hypot(*x) / dist(x, l)) <= 1e-10 * fx

    def test_interior_point_monotonicity(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            x = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            cross = x[0] * y[1] - x[1] * y[0]
            if math.hypot(*x) < 1e-2 or math.hypot(*y) < 1e-2 or abs(cross) < 1e-3:
                continue
            t = rng.uniform(1e-3, 1.0 - 1e-3)
            z = (x[0] + t * (y[0] - x[0]), x[1] + t * (y[1] - x[1]))
            assert f_ratio(x, z) > f_ratio(x, y) - 1e-12
            checked += 1


class TestEllipseMembership:
    """Membership in the 2/sqrt(3) ellipse of one edge, as the per-edge
    witness check decides it."""

    EDGE = PointSet.of([(-1, 0), (1, 0)])

    def verdict(self, x):
        return check_fingerhut(self.EDGE, Matching.from_pairs(self.EDGE, [(0, 1)]), x)

    def test_just_inside_boundary(self):
        assert self.verdict((0, 0.577)).passed

    def test_just_outside_boundary(self):
        # boundary height is 1/sqrt(3) ~ 0.57735
        assert not self.verdict((0, 0.578)).passed

    def test_midpoint_always_inside(self):
        v = self.verdict((0, 0))
        assert v.passed
        # |a-o| + |b-o| = |a-b| at the midpoint, so every lam >= 1 admits it
        assert v.margin == pytest.approx((RATIO_BOUND - 1.0) * 2.0, abs=1e-15)


class TestLensMembership:
    def test_interior_point(self):
        assert in_lens((-1, 0), (1, 0), 2 * math.pi / 3, (0, 0))

    def test_endpoints_belong(self):
        assert in_lens((-1, 0), (1, 0), 2 * math.pi / 3, (-1, 0))
        assert in_lens((-1, 0), (1, 0), 2 * math.pi / 3, (1, 0))

    def test_right_angle_point_outside(self):
        assert not in_lens((-1, 0), (1, 0), 2 * math.pi / 3, (0, 1))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.pi, 4.0])
    def test_angle_outside_zero_to_pi_rejected(self, alpha):
        with pytest.raises(ValueError):
            in_lens((-1, 0), (1, 0), alpha, (0, 0))

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(DegenerateEdgeError):
            in_lens((1, 1), (1, 1), 1.0, (0, 0))

    def test_point_that_differs_from_an_endpoint_by_nothing_in_floats(self):
        # 10**20 + 1 != 1e20, but their difference rounds to 0.0: z is not
        # an endpoint, yet sits on one in floats, so it belongs to the lens.
        assert in_lens((10**20 + 1, 0), (0, 1), 1.0, (1e20, 0))

    def test_tiny_scale_matches_unit_scale(self):
        rng = random.Random(8)
        inside = 0
        for _ in range(300):
            x, y, z = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
            member = in_lens(x, y, 2 * math.pi / 3, z)
            assert in_lens(shrunk(x), shrunk(y), 2 * math.pi / 3, shrunk(z)) == member
            inside += member
        assert 0 < inside < 300

    def test_lens_contained_in_ellipse(self):
        # every (2*pi/3)-lens member is a (2/sqrt(3))-ellipse member
        rng = random.Random(11)
        hits = 0
        while hits < 300:
            x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if dist(x, y) < 0.1:
                continue
            mx, my = (x[0] + y[0]) / 2, (x[1] + y[1]) / 2
            r = dist(x, y)
            z = (mx + rng.uniform(-r, r), my + rng.uniform(-r, r))
            if not in_lens(x, y, 2 * math.pi / 3, z):
                continue
            assert h_ratio(x, y, z) <= RATIO_BOUND + 1e-9
            hits += 1
