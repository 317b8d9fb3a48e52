"""Theorem-level verdict checks."""

from __future__ import annotations

import math

import pytest

from conftest import (
    DOUBLED_TRIANGLE,
    SQUARE,
    TRIANGLE_CENTROID,
    count_calls,
    square_sides,
    triangle_sides,
)
from ellimatch import (
    DEFAULT_THEOREM_TOL,
    EPS_GEO,
    RATIO_BOUND,
    DegenerateEdgeError,
    InstanceSpec,
    Matching,
    PointSet,
    Verdict,
    check_fingerhut,
    check_helly_triples,
    check_suri,
    check_theorem,
    check_tverberg_disks,
    descend,
    exact_max_sum,
    generate,
    minimize_h,
    minimize_h_over_edges,
)
from ellimatch.witness import certificate_over_edges


def theorem_verdict(s):
    m = exact_max_sum(s)
    return check_theorem(m, minimize_h(s, m))


def helly_verdict(s, m):
    return check_helly_triples(s, m, minimize_h(s, m))


def suri_verdict(s):
    return check_suri(s, exact_max_sum(s))


def test_library_ignores_the_tolerance_environment_variable(monkeypatch):
    # Only the CLI reads TVERBERG_TOL; a library call without tol uses 1e-6.
    monkeypatch.setenv("TVERBERG_TOL", "1.0")
    assert DEFAULT_THEOREM_TOL == 1e-6
    sides, diagonals = square_sides(), exact_max_sum(SQUARE)
    w = minimize_h(SQUARE, sides)
    assert check_fingerhut(SQUARE, sides, w.o_star).tolerance == 1e-6  # longest edge 1
    assert check_theorem(sides, w).tolerance == 1e-6
    assert check_suri(SQUARE, diagonals).tolerance == 1e-6 * diagonals.cost
    helly = check_helly_triples(SQUARE, sides, w)
    lams = (helly.details["lambda_star"], helly.details["support_lambda"])
    assert helly.margin == min(abs(RATIO_BOUND + 1e-6 - lam) for lam in lams)
    # within 1.0 of the bound the sides would stop at once; 1e-6 takes a swap
    assert len(descend(SQUARE, sides).trace) == 1


class TestCheckFingerhut:
    def test_doubled_triangle_tight(self):
        v = check_fingerhut(DOUBLED_TRIANGLE, triangle_sides(), TRIANGLE_CENTROID)
        assert v.passed
        assert abs(v.margin) <= 1e-9

    def test_square_diagonals_have_slack(self):
        m = Matching.from_pairs(SQUARE, [(0, 2), (1, 3)])
        v = check_fingerhut(SQUARE, m, (0.5, 0.5))
        assert v.passed
        assert v.margin == pytest.approx(
            RATIO_BOUND * math.sqrt(2) - math.sqrt(2), abs=1e-12
        )

    def test_square_sides_fail(self):
        v = check_fingerhut(SQUARE, square_sides(), (0.5, 0.5))
        assert not v.passed
        assert v.margin == pytest.approx(RATIO_BOUND - math.sqrt(2), abs=1e-12)

    def test_consistent_with_witness_bound(self):
        for seed in range(15):
            s = generate(InstanceSpec("gaussian", 8, seed))
            m = exact_max_sum(s)
            w = minimize_h(s, m)
            if w.lambda_star <= RATIO_BOUND + 1e-6:
                assert check_fingerhut(s, m, w.o_star).passed

    def test_verdict_invariant(self):
        v = check_fingerhut(SQUARE, square_sides(), (0.5, 0.5))
        assert v.passed == (v.margin >= -v.tolerance)

    def test_tiny_scale_edges_are_not_degenerate(self):
        # The zero-edge floor is relative to the diameter, so a valid
        # instance scaled by a power of two keeps its verdict and its margin
        # scales exactly.
        s = generate(InstanceSpec("uniform-square", 10, 3))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        k = 2.0**-40
        tiny = PointSet.of([(k * x, k * y) for x, y in s])
        o = (k * w.o_star[0], k * w.o_star[1])
        v = check_fingerhut(tiny, Matching.from_pairs(tiny, m.pairs), o)
        assert v.passed
        assert v.margin == k * check_fingerhut(s, m, w.o_star).margin

    def test_tolerance_scales_with_longest_edge(self):
        # A point far outside the ellipses fails at every scale: the
        # tolerance is relative to the longest edge, with no absolute floor.
        s = generate(InstanceSpec("uniform-square", 10, 3))
        m = exact_max_sum(s)
        k = 2.0**-40
        tiny = PointSet.of([(k * x, k * y) for x, y in s])
        v = check_fingerhut(s, m, (5.0, 5.0))
        vt = check_fingerhut(tiny, Matching.from_pairs(tiny, m.pairs), (5.0 * k, 5.0 * k))
        assert not v.passed
        assert not vt.passed
        assert vt.tolerance == k * v.tolerance

    @pytest.mark.parametrize(
        "move",
        [lambda c: c, lambda c: c * 2.0**-40, lambda c: c + 2.0**49],
        ids=["unit", "scaled-2^-40", "offset-2^49"],
    )
    def test_short_edge_is_degenerate_for_witness_and_verdict(self, move):
        # Both paths reject an edge of length <= EPS_GEO in the unit frame
        # (here 5e-10), although the ratio itself is defined on it; this
        # pins the one threshold they share today.
        s = PointSet.of([(move(x), move(y)) for x, y in [(0, 0), (5e-10, 0), (1, 1), (0, 1)]])
        m = Matching.from_pairs(s, [(0, 1), (2, 3)])
        with pytest.raises(DegenerateEdgeError):
            minimize_h(s, m)
        with pytest.raises(DegenerateEdgeError):
            check_fingerhut(s, m, (move(0.5), move(0.5)))


class TestVerdictInvariant:
    def test_holds_for_every_check(self):
        s = generate(InstanceSpec("uniform-square", 8, 23))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        verdicts = [
            check_fingerhut(s, m, w.o_star),
            check_theorem(m, w),
            check_helly_triples(s, m, w),
            check_suri(s, m),
            check_tverberg_disks(s, m),
        ]
        for v in verdicts:
            assert v.passed == (v.margin >= -v.tolerance), v.name


class TestCheckTheorem:
    def test_random_instances_pass(self):
        for seed in range(10):
            v = theorem_verdict(generate(InstanceSpec("uniform-square", 10, seed)))
            assert v.passed

    def test_doubled_triangle_margin_zero(self):
        v = theorem_verdict(DOUBLED_TRIANGLE)
        assert v.passed
        assert abs(v.margin) <= 1e-7

    def test_two_points(self):
        v = theorem_verdict(PointSet.of([(0, 0), (1, 1)]))
        assert v.passed
        assert v.details["lambda_star"] == pytest.approx(1.0, abs=1e-9)


class TestCheckHellyTriples:
    def test_max_sum_matchings_consistent(self):
        for seed in range(5):
            s = generate(InstanceSpec("uniform-square", 8, seed))
            m = exact_max_sum(s)
            v = helly_verdict(s, m)
            assert v.passed

    def test_bad_matching_fails_globally_and_triplewise(self):
        # three nested side-paired squares: every triple already violates
        pts = []
        for r in (1.0, 2.0, 3.0):
            pts.extend([(-r, -r), (r, -r), (r, r), (-r, r)])
        s = PointSet.of(pts)
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
        m = Matching.from_pairs(s, pairs)
        v = helly_verdict(s, m)
        assert v.passed  # discordance-free: both global and triples fail
        assert v.details["lambda_star"] > RATIO_BOUND
        assert v.details["support_lambda"] > RATIO_BOUND

    def test_single_edge_matching(self):
        s = PointSet.of([(0, 0), (1, 0)])
        m = Matching.from_pairs(s, [(0, 1)])
        v = helly_verdict(s, m)
        assert v.passed

    def test_converged_reported(self):
        s = generate(InstanceSpec("uniform-square", 8, 0))
        assert helly_verdict(s, exact_max_sum(s)).details["converged"] is True

    def test_pair_matching_degenerates_to_pairs(self):
        s = SQUARE
        m = exact_max_sum(s)
        v = helly_verdict(s, m)
        assert v.passed
        assert len(v.details["support"]) <= 2

    def test_a_certified_witness_runs_no_sub_solve(self, monkeypatch):
        # o* minimizes the certificate edges' max too, so their bracket at
        # o* certifies it and gives lambda*(T) without a solve.
        s = generate(InstanceSpec("uniform-square", 12, 0))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        counts = count_calls(monkeypatch, minimize_h_over_edges, certificate_over_edges)
        v = check_helly_triples(s, m, w)
        assert v.passed
        assert v.details["converged"] is True
        assert counts == {"minimize_h_over_edges": 0, "certificate_over_edges": 1}

    def test_a_witness_off_its_vertex_runs_one_sub_solve(self, monkeypatch):
        # Moved off the vertex, o* is no longer certified for the support:
        # the edges are solved from scratch, and the verdict is the one
        # that solve gives.
        s = generate(InstanceSpec("uniform-square", 12, 0))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        moved = w.replace(o_star=(w.o_star[0] + 0.01, w.o_star[1] - 0.02))
        support = [e for e, mu in w.certificate if mu > 0.0]
        pairs = [m.pairs[e] for e in support]
        assert not certificate_over_edges(s, pairs, moved.o_star).ok
        sub = minimize_h_over_edges(s, pairs)
        counts = count_calls(monkeypatch, minimize_h_over_edges)
        v = check_helly_triples(s, m, moved)
        assert counts == {"minimize_h_over_edges": 1}
        threshold = RATIO_BOUND + DEFAULT_THEOREM_TOL
        margin = min(abs(threshold - w.lambda_star), abs(threshold - sub.lambda_star))
        assert v == Verdict(
            name="helly",
            passed=True,
            margin=margin,
            tolerance=0.0,
            details={
                "lambda_star": w.lambda_star,
                "support": support,
                "support_lambda": sub.lambda_star,
                "converged": True,
            },
        )
        # the certified witness gives the same verdict up to rounding
        at_vertex = check_helly_triples(s, m, w)
        assert at_vertex.passed
        assert at_vertex.details["support_lambda"] == pytest.approx(sub.lambda_star, rel=1e-12)

    def test_over_reported_lambda_caught(self):
        s = generate(InstanceSpec("uniform-square", 12, 0))
        m = exact_max_sum(s)
        w = minimize_h(s, m).replace(lambda_star=1.3)
        v = check_helly_triples(s, m, w)
        assert not v.passed
        assert v.details["support_lambda"] <= RATIO_BOUND < v.details["lambda_star"]
        assert v.margin < 0

    def test_support_value_bounded_by_lambda_star(self):
        for seed in range(5):
            s = generate(InstanceSpec("uniform-square", 8, seed))
            v = helly_verdict(s, exact_max_sum(s))
            lam = v.details["lambda_star"]
            assert v.details["support_lambda"] <= lam + 1e-12 * lam
            assert 1 <= len(v.details["support"]) <= 3


class TestCheckSuri:
    def test_doubled_triangle_equality(self):
        v = suri_verdict(DOUBLED_TRIANGLE)
        assert v.passed
        assert abs(v.margin) <= 1e-12
        assert v.details["steiner_total"] == pytest.approx(2 * math.sqrt(3), rel=1e-12)
        assert v.details["matching_cost"] == pytest.approx(3.0, abs=1e-12)

    def test_unit_square(self):
        v = suri_verdict(SQUARE)
        assert v.passed
        assert v.details["steiner_total"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_two_points(self):
        v = suri_verdict(PointSet.of([(0, 0), (5, 0)]))
        assert v.passed

    def test_random_instances(self):
        for seed in range(15):
            v = suri_verdict(generate(InstanceSpec("clustered", 10, seed)))
            assert v.passed


class TestCheckTverbergDisks:
    def test_square_diagonals(self):
        m = Matching.from_pairs(SQUARE, [(0, 2), (1, 3)])
        v = check_tverberg_disks(SQUARE, m)
        assert v.passed
        # both disks are centered at (0.5, 0.5) with radius sqrt(2)/2
        assert v.margin == pytest.approx(math.sqrt(2) / 2, abs=1e-6)

    def test_max_sum_matchings_pass(self):
        for seed in range(10):
            s = generate(InstanceSpec("uniform-square", 8, seed))
            m = exact_max_sum(s)
            assert check_tverberg_disks(s, m).passed

    def test_far_apart_side_pairing_fails(self):
        s = PointSet.of([(0, 0), (1, 0), (10, 0), (11, 0)])
        m = Matching.from_pairs(s, [(0, 1), (2, 3)])
        v = check_tverberg_disks(s, m)
        assert not v.passed
        assert v.margin < -1.0

    @pytest.mark.parametrize("factor, passed", [(0.95, True), (1.05, False)])
    def test_threshold_is_eps_geo_in_the_frame(self, factor, passed):
        # Two unit diameters on a line, g apart: the least worst slack is
        # g / 2, at the middle of the gap, and the frame's scale is 2 + g.
        # The verdict passes just inside EPS_GEO = 1e-9 of the frame and
        # fails just outside it; the threshold is written out, so that moving
        # it fails this test.
        v = factor * 1e-9
        g = 4.0 * v / (1.0 - 2.0 * v)
        s = PointSet.of([(0, 0), (1, 0), (1 + g, 0), (2 + g, 0)])
        d = check_tverberg_disks(s, Matching.from_pairs(s, [(0, 1), (2, 3)]))
        assert d.details["converged"] is True
        assert d.details["worst_slack"] == pytest.approx(g / 2.0, rel=1e-6)
        assert d.passed is passed
        assert d.tolerance == EPS_GEO * (2 + g)

    def test_independent_of_ellipse_verdict(self):
        # side-paired square: ratio bound fails but the disks still meet
        m = square_sides()
        assert not check_fingerhut(SQUARE, m, (0.5, 0.5)).passed
        assert check_tverberg_disks(SQUARE, m).passed
