"""Witness extraction, support, certificates, and the Steiner star."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from conftest import (
    DOUBLED_TRIANGLE,
    SQUARE,
    TRIANGLE,
    TRIANGLE_CENTROID,
    certificate_edges,
    max_ratio,
    square_sides,
    triangle_sides,
)
from ellimatch import (
    EPS_CERT,
    EPS_GEO,
    RATIO_BOUND,
    InstanceSpec,
    Matching,
    PointSet,
    caratheodory_support,
    check_helly_triples,
    dist,
    exact_max_sum,
    generate,
    h_ratio,
    minimize_h,
    optimality_certificate,
    steiner_star,
)
from ellimatch import witness
from ellimatch.minimax import minimize_max
from ellimatch.witness import LAMBDA_SEGMENT


def grid_minimize(s, pairs, lo, hi, *, levels=7, grid=40):
    """Independent coarse-to-fine grid search oracle for the minimax ratio."""
    best_v = math.inf
    best_x = None
    span = hi - lo
    centers = [((lo + hi) / 2, (lo + hi) / 2)]
    for _ in range(levels):
        cx, cy = centers[0]
        for a in range(-grid, grid + 1):
            for b in range(-grid, grid + 1):
                x = (cx + span * a / grid, cy + span * b / grid)
                v = max_ratio(s, pairs, x)
                if v < best_v:
                    best_v, best_x = v, x
        centers = [best_x]
        span /= grid / 2.0
    return best_x, best_v


class TestMinimizeH:
    def test_single_edge_returns_midpoint(self):
        s = PointSet.of([(-1, 0), (1, 0)])
        m = Matching.from_pairs(s, [(0, 1)])
        w = minimize_h(s, m)
        assert w.lambda_star == pytest.approx(1.0, abs=1e-9)
        assert w.o_star == pytest.approx((0.0, 0.0), abs=1e-9)
        assert w.support is None
        assert w.converged

    def test_doubled_triangle_attains_bound_at_centroid(self):
        w = minimize_h(DOUBLED_TRIANGLE, triangle_sides())
        assert w.lambda_star == pytest.approx(RATIO_BOUND, abs=1e-7)
        assert dist(w.o_star, TRIANGLE_CENTROID) <= 1e-6
        assert w.converged and w.residual <= 1e-7

    def test_square_sides_against_grid_oracle(self):
        m = square_sides()
        w = minimize_h(SQUARE, m)
        ox, ov = grid_minimize(SQUARE, m.pairs, 0.0, 1.0)
        assert w.lambda_star == pytest.approx(math.sqrt(2), abs=1e-7)
        assert w.lambda_star <= ov + 1e-9
        assert w.o_star == pytest.approx((0.5, 0.5), abs=1e-6)
        assert ox == pytest.approx((0.5, 0.5), abs=1e-4)

    def test_exact_matching_against_grid_oracle(self):
        s = generate(InstanceSpec("uniform-square", 12, 0))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        _, ov = grid_minimize(s, m.pairs, 0.0, 1.0)
        assert w.converged
        assert w.lambda_star <= ov + 1e-9

    def test_no_edge_beats_lambda_star(self):
        for seed in range(15):
            s = generate(InstanceSpec("uniform-square", 8, seed))
            m = exact_max_sum(s)
            w = minimize_h(s, m)
            for i, j in m.pairs:
                assert h_ratio(s[i], s[j], w.o_star) <= w.lambda_star + EPS_GEO

    def test_certificate_structure(self):
        w = minimize_h(DOUBLED_TRIANGLE, triangle_sides())
        coeffs = [c for _, c in w.certificate]
        assert all(c >= -1e-12 for c in coeffs)
        assert sum(coeffs) == pytest.approx(1.0, abs=1e-9)
        for c in coeffs:
            assert c == pytest.approx(1 / 3, abs=1e-6)

    def test_probes_confirm_global_minimality(self):
        rng = random.Random(21)
        for seed in range(10):
            s = generate(InstanceSpec("uniform-square", 10, seed))
            m = exact_max_sum(s)
            w = minimize_h(s, m)
            assert w.residual <= 1e-7
            for _ in range(100):
                weights = [rng.random() for _ in range(len(s))]
                tot = sum(weights)
                p = (
                    sum(wt * q[0] for wt, q in zip(weights, s)) / tot,
                    sum(wt * q[1] for wt, q in zip(weights, s)) / tot,
                )
                assert max_ratio(s, m.pairs, p) >= w.lambda_star - 1e-5

    def test_similarity_equivariance(self):
        s = generate(InstanceSpec("uniform-square", 8, 5))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        shift, factor = (3.5, -2.25), 7.0
        s2 = PointSet.of([(factor * x + shift[0], factor * y + shift[1]) for x, y in s])
        m2 = Matching.from_pairs(s2, m.pairs)
        w2 = minimize_h(s2, m2)
        assert w2.lambda_star == pytest.approx(w.lambda_star, abs=1e-9)
        expected = (factor * w.o_star[0] + shift[0], factor * w.o_star[1] + shift[1])
        assert dist(w2.o_star, expected) <= 1e-6 * factor

    def test_zero_edge_rejected(self):
        s = PointSet.of([(0, 0), (0, 0), (1, 0), (0, 1)])
        m = Matching.from_pairs(s, [(0, 1), (2, 3)])
        from ellimatch import DegenerateEdgeError

        with pytest.raises(DegenerateEdgeError):
            minimize_h(s, m)


class TestActiveSet:
    """The certificate's active edges at a point."""

    def test_square_sides_both_active(self):
        m = square_sides()
        w = minimize_h(SQUARE, m)
        assert certificate_edges(optimality_certificate(SQUARE, m, w.o_star)) == (0, 1)

    def test_doubled_triangle_all_active(self):
        m = triangle_sides()
        w = minimize_h(DOUBLED_TRIANGLE, m)
        cert = optimality_certificate(DOUBLED_TRIANGLE, m, w.o_star)
        assert certificate_edges(cert) == (0, 1, 2)

    def test_strictly_contained_edge_excluded(self):
        # at o = (0.5, 0.3) the bottom edge's ratio is well below the top
        # edge's, so its ellipse at the max level strictly contains o
        m = square_sides()
        o = (0.5, 0.3)
        cert = optimality_certificate(SQUARE, m, o)
        assert cert.lambda_at == pytest.approx(max_ratio(SQUARE, m.pairs, o), rel=1e-12)
        assert certificate_edges(cert) == (1,)


class TestCaratheodorySupport:
    """The certificate's positive-weight edges at a point."""

    def test_two_edge_segment_case(self):
        m = square_sides()
        w = minimize_h(SQUARE, m)
        cert = optimality_certificate(SQUARE, m, w.o_star)
        assert cert.support == (0, 1)
        assert sum(dict(cert.coefficients)[e] for e in cert.support) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_triangle_needs_all_three(self):
        m = triangle_sides()
        w = minimize_h(DOUBLED_TRIANGLE, m)
        cert = optimality_certificate(DOUBLED_TRIANGLE, m, w.o_star)
        assert len(cert.support) == 3
        for e in cert.support:
            assert dict(cert.coefficients)[e] == pytest.approx(1 / 3, abs=1e-6)

    def test_failure_signals_bad_witness(self):
        m = triangle_sides()
        # a point far from the true witness has no containing support
        cert = optimality_certificate(DOUBLED_TRIANGLE, m, (0.9, 0.8))
        assert not cert.ok and cert.residual > EPS_CERT
        assert cert.support is None

    def test_benchmark_shim_is_the_certificate_support(self):
        m = triangle_sides()
        w = minimize_h(DOUBLED_TRIANGLE, m)
        assert caratheodory_support(DOUBLED_TRIANGLE, m, w.o_star) == (0, 1, 2)
        assert caratheodory_support(DOUBLED_TRIANGLE, m, (0.9, 0.8)) is None

    def test_support_size_two_or_three_above_one(self):
        for seed in range(20):
            s = generate(InstanceSpec("uniform-square", 10, seed))
            m = exact_max_sum(s)
            w = minimize_h(s, m)
            if w.lambda_star > 1.0 + 1e-6:
                assert w.support is not None
                assert len(w.support) in (2, 3)
                # one support: the certificate's positive weights, which is
                # also the edge set the Helly check solves
                assert w.support == tuple(e for e, mu in w.certificate if mu > 0.0)
                assert check_helly_triples(s, m, w).details["support"] == list(w.support)
                assert optimality_certificate(s, m, w.o_star).support == w.support

    def test_doubled_pentagon_support_is_the_certificate(self):
        # A search over bisector points once reported (0, 1, 2) here while
        # the certificate put its weight on edges 1, 2 and 3.
        s = generate(InstanceSpec("doubled-polygon", 10, 0))
        w = minimize_h(s, exact_max_sum(s))
        assert w.support == (1, 2, 3)
        assert [e for e, mu in w.certificate if mu > 0.0] == [1, 2, 3]

    def test_symmetric_tie_keeps_the_exact_segment(self):
        # On the regular octagon a triangle candidate with a weight of about
        # 1e-16 on edge 1 once won the min-norm tie against the exact
        # segment of edges 2 and 3.
        s = PointSet.of(
            [(math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)) for k in range(8)]
        )
        m = Matching.from_pairs(s, [(0, 5), (1, 4), (2, 7), (3, 6)])
        w = minimize_h(s, m)
        assert w.support == (2, 3)
        weights = dict(w.certificate)
        assert weights[0] == weights[1] == 0.0
        assert weights[2] == pytest.approx(0.5, abs=1e-12)
        assert weights[3] == pytest.approx(0.5, abs=1e-12)
        assert optimality_certificate(s, m, w.o_star).support == (2, 3)
        # a tie the exact triangle wins keeps all three edges
        t = minimize_h(DOUBLED_TRIANGLE, triangle_sides())
        assert t.support == (0, 1, 2)
        for _, mu in t.certificate:
            assert mu == pytest.approx(1 / 3, abs=1e-12)

    def test_unconverged_witness_has_no_support(self, monkeypatch):
        def stalled(*args, **kwargs):
            res = minimize_max(*args, **kwargs)
            return dataclasses.replace(res, residual=2 * EPS_CERT, converged=False)

        monkeypatch.setattr(witness, "minimize_max", stalled)
        w = minimize_h(DOUBLED_TRIANGLE, triangle_sides())
        assert w.lambda_star > LAMBDA_SEGMENT and not w.converged
        assert w.support is None


class TestOptimalityCertificate:
    def test_square_sides_center(self):
        cert = optimality_certificate(SQUARE, square_sides(), (0.5, 0.5))
        assert cert.ok
        assert cert.residual <= 1e-9
        coeffs = dict(cert.coefficients)
        assert coeffs[0] == pytest.approx(0.5, abs=1e-9)
        assert coeffs[1] == pytest.approx(0.5, abs=1e-9)
        assert cert.support == (0, 1)

    def test_non_minimizer_rejected(self):
        cert = optimality_certificate(SQUARE, square_sides(), (0.3, 0.9))
        assert not cert.ok
        assert cert.residual > 1e-3
        assert cert.support is None

    def test_triangle_centroid(self):
        cert = optimality_certificate(DOUBLED_TRIANGLE, triangle_sides(), TRIANGLE_CENTROID)
        assert cert.ok
        coeffs = [c for _, c in cert.coefficients]
        assert len(coeffs) == 3
        for c in coeffs:
            assert c == pytest.approx(1 / 3, abs=1e-6)


class TestSteinerStar:
    def test_equilateral_triangle(self):
        s = PointSet.of(TRIANGLE)
        center, t, _ = steiner_star(s)
        assert t == pytest.approx(math.sqrt(3), abs=1e-7)
        assert dist(center, TRIANGLE_CENTROID) <= 1e-6

    def test_two_points(self):
        s = PointSet.of([(0, 0), (3, 4)])
        _, t, _ = steiner_star(s)
        assert t == pytest.approx(5.0, abs=1e-9)

    def test_unit_square(self):
        center, t, _ = steiner_star(SQUARE)
        assert center == pytest.approx((0.5, 0.5), abs=1e-7)
        assert t == pytest.approx(2 * math.sqrt(2), abs=1e-7)

    def test_dominates_input_points_and_centroid(self):
        rng = random.Random(17)
        for trial in range(10):
            n = 7 + trial  # odd counts included: the star needs no matching
            s = PointSet.of([(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
            _, t, _ = steiner_star(s)

            def objective(y):
                return sum(dist(y, p) for p in s)

            n = len(s)
            centroid = (sum(p[0] for p in s) / n, sum(p[1] for p in s) / n)
            assert t <= objective(centroid) + 1e-9
            for p in s:
                assert t <= objective(p) + 1e-9

    def test_vertex_optimal_cluster(self):
        # heavy multiplicity pins the median to the repeated point
        s = PointSet.of([(0, 0)] * 5 + [(1, 0), (0, 1), (-1, -1)])
        center, t, _ = steiner_star(s)
        assert dist(center, (0, 0)) <= 1e-9
        assert t == pytest.approx(1 + 1 + math.sqrt(2), abs=1e-9)

    def test_vertex_optimal_point_ends_the_iteration(self):
        # The pull of the other points on point 0 is 0.99965 <= 1, so point 0
        # is the median; plain Weiszfeld crawls towards it for 50,000 steps.
        s = generate(InstanceSpec("clustered", 4, 42))
        center, t, converged = steiner_star(s)
        assert converged
        assert center == s[0]
        assert t == pytest.approx(sum(dist(s[0], p) for p in s), rel=1e-15)

    def test_iteration_limit_reported(self):
        s = PointSet.of([(0, 0), (3, 1), (1, 4), (5, 5)])
        assert steiner_star(s)[2]
        assert not steiner_star(s, max_iters=1)[2]
