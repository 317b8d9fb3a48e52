"""Witness extraction, support, certificates, and the Steiner star."""

from __future__ import annotations

import dataclasses
import json
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
from ellimatch.cli import main
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
        assert not cert.ok and cert.gap > 1e-3
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
            return dataclasses.replace(res, converged=False)

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

    def test_floor_certifies_a_duplicated_point(self, tmp_path, capsys):
        # Both edges start at (0, 0), where both ratios are 1, the least a
        # ratio takes.  No gradient combination cancels there (residual
        # 1/sqrt(2)), so only the bracket's floor certifies the point.
        s = PointSet.of([(0, 0), (0, 0), (1, 0), (0, 1)])
        m = Matching.from_pairs(s, [(0, 2), (1, 3)])
        w = minimize_h(s, m)
        assert w.converged and w.lambda_star == 1.0 and w.support is None
        cert = optimality_certificate(s, m, (0.0, 0.0))
        assert cert.ok and cert.gap == 0.0
        assert cert.residual == w.residual == math.sqrt(0.5)
        pts, mfile = tmp_path / "p.csv", tmp_path / "m.json"
        pts.write_text("0,0\n0,0\n1,0\n0,1\n")
        mfile.write_text(json.dumps({"pairs": [[0, 2], [1, 3]], "cost": 2.0}))
        assert main(["witness", "--points", str(pts), "--matching", str(mfile)]) == 0
        report = json.loads(capsys.readouterr().out)["witness"]
        assert report["converged"] is True and report["residual"] == math.sqrt(0.5)

    def test_point_above_the_minimum_is_rejected(self):
        # Points 3e-7 off the witness lie 1.5e-7 to 3.6e-7 above the minimum
        # while their active edges' gradient hull still holds the origin
        # (residual below 1e-16); the bracket's gap covers the excess.
        s = generate(InstanceSpec("uniform-square", 12, 0))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        assert optimality_certificate(s, m, w.o_star).ok
        for k in range(8):
            a = 2 * math.pi * k / 8
            o = (w.o_star[0] + 3e-7 * math.cos(a), w.o_star[1] + 3e-7 * math.sin(a))
            cert = optimality_certificate(s, m, o)
            excess = cert.lambda_at - w.lambda_star
            assert excess > 1e-7 and cert.residual < 1e-16
            assert cert.gap >= excess
            assert cert.ok is False and cert.support is None


# repr(steiner_star(s)) as the iteration gave it when it tested the nearest
# data point at every step; testing each point once must keep every bit.
STAR_BANK = {
    ("uniform-square", 12, 0): "((0.64415794147201, 0.5735531587400012), 3.849783952650598, True)",
    ("uniform-square", 12, 1): "((0.5287115334621519, 0.4603817025153378), 5.026833702939144, True)",
    ("uniform-square", 12, 2): "((0.5255866383024268, 0.3764555658740708), 4.392446279804388, True)",
    ("gaussian", 12, 0): "((0.14441820107424808, -0.5337455233444928), 16.747541448865057, True)",
    ("gaussian", 12, 1): "((0.1690578096863813, -0.10218464655326787), 13.175816909234886, True)",
    ("gaussian", 12, 2): "((-0.2614525838727427, -0.3063463725183473), 14.13519312952884, True)",
    ("clustered", 12, 0): "((0.5563746377015855, 0.42290068454478624), 2.794905751547131, True)",
    ("clustered", 12, 1): "((0.5373008984476941, 0.45543271855567036), 3.15879331498222, True)",
    ("clustered", 12, 2): "((0.7217617637203205, 0.6999305601470642), 5.478007301826888, True)",
    ("doubled-polygon", 6, 0): "((-5.551115123125783e-17, 1.1102230246251565e-16), 3.464101615137755, True)",
    ("doubled-polygon", 8, 0): "((0.0, 0.0), 5.656854249492381, True)",
    ("doubled-polygon", 12, 0): "((0.0, 1.1102230246251565e-16), 12.000000000000004, True)",
    ("clustered", 4, 42): "((0.6403064537370624, 0.05240883753966584), 0.1997063409452871, True)",
}


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

    def test_step_off_a_data_point_that_is_not_the_median(self):
        # The centroid is the data point (0, 0); the other points pull on it
        # with 3 against its 1 coincident point, so the iteration steps
        # along that pull and ends at the median (1, 0).
        s = PointSet.of([(0, 0), (1, 0), (1, 0), (1, 0), (1, 0), (-4, 0)])
        assert steiner_star(s) == ((1.0, 0.0), 6.0, True)

    def test_iteration_limit_reported(self, monkeypatch):
        s = PointSet.of([(0, 0), (3, 1), (1, 4), (5, 5)])
        assert steiner_star(s)[2]
        monkeypatch.setattr(witness, "STAR_MAX_ITERS", 1)
        assert not steiner_star(s)[2]

    @pytest.mark.parametrize("spec", list(STAR_BANK), ids=lambda s: "-".join(map(str, s)))
    def test_results_match_the_recorded_bank(self, spec):
        assert repr(steiner_star(generate(InstanceSpec(*spec)))) == STAR_BANK[spec]

    def test_each_data_point_is_tested_once(self, monkeypatch):
        pull, vertex_optimal = witness._pull, witness._vertex_optimal
        passes, nearest, tested = [0], set(), []

        def counted_pull(pts, y):
            passes[0] += 1
            out = pull(pts, y)
            nearest.add(out[6])
            return out

        def counted_vertex_optimal(pts, c):
            tested.append(c)
            return vertex_optimal(pts, c)

        monkeypatch.setattr(witness, "_pull", counted_pull)
        monkeypatch.setattr(witness, "_vertex_optimal", counted_vertex_optimal)
        for spec in STAR_BANK:
            passes[0] = 0
            nearest.clear()
            tested.clear()
            steiner_star(generate(InstanceSpec(*spec)))
            steps = passes[0] - len(tested)
            assert len(tested) == len(set(tested)), spec
            assert passes[0] <= steps + len(nearest), spec
