"""Bicolored graphs, alternating cycles, and the descent loop."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from conftest import (
    DOUBLED_TRIANGLE,
    SQUARE,
    certificate_edges,
    random_perfect_matching,
    square_sides,
    triangle_sides,
)
from ellimatch import (
    RATIO_BOUND,
    AlternatingCycle,
    BicoloredGraph,
    InstanceSpec,
    Matching,
    PointSet,
    apply_cycle,
    build_graph,
    descend,
    dist,
    find_alternating_cycle,
    generate,
    minimize_h,
    optimality_certificate,
)
from ellimatch.descent import ImprovementError, VertexAtOriginError, _find_improving_cycle
from ellimatch.geom import DegenerateEdgeError


def square_sides_graph() -> BicoloredGraph:
    m = square_sides()
    return build_graph(SQUARE, list(m.pairs), (0.5, 0.5), math.sqrt(2))


class TestBuildGraph:
    def test_unit_square_classification(self):
        g = square_sides_graph()
        assert g.point_ids == (0, 1, 2, 3)
        blue = {tuple(sorted((g.point_ids[a], g.point_ids[b]))) for a, b in g.blue_edges}
        red = {tuple(sorted((g.point_ids[a], g.point_ids[b]))) for a, b in g.red_edges}
        assert blue == {(0, 1), (2, 3)}
        # diagonals beat the ratio strictly; vertical pairs are equality cases
        assert red == {(0, 2), (1, 3)}

    def test_doubled_triangle_has_no_red(self):
        m = triangle_sides()
        w = minimize_h(DOUBLED_TRIANGLE, m)
        g = build_graph(DOUBLED_TRIANGLE, list(m.pairs), w.o_star, w.lambda_star)
        assert g.red_edges == ()
        assert find_alternating_cycle(g) is None

    def test_vertex_at_witness_rejected(self):
        m = square_sides()
        with pytest.raises(VertexAtOriginError):
            build_graph(SQUARE, list(m.pairs), (0.0, 0.0), math.sqrt(2))

    @pytest.mark.parametrize("r", [1e-13, 1.0])
    def test_coincident_vertices_rejected_at_every_scale(self, r):
        # four copies of one point at distance r from the witness: the blue
        # edges have zero length, whatever r is
        s = PointSet.of([(r, 0.0)] * 4)
        with pytest.raises(DegenerateEdgeError):
            build_graph(s, [(0, 1), (2, 3)], (0.0, 0.0), 1.5)

    def test_color_classes_invariant_under_similarity(self):
        rng = random.Random(13)
        s = generate(InstanceSpec("uniform-square", 8, 3))
        init = random_perfect_matching(s, rng)
        w = minimize_h(s, init)
        assert w.lambda_star > 1.01
        act = certificate_edges(optimality_certificate(s, init, w.o_star))
        pairs = [init.pairs[e] for e in act]
        g = build_graph(s, pairs, w.o_star, w.lambda_star)

        theta, factor, shift = 1.1, 3.7, (-4.0, 2.5)
        ct, st_ = math.cos(theta), math.sin(theta)

        def xform(p):
            x, y = p[0] - w.o_star[0], p[1] - w.o_star[1]
            return (
                factor * (ct * x - st_ * y) + shift[0],
                factor * (st_ * x + ct * y) + shift[1],
            )

        s2 = PointSet.of([xform(p) for p in s])
        g2 = build_graph(s2, pairs, shift, w.lambda_star)

        def key(g, edges):
            return {
                tuple(sorted((g.point_ids[a], g.point_ids[b]))) for a, b in edges
            }

        assert key(g, g.blue_edges) == key(g2, g2.blue_edges)
        assert key(g, g.red_edges) == key(g2, g2.red_edges)


class TestFindAlternatingCycle:
    def test_unit_square_cycle(self):
        g = square_sides_graph()
        cycle = find_alternating_cycle(g)
        assert cycle is not None
        assert len(cycle.vertices) == 4
        blue = {tuple(sorted(p)) for p in cycle.blue_pairs()}
        red = {tuple(sorted(p)) for p in cycle.red_pairs()}
        assert blue == {(0, 1), (2, 3)}
        assert red == {(0, 2), (1, 3)}

    def test_six_vertex_blocking_structure_has_none(self):
        # blue a1b1, a2b2, a3b3 with red {a1a2, a1b2, b1a3, b1b3}: every red
        # edge funnels through a1 or b1, so no alternating cycle closes
        verts = [(math.cos(k * math.pi / 3) + 3.0, math.sin(k * math.pi / 3)) for k in range(6)]
        g = BicoloredGraph(
            vertices=tuple(verts),
            point_ids=tuple(range(6)),
            blue_edges=((0, 1), (2, 3), (4, 5)),
            red_edges=((0, 2), (0, 3), (1, 4), (1, 5)),
        )
        assert find_alternating_cycle(g) is None

    def test_no_red_edges_means_no_cycle(self):
        g = BicoloredGraph(
            vertices=((1.0, 0.0), (2.0, 0.0)),
            point_ids=(0, 1),
            blue_edges=((0, 1),),
            red_edges=(),
        )
        assert find_alternating_cycle(g) is None

    def test_six_cycle_found(self):
        # three blue edges wired into a single 6-cycle by three red edges
        g = BicoloredGraph(
            vertices=tuple((math.cos(a), math.sin(a)) for a in [k * math.pi / 3 for k in range(6)]),
            point_ids=(0, 1, 2, 3, 4, 5),
            blue_edges=((0, 1), (2, 3), (4, 5)),
            red_edges=((1, 2), (3, 4), (5, 0)),
        )
        cycle = find_alternating_cycle(g)
        assert cycle is not None
        assert len(cycle.vertices) == 6


class TestApplyCycle:
    def test_square_swap_improves(self):
        g = square_sides_graph()
        cycle = find_alternating_cycle(g)
        out = apply_cycle(square_sides(), cycle, SQUARE)
        assert out.pairs == ((0, 2), (1, 3))
        assert out.cost == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_cycle_not_in_matching_rejected(self):
        g = square_sides_graph()
        cycle = find_alternating_cycle(g)
        diagonals = Matching.from_pairs(SQUARE, [(0, 2), (1, 3)])
        from ellimatch.descent import CycleMatchError

        with pytest.raises(CycleMatchError):
            apply_cycle(diagonals, cycle, SQUARE)

    def test_too_short_cycle_rejected(self):
        with pytest.raises(ValueError):
            AlternatingCycle((0, 1))

    def test_non_improving_swap_flagged(self):
        # a hand-built "cycle" that swaps the diagonals away must fail
        cycle = AlternatingCycle((0, 2, 1, 3))
        diagonals = Matching.from_pairs(SQUARE, [(0, 2), (1, 3)])
        with pytest.raises(ImprovementError):
            apply_cycle(diagonals, cycle, SQUARE)

    def test_random_six_point_swaps_verified_by_cost(self):
        rng = random.Random(5)
        done = 0
        for seed in range(40):
            s = generate(InstanceSpec("uniform-square", 6, seed))
            init = random_perfect_matching(s, rng)
            w = minimize_h(s, init)
            if w.lambda_star <= RATIO_BOUND + 1e-6:
                continue
            cycle = _find_improving_cycle(s, init, w)
            assert cycle is not None
            support = {init.pairs[e] for e in w.support}
            assert {tuple(sorted(p)) for p in cycle.blue_pairs()} <= support
            out = apply_cycle(init, cycle, s)
            assert out.cost > init.cost
            done += 1
        assert done >= 10

    def test_witness_without_support_gives_no_cycle(self):
        w = minimize_h(SQUARE, square_sides())
        assert w.support is not None
        assert _find_improving_cycle(SQUARE, square_sides(), w) is not None
        no_support = dataclasses.replace(w, support=None)
        assert _find_improving_cycle(SQUARE, square_sides(), no_support) is None


class TestDescend:
    def test_square_from_sides(self):
        result = descend(SQUARE, square_sides())
        assert result.ok
        assert result.matching.pairs == ((0, 2), (1, 3))
        assert len(result.trace) == 1
        assert result.witness.lambda_star == pytest.approx(1.0, abs=1e-6)

    def test_doubled_triangle_zero_steps(self):
        result = descend(DOUBLED_TRIANGLE, triangle_sides())
        assert result.ok
        assert result.trace == ()
        assert result.witness.lambda_star == pytest.approx(RATIO_BOUND, abs=1e-7)

    def test_batch_random_inits(self):
        rng = random.Random(99)
        for seed in range(50):
            n = (4, 6, 8, 10, 12)[seed % 5]
            s = generate(InstanceSpec("uniform-square", n, seed + 300))
            init = random_perfect_matching(s, rng)
            result = descend(s, init)
            assert result.ok, (seed, result.status)
            assert result.witness.lambda_star <= RATIO_BOUND + 1e-6
            assert len(result.trace) <= 500
            costs = [init.cost] + [step.cost for step in result.trace]
            for before, after in zip(costs, costs[1:]):
                assert after > before

    def test_zero_edges_cleaned_by_initial_local_search(self):
        s = PointSet.of([(0, 0), (0, 0), (1, 0), (0, 1)])
        init = Matching.from_pairs(s, [(0, 1), (2, 3)])
        result = descend(s, init)
        assert result.ok
        assert min(dist(s[i], s[j]) for i, j in result.matching.pairs) > 0.0

    def test_all_coincident_flagged_degenerate(self):
        s = PointSet.of([(1, 1)] * 4)
        init = Matching.from_pairs(s, [(0, 1), (2, 3)])
        result = descend(s, init)
        assert result.status == "degenerate_edges"


def _degenerate_family(name: str, n: int, seed: int) -> PointSet:
    rng = random.Random(100 * n + seed)
    if name == "regular-polygon":
        pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    elif name == "on-circle":
        angles = [rng.uniform(0.0, 2 * math.pi) for _ in range(n)]
        pts = [(math.cos(a), math.sin(a)) for a in angles]
    elif name == "grid-4x4":
        pts = rng.sample([(float(x), float(y)) for x in range(4) for y in range(4)], n)
    elif name == "near-duplicate-pairs":
        pts = []
        for _ in range(n // 2):
            p = (rng.random(), rng.random())
            pts += [p, (p[0] + 1e-9, p[1])]
    elif name == "offset-1e12":
        pts = [(1e12 + rng.random(), 1e12 + rng.random()) for _ in range(n)]
    else:  # "strip-1x1e-7"
        pts = [(rng.random(), 1e-7 * rng.random()) for _ in range(n)]
    return PointSet.of(pts)


class TestDescendDegenerateFamilies:
    @pytest.mark.parametrize(
        "family",
        [
            "regular-polygon",
            "on-circle",
            "grid-4x4",
            "near-duplicate-pairs",
            "offset-1e12",
            "strip-1x1e-7",
        ],
    )
    def test_support_descent_never_loses_the_cycle(self, family):
        for n in (8, 12):
            for seed in range(3):
                s = _degenerate_family(family, n, seed)
                init = random_perfect_matching(s, random.Random(seed))
                result = descend(s, init)
                # solver_failure is allowed: the minimizer still fails to
                # converge on near-duplicate and flat sets, the open
                # minimizer defect of ROADMAP item 3.
                assert result.status not in ("cycle_not_found", "improvement_violation"), (
                    n,
                    seed,
                    result.status,
                )
                costs = [init.cost] + [step.cost for step in result.trace]
                for before, after in zip(costs, costs[1:]):
                    assert after > before
                if result.ok:
                    assert result.witness.lambda_star <= RATIO_BOUND + 1e-6
