"""Matching representation and max-sum solvers."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    DOUBLED_TRIANGLE,
    SQUARE,
    TRIANGLE,
    load_perfbench,
    random_perfect_matching,
    square_sides,
)
from ellimatch import (
    InstanceSpec,
    Matching,
    PointSet,
    SizeCapError,
    brute_force_max_sum,
    dist,
    exact_max_sum,
    generate,
    local_search,
    matching,
)


def _reference_local_search(s: PointSet, init: Matching) -> Matching:
    """Reference for local_search: the same scan, tests and float sums, with
    all six distances of a slot pair recomputed on every visit instead of
    read from a table."""
    matching.validate_pairs(s, init.pairs)
    pts = s.points
    pairs = [list(p) for p in init.pairs]
    total = sum(dist(pts[i], pts[j]) for i, j in init.pairs)
    improved = True
    while improved:
        improved = False
        for e in range(len(pairs)):
            for f in range(e + 1, len(pairs)):
                a, b = pairs[e]
                c, dd = pairs[f]
                base = dist(pts[a], pts[b]) + dist(pts[c], pts[dd])
                alt1 = dist(pts[a], pts[c]) + dist(pts[b], pts[dd])
                alt2 = dist(pts[a], pts[dd]) + dist(pts[b], pts[c])
                eps = matching.improvement_threshold(total)
                if alt1 >= alt2 and alt1 > base + eps:
                    pairs[e] = [a, c]
                    pairs[f] = [b, dd]
                    total += alt1 - base
                    improved = True
                elif alt2 > base + eps:
                    pairs[e] = [a, dd]
                    pairs[f] = [b, c]
                    total += alt2 - base
                    improved = True
    return Matching.from_pairs(s, pairs)


def _reference_potentials(d) -> list[float]:
    """Reference for matching._potentials: cold Kuhn-Munkres on the costs
    -d[i][j], diagonal excluded, from u = v = 0, with every label updated
    at each step of the path search; y_i = -(u_i + v_i) / 2."""
    n = len(d)
    # rows and columns are 1-based: column 0 is the root of each row's
    # augmenting path, and way[j] the column before j on that path
    cost = [[]]
    for i, row in enumerate(d):
        c = [0.0, *(-x for x in row)]
        c[i + 1] = math.inf
        cost.append(c)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    row_of = [0] * (n + 1)  # the row assigned to each column, 0 if none
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        free = list(range(1, n + 1))  # columns not yet on the path tree
        done = [0]
        while row_of[j0]:
            i0 = row_of[j0]
            ci, ui = cost[i0], u[i0]
            delta = math.inf
            j1 = 0
            for j in free:
                cur = ci[j] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in done:
                u[row_of[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            done.append(j1)
            j0 = j1
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return [-(u[i] + v[i]) / 2 for i in range(1, n + 1)]


def _tight_count(d, y) -> int:
    """The edges exact_max_sum runs its DP on first, given potentials y:
    raised to feasibility, then slack at most _TIGHT_REL * sum(y)."""
    n = len(d)
    short = max(d[i][j] - y[i] - y[j] for i in range(n) for j in range(i + 1, n))
    if short > 0.0:
        y = [t + short / 2 for t in y]
    tol = matching._TIGHT_REL * sum(y)
    return sum(y[i] + y[j] - d[i][j] <= tol for i in range(n) for j in range(i + 1, n))


def _local_search_starts():
    """(label, point set, start) triples: the three random generators at
    n = 2-50 and 200 from random starts, clustered and gaussian n = 200
    from sequential starts (many passes, with swaps late in the last ones),
    a set where a clean row swaps, and 4x4-grid multisets, full of
    duplicate points and equal distances, from sequential starts."""
    rng = random.Random(84)
    for gen in ("uniform-square", "gaussian", "clustered"):
        for n in [*range(2, 51, 2), 200]:
            s = generate(InstanceSpec(gen, n, n))
            yield f"{gen} n={n}", s, random_perfect_matching(s, rng).pairs
    for gen in ("clustered", "gaussian"):
        s = generate(InstanceSpec(gen, 200, 1))
        yield f"{gen} n=200 sequential", s, tuple((k, k + 1) for k in range(0, 200, 2))
    # Pass 2 finds row 1 clean and swaps slot 1 with slot 3, which changed
    # after row 1 began in pass 1.  Slot 4 did not, but the new slot 1
    # gains by a swap with it; deferring that test to pass 3 ends in other
    # pairs.
    s = PointSet.of(
        [(31, 53), (48, 69), (67, 20), (97, 42), (36, 47), (51, 53), (40, 76), (69, 73), (59, 47), (48, 37)]
    )
    yield "swap in a clean row", s, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    for n in range(4, 41, 4):
        grid = random.Random(n)
        s = PointSet.of([(grid.randrange(4), grid.randrange(4)) for _ in range(n)])
        yield f"4x4 grid n={n}", s, tuple((k, k + 1) for k in range(0, n, 2))


def _improving_swap(s: PointSet, m: Matching) -> tuple[int, int] | None:
    """A slot pair whose exchange gains more than the threshold, if any."""
    eps = matching.improvement_threshold(m.cost)
    for e, (a, b) in enumerate(m.pairs):
        for f in range(e + 1, len(m.pairs)):
            c, dd = m.pairs[f]
            base = dist(s[a], s[b]) + dist(s[c], s[dd])
            alt = max(dist(s[a], s[c]) + dist(s[b], s[dd]), dist(s[a], s[dd]) + dist(s[b], s[c]))
            if alt > base + eps:
                return e, f
    return None


def _full_mask_dp(s: PointSet) -> Matching:
    """Reference for exact_max_sum: the same recurrence and reconstruction on
    (cost, -zero edges) tuples in every state, filled bottom-up over all 2^n
    masks instead of only the reachable ones."""
    n = len(s)
    pts = s.points
    d = [[dist(pts[i], pts[j]) for j in range(n)] for i in range(n)]
    full = (1 << n) - 1
    neg = (float("-inf"), 0)
    value = [neg] * (full + 1)
    value[full] = (0.0, 0)
    for mask in range(full - 1, -1, -1):
        if mask.bit_count() & 1:
            continue
        rem = ~mask & full
        bi = rem & -rem
        i = bi.bit_length() - 1
        best = neg
        jbits = rem ^ bi
        di = d[i]
        while jbits:
            bj = jbits & -jbits
            dij = di[bj.bit_length() - 1]
            rest = value[mask | bi | bj]
            v = (dij + rest[0], rest[1] - (dij == 0.0))
            if v > best:
                best = v
            jbits ^= bj
        value[mask] = best
    pairs = []
    mask = 0
    while mask != full:
        rem = ~mask & full
        bi = rem & -rem
        i = bi.bit_length() - 1
        target = value[mask]
        jbits = rem ^ bi
        di = d[i]
        while jbits:
            bj = jbits & -jbits
            j = bj.bit_length() - 1
            dij = di[j]
            rest = value[mask | bi | bj]
            if (dij + rest[0], rest[1] - (dij == 0.0)) == target:
                pairs.append((i, j))
                mask |= bi | bj
                break
            jbits ^= bj
    return Matching.from_pairs(s, pairs)


def _reachable_state_dp(s: PointSet) -> Matching:
    """Reference for exact_max_sum above 16 points, where _full_mask_dp is
    too slow: the same memoized DP over the F(n+1) states reachable from
    the empty one, with the same float values, zero counts, tie rule and
    reconstruction, on every edge instead of only the tight ones."""
    n = len(s)
    pts = s.points
    d = [[dist(pts[i], pts[j]) for j in range(n)] for i in range(n)]
    partners = [[(1 << j, d[i][j]) for j in range(i + 1, n)] for i in range(n)]
    full = (1 << n) - 1
    value: dict[int, float] = {full: 0.0}
    zeros: dict[int, int] = {}

    def solve(mask: int) -> float:
        rem = ~mask & full
        bi = rem & -rem
        base = mask | bi
        best = -math.inf
        best_zeros = 0
        for bj, dij in partners[bi.bit_length() - 1]:
            if rem & bj:
                child = base | bj
                rest = value.get(child)
                if rest is None:
                    rest = solve(child)
                v = dij + rest
                if v >= best:
                    z = zeros.get(child, 0) + (dij == 0.0)
                    if v > best or z < best_zeros:
                        best = v
                        best_zeros = z
        value[mask] = best
        if best_zeros:
            zeros[mask] = best_zeros
        return best

    solve(0)
    pairs = []
    mask = 0
    while mask != full:
        rem = ~mask & full
        bi = rem & -rem
        i = bi.bit_length() - 1
        target = (value[mask], zeros.get(mask, 0))
        for bj, dij in partners[i]:
            if rem & bj:
                child = mask | bi | bj
                if (dij + value[child], zeros.get(child, 0) + (dij == 0.0)) == target:
                    pairs.append((i, bj.bit_length() - 1))
                    mask = child
                    break
    return Matching.from_pairs(s, pairs)


def _oracle_family(name: str, n: int) -> PointSet:
    """The degenerate families checked against _reachable_state_dp."""
    rng = random.Random(n)
    if name == "circle":
        coords = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    elif name == "strip":
        coords = [(rng.random(), 1e-7 * rng.random()) for _ in range(n)]
    elif name == "integer-collinear":
        coords = [(rng.randrange(2 * n), 0) for _ in range(n)]
    elif name == "grid":
        coords = [(rng.randrange(4), rng.randrange(4)) for _ in range(n)]
    elif name == "coincident":
        coords = [(3.5, -1.25)] * n
    else:  # offset-1e12
        coords = [(1e12 + x, 1e12 + y) for x, y in generate(InstanceSpec("uniform-square", n, n))]
    return PointSet.of(coords)


def _count_dp_runs(monkeypatch) -> list[int]:
    """Count exact_max_sum's DP runs: 1 on the tight edges, 2 with the
    fallback to all edges."""
    runs = [0]
    dp = matching._max_sum_pairs

    def counted(partners):
        runs[0] += 1
        return dp(partners)

    monkeypatch.setattr(matching, "_max_sum_pairs", counted)
    return runs


def _doubled_regular_polygon(k: int) -> list[tuple[float, float]]:
    """Regular k-gon on the unit circle, every vertex twice."""
    vertices = [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)) for i in range(k)]
    return [v for v in vertices for _ in range(2)]


def _assert_same_as_full_mask_dp(s: PointSet) -> None:
    got, want = exact_max_sum(s), _full_mask_dp(s)
    assert got.pairs == want.pairs
    assert got.cost == want.cost


class TestPointSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet.of([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointSet.of([(0, 0), (float("nan"), 1)])
        with pytest.raises(ValueError):
            PointSet.of([(0, 0), (float("inf"), 1)])

    def test_duplicates_allowed(self):
        s = PointSet.of([(1, 2), (1, 2)])
        assert len(s) == 2


class TestMatchingValidation:
    def test_pairs_canonicalized(self):
        m = Matching.from_pairs(SQUARE, [(3, 1), (2, 0)])
        assert m.pairs == ((0, 2), (1, 3))

    @pytest.mark.parametrize("pairs", [[(0, 1.9), (2, 3)], [(True, 0), ("2", 3)]])
    def test_non_int_index_rejected(self, pairs):
        # int() would truncate 1.9 and coerce True and "2" into a valid matching
        with pytest.raises(ValueError):
            Matching.from_pairs(SQUARE, pairs)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            Matching.from_pairs(SQUARE, [(0, 1), (2, 7)])

    def test_duplicate_index(self):
        with pytest.raises(ValueError):
            Matching.from_pairs(SQUARE, [(0, 1), (1, 2)])

    def test_incomplete(self):
        with pytest.raises(ValueError):
            Matching.from_pairs(SQUARE, [(0, 1)])

    def test_cached_cost_matches_recomputation(self):
        rng = random.Random(3)
        for seed in range(10):
            s = generate(InstanceSpec("gaussian", 10, seed))
            m = random_perfect_matching(s, rng)
            shuffled = [(j, i) for i, j in reversed(m.pairs)]
            assert Matching.from_pairs(s, shuffled).cost == m.cost
            assert abs(m.cost - math.fsum(dist(s[i], s[j]) for i, j in m.pairs)) <= 1e-9


class TestCost:
    def test_square_diagonals(self):
        m = Matching.from_pairs(SQUARE, [(0, 2), (1, 3)])
        assert m.cost == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_square_sides(self):
        assert square_sides().cost == pytest.approx(2.0, abs=1e-15)

    def test_coincident_pair_costs_zero(self):
        s = PointSet.of([(1, 1), (1, 1)])
        m = Matching.from_pairs(s, [(0, 1)])
        assert m.cost == 0.0


class TestExactMaxSum:
    def test_square_prefers_diagonals(self):
        m = exact_max_sum(SQUARE)
        assert m.pairs == ((0, 2), (1, 3))
        assert m.cost == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_doubled_triangle_realizes_sides(self):
        m = exact_max_sum(DOUBLED_TRIANGLE)
        assert m.cost == pytest.approx(3.0, abs=1e-12)
        for i, j in m.pairs:
            assert dist(DOUBLED_TRIANGLE[i], DOUBLED_TRIANGLE[j]) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_two_points(self):
        s = PointSet.of([(0, 0), (2, 3)])
        assert exact_max_sum(s).pairs == ((0, 1),)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            exact_max_sum(PointSet.of([(0, 0), (1, 0), (2, 0)]))

    def test_default_cap_refuses_26_before_any_work(self, monkeypatch):
        s = generate(InstanceSpec("uniform-square", 26, 0))

        def no_work(pts):
            raise AssertionError("distance table built past the size cap")

        monkeypatch.setattr(matching, "_distance_table", no_work)
        with pytest.raises(SizeCapError, match="cap of 24"):
            exact_max_sum(s)

    @pytest.mark.parametrize("generator", ["uniform-square", "gaussian", "clustered"])
    def test_bit_identical_to_full_mask_dp(self, generator):
        for n in range(2, 15, 2):
            for seed in range(2):
                _assert_same_as_full_mask_dp(generate(InstanceSpec(generator, n, seed)))

    @pytest.mark.parametrize(
        "coords",
        [
            [(k, 0) for k in range(12)],
            [(k // 2, (k // 2) % 3) for k in range(12)],
            [p for p in TRIANGLE for _ in range(2)],
            [p for p in SQUARE for _ in range(2)],
            [(3.5, -1.25)] * 10,
            *(_doubled_regular_polygon(k) for k in (4, 6, 8)),
            [(3.5, -1.25)] * 16,
            # lex-least pairs the two 3s: a zero edge tied exactly in cost
            [(x, 0) for x in (3, 3, 2, 4, 2, 4, 1, 5, 1, 5, 0, 6, 0, 6)],
            [(1e12 + x, 1e12 + y) for x, y in generate(InstanceSpec("uniform-square", 12, 0))],
        ],
        ids=[
            "collinear",
            "duplicated",
            "doubled-triangle",
            "doubled-square",
            "coincident",
            "doubled-polygon-8",
            "doubled-polygon-12",
            "doubled-polygon-16",
            "coincident-16",
            "duplicated-collinear",
            "offset-1e12",
        ],
    )
    def test_bit_identical_to_full_mask_dp_on_degenerate_sets(self, coords):
        # exact float ties decide the pairs here, and zero-edge counts where
        # points coincide
        _assert_same_as_full_mask_dp(PointSet.of(coords))

    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2 * k, max_size=2 * k
            )
        )
    )
    def test_bit_identical_to_full_mask_dp_on_grid_ties(self, coords):
        # a 4x4 integer grid forces duplicated points and exact cost ties
        _assert_same_as_full_mask_dp(PointSet.of(coords))

    @pytest.mark.parametrize(
        "s",
        [
            SQUARE,
            DOUBLED_TRIANGLE,
            PointSet.of([(x, 0) for x in (3, 3, 2, 4, 2, 4, 1, 5, 1, 5, 0, 6, 0, 6)]),
            generate(InstanceSpec("uniform-square", 12, 0)),
        ],
        ids=["square", "doubled-triangle", "duplicated-collinear", "uniform-12"],
    )
    def test_fallback_reruns_on_all_edges(self, monkeypatch, s):
        # potentials raised by 1e-6 of themselves put sum(y) above every
        # matching's cost by far more than the gap bound, so the DP on the
        # tight edges never stands and reruns on all edges
        potentials = matching._potentials
        monkeypatch.setattr(
            matching, "_potentials", lambda pts, d: [t * (1 + 1e-6) for t in potentials(pts, d)]
        )
        runs = _count_dp_runs(monkeypatch)
        got, want = exact_max_sum(s), _full_mask_dp(s)
        assert runs[0] == 2
        assert got.pairs == want.pairs
        assert got.cost == want.cost

    def test_infeasible_potentials_cannot_change_the_answer(self, monkeypatch):
        # Taken as given, these make the square's sides tight at sum(y) = 2
        # and leave the diagonal (0, 2) slack, so the DP on the tight edges
        # alone would return the sides.  Raised to feasibility, sum(y)
        # exceeds every cost, and the DP reruns on all edges.
        monkeypatch.setattr(matching, "_potentials", lambda pts, d: [0.75, 0.25, 0.75, 0.25])
        runs = _count_dp_runs(monkeypatch)
        assert exact_max_sum(SQUARE).pairs == ((0, 2), (1, 3))
        assert runs[0] == 2

    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.lists(
                st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2 * k, max_size=2 * k
            )
        ),
        st.sampled_from(["free", "grid", "line", "slope"]),
    )
    def test_same_answer_and_dp_runs_as_the_cold_potentials(self, coords, snap):
        # on a coarse grid or a line many duals are optimal, and the warm
        # and the cold solve may end on different ones
        if snap == "grid":
            coords = [(round(4 * x) / 4, round(4 * y) / 4) for x, y in coords]
        elif snap == "line":
            coords = [(x, 0.0) for x, _ in coords]
        elif snap == "slope":
            coords = [(x, x / 3) for x, _ in coords]
        s = PointSet.of(coords)
        with pytest.MonkeyPatch.context() as mp:
            runs = _count_dp_runs(mp)
            got = exact_max_sum(s)
            warm_runs = runs[0]
            mp.setattr(matching, "_potentials", lambda pts, d: _reference_potentials(d))
            want = exact_max_sum(s)
        assert got.pairs == want.pairs
        assert got.cost == want.cost
        assert runs[0] == 2 * warm_runs

    @pytest.mark.parametrize(
        "slack_a, slack_b, runs",
        [(1.2e-12, 0.8e-12, 2), (0.35e-12, 0.2e-12, 1)],
        ids=["optimal-edge-above-tight", "optimal-edge-below-gap"],
    )
    def test_tolerances_keep_the_restriction_exact(self, monkeypatch, slack_a, slack_b, runs):
        # Near a line, {02, 13} beats {03, 12} by about h^2 / 12.  The
        # crafted potentials, with sum(y) about 4, leave edge 13 no slack,
        # edge 02 slack_a and edges 03 and 12 about slack_b each, relative
        # to sum(y); so {02, 13} falls short of sum(y) by slack_a and
        # {03, 12} by 2 * slack_b, more.  In the first case edge 02 is not
        # tight, and {03, 12} must fail the gap check (_GAP_REL < 1.6e-12);
        # in the second {03, 12} passes it, and edge 02 must be tight
        # (_TIGHT_REL >= 0.35e-12).
        h = math.sqrt(48 * (2 * slack_b - slack_a))
        s = PointSet.of([(0, 0), (1, 0), (2, 0), (3, h)])
        d = matching._distance_table(s.points)
        a, b = 4 * slack_a, 4 * slack_b
        y = [1.5, d[1][3] - d[0][3] - b + 1.5, d[0][2] + a - 1.5, d[0][3] + b - 1.5]
        monkeypatch.setattr(matching, "_potentials", lambda pts, d: y)
        dp_runs = _count_dp_runs(monkeypatch)
        assert exact_max_sum(s).pairs == ((0, 2), (1, 3))
        assert dp_runs[0] == runs

    @pytest.mark.parametrize(
        "move",
        [lambda x: x, lambda x: math.ldexp(x, -40), lambda x: x + 1e12],
        ids=["plain", "scaled-2^-40", "offset-1e12"],
    )
    def test_potentials_bound_every_pair_and_close_the_gap(self, move):
        # y is dual feasible and sum(y) is the cold solve's, both relative
        # to sum(y).  On the benchmark's reference sets, the generators and
        # near-duplicate pairs, sum(y) bounds the optimum with a gap below
        # the tight-edge tolerance; on the families full of exact ties, the
        # warm start leaves as many edges tight as the cold one.
        workloads = load_perfbench("workloads")
        reference = workloads.load_reference()
        assert len(reference) == 349
        sets = []
        for key in reference:
            generator, n, iseed = key.split("/")
            sets.append((key, workloads.make_instance(generator, int(n), iseed).points, "gap"))
        for generator in ("gaussian", "clustered"):
            for n in range(4, 25, 4):
                points = generate(InstanceSpec(generator, n, n)).points
                sets.append((f"{generator}/{n}", points, "gap"))
        for n in (12, 18, 24):
            rng = random.Random(n)
            base = [(rng.random(), rng.random()) for _ in range(n // 2)]
            near = [q for p in base for q in (p, (p[0] + 1e-9, p[1]))]
            sets += [
                (f"near-duplicate/{n}", near, "gap"),
                (f"strip/{n}", [(rng.random(), 1e-7 * rng.random()) for _ in range(n)], "ties"),
                (f"integer-collinear/{n}", [(rng.randrange(2 * n), 0) for _ in range(n)], "ties"),
                (f"doubled-polygon/{n}", _doubled_regular_polygon(n // 2), "ties"),
            ]
        for w, h in ((3, 4), (4, 4), (4, 6)):
            lattice = [(x, y) for x in range(w) for y in range(h)]
            random.Random(w * h).shuffle(lattice)
            sets.append((f"grid/{w}x{h}", lattice, "ties"))
        sets.append(("coincident/24", [(3.5, -1.25)] * 24, "ties"))
        for key, coords, check in sets:
            s = PointSet.of([(move(x), move(y)) for x, y in coords])
            d = matching._distance_table(s.points)
            y = matching._potentials(s.points, d)
            cold = _reference_potentials(d)
            total = sum(y)
            assert abs(total - sum(cold)) <= 1e-13 * total, key
            for i in range(len(s)):
                for j in range(i + 1, len(s)):
                    assert y[i] + y[j] >= d[i][j] - 1e-14 * total, (key, i, j)
            if check == "gap":
                best = exact_max_sum(s).cost
                assert total >= best - 1e-14 * total, key
                assert total - best <= 1e-12 * total, key
            else:
                assert _tight_count(d, y) == _tight_count(d, cold), key

    @pytest.mark.parametrize(
        "family, n",
        [
            (family, n)
            for family in ("circle", "strip", "integer-collinear", "grid", "offset-1e12")
            for n in (18, 20, 24)
        ]
        + [("coincident", 24)],
    )
    def test_bit_identical_to_reachable_state_dp(self, monkeypatch, family, n):
        # up to the cap, on sets full of exact ties; the tight edges alone
        # carry the optimum, so the DP runs once
        s = _oracle_family(family, n)
        runs = _count_dp_runs(monkeypatch)
        got = exact_max_sum(s)
        want = _reachable_state_dp(s)
        assert runs[0] == 1
        assert got.pairs == want.pairs
        assert got.cost == want.cost

    def test_reproduces_the_benchmark_reference(self):
        # every pair list the benchmark checks exact answers against: 300
        # sets at n = 12, 48 at n = 16-20 and the doubled triangle
        workloads = load_perfbench("workloads")
        reference = workloads.load_reference()
        assert len(reference) == 349
        for key, entry in reference.items():
            generator, n, iseed = key.split("/")
            inst = workloads.make_instance(generator, int(n), iseed)
            assert inst.digest == entry["digest"], key
            m = exact_max_sum(PointSet.of(inst.points))
            assert [list(p) for p in m.pairs] == entry["pairs"], key

    def test_agrees_with_brute_force(self):
        for seed in range(50):
            n = (4, 6, 8, 10)[seed % 4]
            s = generate(InstanceSpec("uniform-square", n, seed))
            assert exact_max_sum(s).cost == brute_force_max_sum(s).cost

    def test_deterministic_tie_break_matches_brute_force(self):
        # symmetric instances tie; both solvers pick the lex-least pairing
        for s in (SQUARE, DOUBLED_TRIANGLE):
            assert exact_max_sum(s).pairs == brute_force_max_sum(s).pairs

    def test_zero_edge_avoided_among_tied_optima(self):
        # duplicated point on another edge: pairing the duplicates ties the
        # split pairing in cost, and the split one must win
        s = PointSet.of([(0.5, 0), (0.5, 0), (0, 0), (1, 0)])
        for solver in (exact_max_sum, brute_force_max_sum):
            m = solver(s)
            assert m.cost == pytest.approx(1.0, abs=1e-15)
            assert min(dist(s[i], s[j]) for i, j in m.pairs) > 0.0

    def test_degenerate_ties_agree_to_an_ulp(self):
        # collinear inputs create exact mathematical ties; float summation
        # order may pick different tied optima, but the costs stay within
        # an ulp of each other
        rng = random.Random(38)
        for _ in range(40):
            xs = sorted(rng.uniform(0, 10) for _ in range(8))
            s = PointSet.of([(x, 0.0) for x in xs])
            a, b = exact_max_sum(s), brute_force_max_sum(s)
            assert abs(a.cost - b.cost) <= 4e-16 * a.cost

    def test_no_zero_edges_at_optimum(self):
        # optimal matchings avoid zero-length edges whenever better pairings
        # exist, including on multisets with coincident points
        for seed in range(20):
            s = generate(InstanceSpec("clustered", 8, seed))
            m = exact_max_sum(s)
            assert min(dist(s[i], s[j]) for i, j in m.pairs) > 0.0
        m = exact_max_sum(DOUBLED_TRIANGLE)
        assert min(dist(DOUBLED_TRIANGLE[i], DOUBLED_TRIANGLE[j]) for i, j in m.pairs) > 0.0


class TestBruteForce:
    def test_square(self):
        assert brute_force_max_sum(SQUARE).cost == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_two_points(self):
        s = PointSet.of([(0, 0), (1, 1)])
        assert brute_force_max_sum(s).pairs == ((0, 1),)

    def test_cap_enforced(self):
        s = generate(InstanceSpec("uniform-square", 14, 0))
        with pytest.raises(SizeCapError):
            brute_force_max_sum(s)


class TestDistanceTable:
    @pytest.mark.parametrize(
        "coords",
        [
            [(0.0, 0.0), (3.0, 4.0)],
            [(-1.5, 2.25), (0.1, -0.3), (-1.5, 2.25), (7.0, -1e-3)],
            list(generate(InstanceSpec("uniform-square", 200, 0))),
            [(x - 0.5, -y) for x, y in generate(InstanceSpec("gaussian", 200, 1))],
            [p for p in generate(InstanceSpec("clustered", 100, 2)) for _ in range(2)],
            [(1e12 + x, 1e12 - y) for x, y in generate(InstanceSpec("uniform-square", 200, 3))],
            [
                (math.ldexp(x, -40), math.ldexp(y, -40))
                for x, y in generate(InstanceSpec("gaussian", 200, 4))
            ],
        ],
        ids=["n=2", "n=4-duplicates", "uniform-200", "negative-200", "duplicated-200",
             "offset-1e12", "scaled-2^-40"],
    )
    def test_symmetric_and_equal_to_dist(self, coords):
        # every ordered pair, bit for bit: one computation serves both halves
        pts = PointSet.of(coords).points
        d = matching._distance_table(pts)
        assert len(d) == len(pts)
        for i, p in enumerate(pts):
            assert len(d[i]) == len(pts)
            for j, q in enumerate(pts):
                assert d[i][j].hex() == dist(p, q).hex(), (i, j)
                assert d[i][j].hex() == d[j][i].hex(), (i, j)


class TestLocalSearch:
    def test_square_sides_improve_to_diagonals(self):
        out = local_search(SQUARE, square_sides())
        assert out.pairs == ((0, 2), (1, 3))

    def test_optimum_is_fixed_point(self):
        m = exact_max_sum(SQUARE)
        assert local_search(SQUARE, m).pairs == m.pairs

    def test_never_decreases_cost(self):
        rng = random.Random(9)
        for seed in range(10):
            s = generate(InstanceSpec("uniform-square", 20, seed))
            init = random_perfect_matching(s, rng)
            out = local_search(s, init)
            assert out.cost >= init.cost

    @pytest.mark.parametrize(
        "move",
        [lambda x: x, lambda x: math.ldexp(x, -40), lambda x: x + 1e12],
        ids=["plain", "scaled-2^-40", "offset-1e12"],
    )
    def test_same_swaps_as_reference(self, move):
        # the distance table and the skipped re-tests must change no swap:
        # pairs and cost agree bit for bit, no exchange of two edges is left
        # that gains more than the threshold, and the result is a fixed point
        for label, s, start in _local_search_starts():
            s = PointSet.of([(move(x), move(y)) for x, y in s])
            init = Matching.from_pairs(s, start)
            out = local_search(s, init)
            ref = _reference_local_search(s, init)
            assert out.pairs == ref.pairs, label
            assert out.cost == ref.cost, label
            assert _improving_swap(s, out) is None, label
            assert local_search(s, out).pairs == out.pairs, label

    @pytest.mark.parametrize("factor, swaps", [(0.9, False), (1.1, True)])
    def test_improvement_threshold_boundary(self, factor, swaps):
        # Pairs (a, c) and (b, d) with a = (0, 0), b = (2, 0) and c, d =
        # (1, -+t) cost 2 hypot(1, t), which is 2.0 for t this small.  The
        # exchange to (a, b), (c, d) gains 2 t against the threshold
        # 1e-12 * 2: made just past t = 1e-12, not just short of it.  The
        # threshold is written out, so that moving it fails this test.
        t = factor * 1e-12
        s = PointSet.of([(0.0, 0.0), (1.0, -t), (2.0, 0.0), (1.0, t)])
        out = local_search(s, Matching.from_pairs(s, [(0, 1), (2, 3)]))
        assert out.pairs == (((0, 2), (1, 3)) if swaps else ((0, 1), (2, 3)))

    def test_threshold_follows_the_total(self):
        # The side-to-diagonal swap of the big square raises the threshold
        # from 2.004e-9 to 2.832e-9 within the first pass.  The nested
        # pairing of the four near-collinear points at its centre then
        # gains 2.4e-9: above the old threshold, below the new one, so the
        # crossing pair stays.
        y = math.sqrt(4 * 2.4e-9)
        s = PointSet.of(
            [(0, 0), (1000, 0), (1000, 1000), (0, 1000), (499, 500), (500, 500), (501, 500 + y), (502, 500)]
        )
        init = Matching.from_pairs(s, [(0, 1), (2, 3), (4, 6), (5, 7)])
        out = local_search(s, init)
        assert out.pairs == ((0, 2), (1, 3), (4, 6), (5, 7))
        assert out.pairs == _reference_local_search(s, init).pairs

    def test_removes_zero_edges_when_improvable(self):
        s = PointSet.of([(0, 0), (0, 0), (1, 0), (2, 0)])
        init = Matching.from_pairs(s, [(0, 1), (2, 3)])
        out = local_search(s, init)
        assert min(dist(s[i], s[j]) for i, j in out.pairs) > 0.0
