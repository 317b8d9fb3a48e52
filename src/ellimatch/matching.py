"""Perfect matchings of planar point sets: representation, cost, exact
max-sum solvers, and 2-opt local search."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence, Sized

from .geom import Frame, Point, Record, dist, left_sum

# Size caps (number of points) for the exact solvers.
EXACT_CAP = 24
BRUTE_CAP = 12

# exact_max_sum's tolerances, relative to the potentials' total: an edge is
# tight when its slack is at most _TIGHT_REL of it, and the DP on tight
# edges stands when it comes within _GAP_REL of it.  _GAP_REL < _TIGHT_REL
# is what makes the restriction exact.  So raising _TIGHT_REL (to 1e-9, say)
# changes no result, only the work: an equivalent mutant, which no test can
# kill.
_TIGHT_REL = 1e-12
_GAP_REL = 0.5e-12


class SizeCapError(ValueError):
    """Instance exceeds the solver's configured size cap."""


class PointSet(Record):
    """Indexed list of planar points.  Duplicates are allowed (the input is
    a multiset in effect); matching operations additionally require an even
    count.

    Coordinates must be finite, and so must ``4 * n * span``, span being the
    longer side of the bounding box: every distance sum the package forms
    over n points stays below that, so no result overflows to infinity."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("point set is empty")
        cleaned = []
        for i, p in enumerate(self.points):
            x, y = float(p[0]), float(p[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite coordinate at index {i}: {p}")
            cleaned.append((x, y))
        span = Frame.of(cleaned).scale
        if not math.isfinite(4.0 * len(cleaned) * span):
            raise ValueError(
                f"coordinates span {span!r}, too wide for {len(cleaned)} points: "
                "4 * n * span must be finite, or distance sums overflow"
            )
        object.__setattr__(self, "points", tuple(cleaned))

    @classmethod
    def of(cls, coords: Iterable[Sequence[float]]) -> "PointSet":
        return cls(tuple((c[0], c[1]) for c in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)


def canonical_pairs(pairs: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Sorted-pair, sorted-list canonical form used for deterministic output
    and tie-breaking.  Every index must be an ``int`` (not a bool); anything
    else raises ValueError rather than being truncated or coerced."""
    out = []
    for p in pairs:
        i, j = p[0], p[1]
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"point indices must be integers, got {p!r}")
        out.append((i, j) if i <= j else (j, i))
    return tuple(sorted(out))


def validate_pairs(s: Sized, pairs: Sequence[tuple[int, int]]) -> None:
    """Check that pairs form a perfect matching of the indices of s."""
    n = len(s)
    seen = [False] * n
    for i, j in pairs:
        for k in (i, j):
            if not 0 <= k < n:
                raise IndexError(f"point index {k} out of range for {n} points")
            if seen[k]:
                raise ValueError(f"point index {k} matched twice")
            seen[k] = True
    if not all(seen):
        missing = [k for k, ok in enumerate(seen) if not ok]
        raise ValueError(f"unmatched point indices: {missing}")


class Matching(Record):
    """Perfect pairing of point indices with its cached total edge length."""

    pairs: tuple[tuple[int, int], ...]
    cost: float

    @classmethod
    def from_pairs(cls, s: PointSet, pairs: Iterable[Sequence[int]]) -> "Matching":
        canon = canonical_pairs(pairs)
        validate_pairs(s, canon)
        total = left_sum(dist(s[i], s[j]) for i, j in canon)
        return cls(canon, total)


def improvement_threshold(current_cost: float) -> float:
    """Minimum accepted cost increase, relative to the cost so that it holds
    at every scale; guards against float swap cycling.  It must not fall as
    the cost rises: :func:`local_search` skips pairs it rejected on that
    ground."""
    return 1e-12 * current_cost


def _require_even(s: PointSet) -> None:
    if len(s) % 2:
        raise ValueError(f"perfect matching needs an even point count, got {len(s)}")


def _distance_table(pts: Sequence[Point]) -> list[list[float]]:
    """Row lists d[i][j] = |p_i p_j|, each unordered pair computed once.
    ``geom.dist`` is ``math.dist``, which is symmetric bit for bit, so every
    entry equals ``dist(p_i, p_j)``.  Row i is computed from the diagonal
    on; its first i cells are column i of the rows above, the same float
    objects, so the table holds n(n + 1)/2 floats: 0.81 MB at n = 200 and
    20 MB at n = 1000, measured with tracemalloc."""
    n = len(pts)
    rows = [
        [0.0] * i + list(map(math.dist, itertools.repeat(p, n - i), pts[i:]))
        for i, p in enumerate(pts)
    ]
    # col[:i] holds d[0..i-1][i], cells right of the diagonal, which no
    # assignment here touches
    for i, col in enumerate(zip(*rows)):
        rows[i][:i] = col[:i]
    return rows


def _potentials(d: Sequence[Sequence[float]]) -> list[float]:
    """Vertex potentials y with y_i + y_j >= d[i][j] for every i != j, and
    sum(y) half the optimum of the assignment relaxation, so at least the
    cost of every perfect matching.  Both hold up to rounding: pairs fell
    short by at most 1.3e-16 of sum(y) on the benchmark's 349 reference
    sets, as given, scaled by 2^-40 and offset by 1e12.

    Kuhn-Munkres in potentials form (shortest augmenting paths, O(n^3)) on
    the costs -d[i][j], with the diagonal excluded, gives duals u, v with
    u_i + v_j <= -d[i][j]; y_i = -(u_i + v_i) / 2 then bounds both orders
    of each pair.
    """
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


def _max_sum_pairs(
    partners: Sequence[Sequence[tuple[int, float]]],
) -> tuple[float, list[tuple[int, int]]]:
    """The best total over the perfect matchings made of ``partners`` edges,
    and its pairs under :func:`exact_max_sum`'s tie rule; (-inf, []) when
    they hold none.  ``partners[i]`` lists (1 << j, d_ij) for the allowed
    j > i in increasing j, since the lowest unmatched index is always the
    one paired."""
    full = (1 << len(partners)) - 1
    # value[mask] = best total over the points NOT in mask; zeros[mask] =
    # the fewest zero-length edges among those optima, absent when 0.
    # Comparing (value, -zeros) pairs is the tie rule, and its first
    # component alone is the plain float DP.
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
                # the zero count matters only where v can replace the best
                if v >= best:
                    z = zeros.get(child, 0) + (dij == 0.0)
                    if v > best or z < best_zeros:
                        best = v
                        best_zeros = z
        value[mask] = best
        if best_zeros:
            zeros[mask] = best_zeros
        return best

    total = solve(0)
    # solve's closure holds solve itself; break that cycle so the tables are
    # freed on return, not at some later cyclic garbage collection
    del solve
    if total == -math.inf:
        return total, []

    pairs = []
    mask = 0
    while mask != full:
        rem = ~mask & full
        bi = rem & -rem
        i = bi.bit_length() - 1
        target = (value[mask], zeros.get(mask, 0))
        for bj, dij in partners[i]:
            if rem & bj:
                # Exact equality: the state's value and zero count were
                # computed from these same expressions.  The smallest such
                # j is the lex-least.
                child = mask | bi | bj
                if (dij + value[child], zeros.get(child, 0) + (dij == 0.0)) == target:
                    pairs.append((i, bj.bit_length() - 1))
                    mask = child
                    break
        else:  # pragma: no cover - unreachable by construction
            raise AssertionError("DP reconstruction failed")
    return total, pairs


def exact_max_sum(s: PointSet) -> Matching:
    """Globally optimal max-sum matching: a dynamic program over vertex
    subsets, run on the edges that assignment potentials make tight.

    Potentials: :func:`_potentials` solves the assignment relaxation
    (Kuhn-Munkres, O(n^3)) and returns y with y_i + y_j >= |p_i p_j| on
    every pair, up to rounding; every y_i is then raised by half the
    largest shortfall, so that this holds whatever y came back, and a
    wrong y can cost time but not the answer.  A perfect matching's edge
    slacks y_i + y_j - |p_i p_j| sum to sum(y) - cost, so sum(y) bounds
    every cost.  An edge is tight when its slack is at most
    ``_TIGHT_REL`` * sum(y) (1e-12).

    DP: state is the set of already-matched indices; the lowest unmatched
    index is always paired next, against every other unmatched one that an
    allowed edge reaches.  So after k pairs a state holds indices 0..k-1
    and k higher ones: at most F(n+1) states (Fibonacci), 75,025 at
    n = 24, visited by memoized recursion of depth n/2.  Each state holds
    one float, the best total over its unmatched points.  Exact cost ties
    are broken toward the fewest zero-length edges (duplicated points can
    tie a degenerate pairing with a proper one, and downstream witness math
    needs proper edges), then toward the lexicographically smallest
    canonical pair list.  The zero-edge count of a state's optimum is
    stored only where it is nonzero, and read only where a partner reaches
    the running best: about ln r + 0.6 times in r partners whose totals
    come in random order.

    The DP runs first on the tight edges alone.  If their optimum is below
    sum(y) by more than ``_GAP_REL`` * sum(y) (0.5e-12), or they hold no
    perfect matching (a relaxation that is not tight: an odd cycle, or a
    degenerate dual), it runs again on all edges.  The restriction changes
    no result: once the gap check passes, the unrestricted optimum passes
    it too, so every matching within rounding of that optimum has slacks
    summing to at most ``_GAP_REL`` * sum(y) plus rounding, and each of its
    edges, having slack >= 0 up to rounding, is tight since ``_GAP_REL`` <
    ``_TIGHT_REL``.  The unrestricted DP's choice at each state on its
    reconstruction path ties only completions of such matchings; every
    other candidate there is lower by more than rounding, and the
    restricted DP never rates a candidate higher.  So both make the same
    choices from the same floats and zero counts: the same pairs and cost
    bits.
    """
    _require_even(s)
    n = len(s)
    if n > EXACT_CAP:
        raise SizeCapError(f"{n} points exceeds the exact-solver cap of {EXACT_CAP}")
    d = _distance_table(s.points)
    y = _potentials(d)
    short = max(d[i][j] - y[i] - y[j] for i in range(n) for j in range(i + 1, n))
    if short > 0.0:
        y = [t + short / 2 for t in y]
    bound = left_sum(y)
    slack_tol = _TIGHT_REL * bound
    tight = [
        [(1 << j, d[i][j]) for j in range(i + 1, n) if y[i] + y[j] - d[i][j] <= slack_tol]
        for i in range(n)
    ]
    best, pairs = _max_sum_pairs(tight)
    if best < bound - _GAP_REL * bound:
        _, pairs = _max_sum_pairs([[(1 << j, d[i][j]) for j in range(i + 1, n)] for i in range(n)])
    return Matching.from_pairs(s, pairs)


def brute_force_max_sum(s: PointSet) -> Matching:
    """Max-sum matching by exhaustive (2n-1)!! enumeration.

    Independent oracle for :func:`exact_max_sum`: same tie rule (fewest zero
    edges, then lex-least) and the same right-nested summation order when
    scoring a pairing.  The two agree in cost to within an ulp, but not
    always in pairs: :func:`exact_max_sum` takes each subproblem's maximum
    after rounding, so where pairings tie in exact arithmetic (collinear
    points, say), rounding can favour a different one in each solver.
    Enumeration pairs the lowest free index first and scans partners in
    increasing order, making the first optimum found the lex-least one.
    """
    _require_even(s)
    n = len(s)
    if n > BRUTE_CAP:
        raise SizeCapError(f"{n} points exceeds the brute-force cap of {BRUTE_CAP}")
    pts = s.points
    d = [[dist(pts[i], pts[j]) for j in range(n)] for i in range(n)]
    best = (float("-inf"), 0)
    best_pairs: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def recurse(remaining: list[int]) -> None:
        nonlocal best, best_pairs
        if not remaining:
            total = 0.0
            zeros = 0
            for i, j in reversed(chosen):
                total = d[i][j] + total
                zeros += d[i][j] == 0.0
            if (total, -zeros) > best:
                best = (total, -zeros)
                best_pairs = list(chosen)
            return
        i = remaining[0]
        for k in range(1, len(remaining)):
            chosen.append((i, remaining[k]))
            recurse(remaining[1:k] + remaining[k + 1 :])
            chosen.pop()

    recurse(list(range(n)))
    return Matching.from_pairs(s, best_pairs)


def local_search(s: PointSet, init: Matching) -> Matching:
    """2-opt local search: replace edges {ab, cd} by {ac, bd} or {ad, bc}
    while total length grows by more than the improvement threshold.

    Never decreases cost and terminates: every accepted swap increases cost
    by a strictly positive amount bounded away from zero.

    Each pass scans slot e against every later slot f, until a pass makes
    no swap.  Distances come from :func:`_distance_table`, built once per
    call with each unordered pair computed once: O(n^2) memory, 0.81 MB at
    n = 200 and 20 MB at n = 1000, measured with tracemalloc.  Slot e's two
    rows and its length are read once, and again only after a swap; so is
    the threshold, which moves only with the total.

    A pass re-tests only the slot pairs that may have changed.  Row e is
    clean when slot e has not changed since row e last began: that run
    made no swap and rejected every pair, so the row skips each slot f
    that has not changed since then either.  A swap makes the rest of the
    row dirty, and the first pass is full.  The skips are exact only
    because the threshold never falls: every accepted swap raises the
    total, and :func:`improvement_threshold` is monotone in it, so a pair
    rejected once stays rejected while its two slots stand.  A change to
    the threshold must keep it monotone.
    """
    validate_pairs(s, init.pairs)
    d = _distance_table(s.points)
    pairs = [list(p) for p in init.pairs]
    lengths = [d[i][j] for i, j in pairs]
    total = left_sum(lengths)
    eps = improvement_threshold(total)
    m = len(pairs)
    # clock counts swaps; changed[k] is the clock at slot k's last swap and
    # row_start[e] the clock when row e last began
    clock = 0
    changed = [0] * m
    row_start = [-1] * m
    improved = True
    while improved:
        improved = False
        for e in range(m):
            since = row_start[e]
            row_start[e] = clock
            clean = changed[e] <= since
            a, b = pairs[e]
            da, db = d[a], d[b]
            dab = lengths[e]
            for f in range(e + 1, m):
                if clean and changed[f] <= since:
                    continue
                c, dd = pairs[f]
                base = dab + lengths[f]
                alt1 = da[c] + db[dd]
                alt2 = da[dd] + db[c]
                if alt1 >= alt2 and alt1 > base + eps:
                    pairs[e] = [a, c]
                    pairs[f] = [b, dd]
                    lengths[f] = db[dd]
                    b = c
                    total += alt1 - base
                elif alt2 > base + eps:
                    pairs[e] = [a, dd]
                    pairs[f] = [b, c]
                    lengths[f] = db[c]
                    b = dd
                    total += alt2 - base
                else:
                    continue
                db = d[b]
                dab = lengths[e] = da[b]
                eps = improvement_threshold(total)
                clock += 1
                changed[e] = changed[f] = clock
                clean = False
                improved = True
    return Matching.from_pairs(s, pairs)
