"""Bicolored improvement graphs and the alternating-cycle descent loop.

When a matching's minimax ratio exceeds 2/sqrt(3), the graph on the support
edges' endpoints (blue = tight matching edges, red = pairs beating the ratio
strictly) contains a cycle alternating blue and red; swapping along it
strictly increases matching cost.  Iterating this is a finite descent: cost
grows at every step and there are finitely many matchings, so the loop stops
at a matching whose ratio is within tolerance of the bound.
"""

from __future__ import annotations

import math

from .geom import (
    DEFAULT_THEOREM_TOL,
    EPS_GEO,
    DegenerateEdgeError,
    Frame,
    Point,
    Record,
    dist,
    edge_lengths,
    within_bound,
)
from .matching import (
    Matching,
    PointSet,
    improvement_threshold,
    local_search,
    validate_pairs,
)
from .minimax import ACT_REL
from .witness import WitnessResult, minimize_h

# Relative strict margin required of red edges: ratio must beat lambda by
# more than EPS_RED_REL * lambda * scale.
EPS_RED_REL = 1e-9


class VertexAtOriginError(ValueError):
    """A graph vertex coincides with the witness (the ratio should be 1)."""


class GraphColorError(ValueError):
    """A blue edge fails the tightness requirement at the given tolerance."""


class CycleMatchError(ValueError):
    """The cycle's blue edges are not all present in the matching."""


class ImprovementError(RuntimeError):
    """Applying a cycle failed to increase cost: numerical inconsistency."""


class BicoloredGraph(Record):
    """Graph on the endpoints of selected edges.

    Blue edges are the (tight) matching pairs; red edges are strict-inequality
    pairs.  Edges hold graph-vertex indices; ``point_ids`` maps them back to
    the instance.
    """

    point_ids: tuple[int, ...]
    blue_edges: tuple[tuple[int, int], ...]
    red_edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        validate_pairs(self.point_ids, self.blue_edges)
        blue = {tuple(sorted(e)) for e in self.blue_edges}
        for e in self.red_edges:
            if tuple(sorted(e)) in blue:
                raise ValueError(f"edge {e} is both blue and red")


class AlternatingCycle(Record):
    """Point-id sequence x1 y1 x2 y2 ... closing back to x1; consecutive
    pairs alternate blue (matching) and red."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n < 4 or n % 2:
            raise ValueError(f"alternating cycle needs even length >= 4, got {n}")
        if len(set(self.vertices)) != n:
            raise ValueError("cycle vertices must be distinct")

    def blue_pairs(self) -> list[tuple[int, int]]:
        v = self.vertices
        return [(v[k], v[k + 1]) for k in range(0, len(v), 2)]

    def red_pairs(self) -> list[tuple[int, int]]:
        v = self.vertices
        return [(v[k + 1], v[(k + 2) % len(v)]) for k in range(0, len(v), 2)]


def build_graph(
    s: PointSet,
    edges: list[tuple[int, int]],
    o: Point,
    lam: float,
) -> BicoloredGraph:
    """Classify vertex pairs of the selected edges into blue (tight at lam)
    and red (strictly beating lam by the red margin); equality-up-to-margin
    pairs get no color.

    Every tolerance is relative to the vertices' own scale: a zero-length
    selected edge raises :class:`DegenerateEdgeError`, a vertex at the
    witness :class:`VertexAtOriginError`, a selected edge that is not tight
    :class:`GraphColorError`.
    """
    ids: list[int] = []
    for i, j in edges:
        for k in (i, j):
            if k in ids:
                raise ValueError(f"point index {k} appears in two edges")
            ids.append(k)
    verts = [(s[k][0] - o[0], s[k][1] - o[1]) for k in ids]
    n = len(verts)
    scale = max(
        (dist(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )
    local = {pid: k for k, pid in enumerate(ids)}
    lengths = edge_lengths(dict(zip(ids, verts)), edges, scale)
    for k, v in enumerate(verts):
        if math.hypot(*v) <= EPS_GEO * scale:
            raise VertexAtOriginError(
                f"point {ids[k]} coincides with the witness; ratio should be 1"
            )

    blue_tol = ACT_REL * lam * scale
    blue = []
    for (i, j), d in zip(edges, lengths):
        u, v = verts[local[i]], verts[local[j]]
        if abs(math.hypot(*u) + math.hypot(*v) - lam * d) > blue_tol:
            raise GraphColorError(
                f"edge ({i}, {j}) is not tight at lambda={lam} within {blue_tol}"
            )
        blue.append(tuple(sorted((local[i], local[j]))))

    blue_set = set(blue)
    red_margin = EPS_RED_REL * lam * scale
    red = []
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in blue_set:
                continue
            d = dist(verts[a], verts[b])
            if lam * d - (math.hypot(*verts[a]) + math.hypot(*verts[b])) > red_margin:
                red.append((a, b))

    return BicoloredGraph(
        point_ids=tuple(ids),
        blue_edges=tuple(blue),
        red_edges=tuple(red),
    )


def find_alternating_cycle(g: BicoloredGraph) -> AlternatingCycle | None:
    """Exhaustive depth-first search for a simple cycle alternating blue and
    red edges, or None when no such cycle exists."""
    n = len(g.point_ids)
    partner: dict[int, int] = {}
    for a, b in g.blue_edges:
        partner[a] = b
        partner[b] = a
    radj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in g.red_edges:
        radj[a].append(b)
        radj[b].append(a)
    for v in radj:
        radj[v].sort()

    def dfs(path: list[int], used: set[int]) -> list[int] | None:
        cur = path[-1]
        for w in radj[cur]:
            if w == path[0] and len(path) >= 4:
                return list(path)
            if w in used:
                continue
            p = partner[w]  # unused too: partners enter and leave used together
            path.extend((w, p))
            used.update((w, p))
            found = dfs(path, used)
            if found is not None:
                return found
            used.difference_update((w, p))
            del path[-2:]
        return None

    for a, b in g.blue_edges:
        for x1, y1 in ((a, b), (b, a)):
            found = dfs([x1, y1], {x1, y1})
            if found is not None:
                return AlternatingCycle(tuple(g.point_ids[v] for v in found))
    return None


def apply_cycle(m: Matching, cycle: AlternatingCycle, s: PointSet) -> Matching:
    """Swap the cycle's blue (matching) edges for its red ones.

    The result is a perfect matching whose cost must strictly exceed the
    original; anything else raises :class:`ImprovementError` as a numerical
    inconsistency signal.
    """
    current = set(m.pairs)
    blues = {tuple(sorted(p)) for p in cycle.blue_pairs()}
    missing = blues - current
    if missing:
        raise CycleMatchError(f"cycle blue edges not in matching: {sorted(missing)}")
    reds = {tuple(sorted(p)) for p in cycle.red_pairs()}
    result = Matching.from_pairs(s, (current - blues) | reds)
    if result.cost <= m.cost + improvement_threshold(m.cost):
        raise ImprovementError(
            f"cycle swap did not increase cost: {m.cost} -> {result.cost}"
        )
    return result


class DescentStep(Record):
    lambda_star: float
    cost: float  # matching cost after the swap
    cycle_length: int


class DescentResult(Record):
    matching: Matching
    witness: WitnessResult
    trace: tuple[DescentStep, ...]
    status: str  # ok | cycle_not_found | solver_failure
    #             | improvement_violation | step_limit; cycle_not_found also
    #             covers a witness above the bound with no support

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _find_improving_cycle(
    s: PointSet, m: Matching, w: WitnessResult
) -> AlternatingCycle | None:
    """An alternating cycle in the graph on the witness's 2- or 3-edge
    support, or None when the witness has no support, the graph cannot be
    built, or it holds no cycle."""
    if w.support is None:
        return None
    try:
        g = build_graph(s, [m.pairs[e] for e in w.support], w.o_star, w.lambda_star)
    except ValueError:  # the graph's own rejections subclass ValueError
        return None
    return find_alternating_cycle(g)


def descend(
    s: PointSet,
    init: Matching,
    *,
    max_steps: int = 500,
    tol: float = DEFAULT_THEOREM_TOL,
) -> DescentResult:
    """Improve a matching by alternating-cycle swaps until its minimax ratio
    is within tolerance of 2/sqrt(3).

    Witnesses, supports and graphs are computed in the unit frame of s, so
    the outcome does not change under similarity; costs, the trace and the
    returned witness point are in input coordinates.  Every accepted swap
    strictly increases cost, so the loop terminates.  Each cycle is sought
    only in the graph on the witness's reported 2- or 3-edge support; a
    witness above the bound without a support stops the loop as
    ``cycle_not_found``.  Every failure of the descent comes back as a
    flagged status, never an exception.  Input errors raise ValueError: a
    ``max_steps`` below 1, and a zero-length edge that local search from the
    start matching leaves in place (:class:`DegenerateEdgeError`, as the
    witness raises on it).
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    validate_pairs(s, init.pairs)
    frame = Frame.of(s.points)
    fs = PointSet(tuple(frame.to(p) for p in s))
    m = init
    try:
        edge_lengths(fs.points, m.pairs)
    except DegenerateEdgeError:
        m = local_search(s, m)
        edge_lengths(fs.points, m.pairs)

    trace: list[DescentStep] = []

    def result(status: str, w: WitnessResult) -> DescentResult:
        w = w.replace(o_star=frame.back(w.o_star))
        return DescentResult(m, w, tuple(trace), status)

    for _ in range(max_steps):
        witness = minimize_h(fs, m)
        if not witness.converged:
            return result("solver_failure", witness)
        if within_bound(witness.lambda_star, tol):
            return result("ok", witness)
        cycle = _find_improving_cycle(fs, m, witness)
        if cycle is None:
            return result("cycle_not_found", witness)
        try:
            m = apply_cycle(m, cycle, s)
        except ImprovementError:
            return result("improvement_violation", witness)
        trace.append(DescentStep(witness.lambda_star, m.cost, len(cycle.vertices)))
    return result("step_limit", witness)
