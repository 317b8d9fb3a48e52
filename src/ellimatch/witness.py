"""Witness-point extraction for matchings.

Minimizes the maximum per-edge distance-sum ratio over the plane and
computes the Steiner-star (geometric median) objective.
:func:`optimality_certificate` is the one query at a given point: it
evaluates every edge there, brackets the minimum of the max ratio through
the convex hull of the active edges' gradients, by the same rule a witness
solve ends on, and reads the 2- or 3-edge support off the certificate's
positive weights.

All solvers map the instance into its unit-square :class:`~ellimatch.geom.Frame`
first; the ratios are similarity-invariant, so nothing is lost and the
unit-scale tolerances of :mod:`ellimatch.geom` apply.  Outputs are mapped back
to input coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .geom import Frame, Point, dist, edge_lengths, left_sum, norm
from .matching import Matching, PointSet, validate_pairs
from .minimax import MinimaxResult, Piece, _certificate, minimize_max

# Above this, a witness is considered strictly off every segment and has a
# support; below, the witness sits on a segment (ratio 1 regime).
LAMBDA_SEGMENT = 1.0 + 1e-9

IndexPair = tuple[int, int]


@dataclass(frozen=True)
class WitnessResult:
    """Minimax witness for an edge set.

    ``certificate`` pairs each active edge with its convex coefficient in the
    gradient combination whose norm is ``residual``; ``converged`` is the
    value bracket's verdict (:mod:`ellimatch.minimax`).  ``support`` is the
    certificate's edges of positive weight (2 or 3, by Caratheodory in the
    plane); it is None when the ratio is 1 within tolerance (witness on a
    segment) or when the bracket does not certify the witness;
    :func:`optimality_certificate` applies the same rule at a given point.
    """

    o_star: Point
    lambda_star: float
    active: tuple[int, ...]
    support: tuple[int, ...] | None
    certificate: tuple[tuple[int, float], ...]
    residual: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CertificateResult:
    """Optimality check of a matching at a given point; failure is a
    verdict, not an exception.

    ``lambda_at`` is the max ratio at the point and ``coefficients`` pairs
    each active edge (ratio within ``ACT_REL * max(1, lambda_at)`` of it)
    with its weight in the min-norm gradient combination, whose norm is
    ``residual``.  ``gap`` is the width UB - LB of the value bracket
    (:mod:`ellimatch.minimax`), and ``ok`` holds when it is at most
    ``GAP_REL * max(1, lambda_at)``, the rule a witness solve ends on.
    ``support`` is the edges of positive weight, or None, by the rule of
    :attr:`WitnessResult.support`.
    """

    ok: bool
    residual: float
    gap: float
    lambda_at: float
    coefficients: tuple[tuple[int, float], ...]
    support: tuple[int, ...] | None


def _support(
    lam: float, certified: bool, certificate: Sequence[tuple[int, float]]
) -> tuple[int, ...] | None:
    """The certificate's edges of positive weight, when the value is above
    the segment regime and the bracket certifies the point; else None."""
    if lam > LAMBDA_SEGMENT and certified:
        return tuple(e for e, mu in certificate if mu > 0.0)
    return None


def _ratio_piece(a: Point, b: Point, d: float) -> Piece:
    return (a, b, d, 0.0)


def _frame_pieces(
    s: PointSet, pairs: Sequence[IndexPair], piece: Callable[[Point, Point, float], Piece]
) -> tuple[list[Piece], dict[int, Point], Frame]:
    """Unit-square frame of the edges' endpoints and ``piece(a, b, |ab|)``
    for each edge in it: (pieces, frame points, frame)."""
    used = sorted({k for p in pairs for k in p})
    frame = Frame.of([s[k] for k in used])
    npts = {k: frame.to(s[k]) for k in used}
    lengths = edge_lengths(npts, pairs)
    pieces = [piece(npts[i], npts[j], d) for (i, j), d in zip(pairs, lengths)]
    return pieces, npts, frame


def solve_in_frame(
    s: PointSet, pairs: Sequence[IndexPair], piece: Callable[[Point, Point, float], Piece]
) -> tuple[MinimaxResult, Frame]:
    """Minimize the max over edges ab of ``piece(a, b, |ab|)`` in the
    unit-square frame of the edges' endpoints, from the mean of the edge
    midpoints.  Returns (result in the frame, the frame)."""
    if not pairs:
        raise ValueError("no edges to minimize over")
    pieces, npts, frame = _frame_pieces(s, pairs, piece)
    x0 = (
        left_sum(npts[i][0] + npts[j][0] for i, j in pairs) / (2.0 * len(pairs)),
        left_sum(npts[i][1] + npts[j][1] for i, j in pairs) / (2.0 * len(pairs)),
    )
    return minimize_max(pieces, x0), frame


def minimize_h(s: PointSet, m: Matching) -> WitnessResult:
    """Global minimizer of the edgewise max distance-sum ratio of a matching."""
    validate_pairs(s, m.pairs)
    return minimize_h_over_edges(s, m.pairs)


def minimize_h_over_edges(s: PointSet, pairs: Sequence[IndexPair]) -> WitnessResult:
    """Like :func:`minimize_h` but for an arbitrary edge list (used by the
    Helly check on the witness's certificate edges)."""
    res, frame = solve_in_frame(s, pairs, _ratio_piece)
    certificate = tuple(zip(res.active, res.coefficients))
    return WitnessResult(
        o_star=frame.back(res.x),
        lambda_star=res.value,
        active=res.active,
        support=_support(res.value, res.converged, certificate),
        certificate=certificate,
        residual=res.residual,
        iterations=res.iterations,
        converged=res.converged,
    )


def optimality_certificate(s: PointSet, m: Matching, o: Point) -> CertificateResult:
    """Check whether o minimizes the max ratio of m: the value bracket,
    taken in the unit-square frame of m, must put the max ratio at o within
    ``GAP_REL * max(1, lambda_at)`` of the minimum."""
    validate_pairs(s, m.pairs)
    pieces, _, frame = _frame_pieces(s, m.pairs, _ratio_piece)
    lam, active, coeffs, residual, gap, ok = _certificate(pieces, frame.to(o))
    coefficients = tuple(zip(active, coeffs))
    return CertificateResult(
        ok=ok,
        residual=residual,
        gap=gap,
        lambda_at=lam,
        coefficients=coefficients,
        support=_support(lam, ok, coefficients),
    )


def caratheodory_support(s: PointSet, m: Matching, o: Point) -> tuple[int, ...] | None:
    """``optimality_certificate(s, m, o).support``.  Kept only because the
    benchmark's tracer and per-layer metrics name this function."""
    return optimality_certificate(s, m, o).support


# Steiner star: the pull norm below which a Weiszfeld iterate off every data
# point is a certified median, and the most Weiszfeld steps taken.
STAR_GRAD_TOL = 1e-6
STAR_MAX_ITERS = 50000


def _pull(
    pts: Sequence[Point], y: Point
) -> tuple[int, float, float, float, float, float, Point]:
    """(at, rx, ry, wx, wy, winv, near) at y: the number of points within
    1e-13 of y, the pull (rx, ry) of the others (the sum of unit vectors
    towards them), the Weiszfeld sums of p / |p - y| and 1 / |p - y| over
    them, and the point nearest y, the first one on a tie."""
    at = 0
    rx = ry = 0.0
    wx = wy = winv = 0.0
    near = pts[0]
    dmin = math.inf
    for p in pts:
        d = math.hypot(y[0] - p[0], y[1] - p[1])
        if d < dmin:
            near, dmin = p, d
        if d <= 1e-13:
            at += 1
            continue
        rx += (p[0] - y[0]) / d
        ry += (p[1] - y[1]) / d
        winv += 1.0 / d
        wx += p[0] / d
        wy += p[1] / d
    return at, rx, ry, wx, wy, winv, near


def _vertex_optimal(pts: Sequence[Point], c: Point) -> bool:
    """Whether the data point c is a geometric median of pts: the pull of
    the points elsewhere must not exceed the number of points at c (Vardi
    and Zhang 2000)."""
    at, rx, ry = _pull(pts, c)[:3]
    return math.hypot(rx, ry) <= at + 1e-12


def steiner_star(s: PointSet) -> tuple[Point, float, bool]:
    """Geometric-median center, its total-distance objective, and whether a
    certificate ended the iteration.

    Weiszfeld iteration from the centroid, at most ``STAR_MAX_ITERS`` steps.
    Towards a data point that is itself the median, Weiszfeld crawls at a
    rate close to 1, so every step tests the data point nearest the iterate
    for vertex optimality (each point once) and stops there when it passes.
    An iterate that lands on any other data point steps along the pull of
    the remaining points.  The sum of unit vectors is scale-free, so ``STAR_GRAD_TOL``
    certifies the center in any frame.
    """
    frame = Frame.of(s.points)
    pts = [frame.to(p) for p in s]
    n = len(pts)
    y = (left_sum(p[0] for p in pts) / n, left_sum(p[1] for p in pts) / n)
    converged = False
    vertex_optimal: dict[Point, bool] = {}  # the test reads only the point
    for _ in range(STAR_MAX_ITERS):
        at, rx, ry, wx, wy, winv, near = _pull(pts, y)
        if near not in vertex_optimal:
            vertex_optimal[near] = _vertex_optimal(pts, near)
        if vertex_optimal[near]:
            y, converged = near, True
            break
        rn = math.hypot(rx, ry)
        if at:
            step = (rn - at) / winv
            y = (y[0] + step * rx / rn, y[1] + step * ry / rn)
        else:
            if rn <= STAR_GRAD_TOL:
                converged = True
                break  # subgradient certificate
            y2 = (wx / winv, wy / winv)
            if dist(y, y2) <= 1e-16 * (1.0 + norm(y)):
                y = y2
                break
            y = y2
    total = left_sum(math.hypot(y[0] - p[0], y[1] - p[1]) for p in pts)
    return frame.back(y), frame.scale * total, converged
