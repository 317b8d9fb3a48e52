"""Witness-point extraction for matchings.

Minimizes the maximum per-edge distance-sum ratio over the plane, and
computes the Steiner-star (geometric median) objective by a safeguarded
Newton iteration with a vertex-optimality test (:func:`steiner_star`).
:func:`certificate_over_edges` is the one query at a given point: it
evaluates every edge of a list there, brackets the minimum of the max ratio
through the convex hull of the active edges' gradients, by the same rule a
witness solve ends on, and reads the 2- or 3-edge support off the
certificate's positive weights.  :func:`optimality_certificate` asks it
for a matching's edges, and the Helly check for the witness's support.

All solvers map the instance into its unit-square :class:`~ellimatch.geom.Frame`
first; the ratios are similarity-invariant, so nothing is lost and the
unit-scale tolerances of :mod:`ellimatch.geom` apply.  Outputs are mapped back
to input coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .geom import Frame, Point, Record, dist, edge_lengths, left_sum
from .matching import Matching, PointSet, validate_pairs
from .minimax import MinimaxResult, Piece, _certificate, minimize_max

# Above this, a witness is considered strictly off every segment and has a
# support; below, the witness sits on a segment (ratio 1 regime).
LAMBDA_SEGMENT = 1.0 + 1e-9

IndexPair = tuple[int, int]


class WitnessResult(Record):
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


class CertificateResult(Record):
    """Optimality check of an edge list, a matching's or any other, at a
    given point; failure is a verdict, not an exception.

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
    Helly check on the witness's certificate edges when their certificate
    at the witness declines)."""
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


def certificate_over_edges(
    s: PointSet, pairs: Sequence[IndexPair], o: Point
) -> CertificateResult:
    """Check whether o minimizes the max ratio over an arbitrary edge list:
    the value bracket, taken in the unit-square frame of the edges'
    endpoints, must put the max ratio at o within
    ``GAP_REL * max(1, lambda_at)`` of the minimum.  The sibling of
    :func:`minimize_h_over_edges` (used by the Helly check on the witness's
    certificate edges)."""
    pieces, _, frame = _frame_pieces(s, pairs, _ratio_piece)
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


def optimality_certificate(s: PointSet, m: Matching, o: Point) -> CertificateResult:
    """:func:`certificate_over_edges` for all of m's edges, in m's frame."""
    validate_pairs(s, m.pairs)
    return certificate_over_edges(s, m.pairs, o)


def caratheodory_support(s: PointSet, m: Matching, o: Point) -> tuple[int, ...] | None:
    """``optimality_certificate(s, m, o).support``.  Kept only because the
    benchmark's tracer and per-layer metrics name this function."""
    return optimality_certificate(s, m, o).support


# Steiner star: the pull norm below which an iterate off every data point is
# a certified median, and the most passes over the points.
STAR_GRAD_TOL = 1e-6
STAR_MAX_ITERS = 50000


def _visit(
    pts: Sequence[Point], y: Point
) -> tuple[int, float, float, float, float, float, float, float, Point]:
    """One pass over pts at y: (at, rx, ry, winv, hxx, hxy, hyy, t, near).
    ``at`` counts the points within 1e-13 of y.  Over the others, (rx, ry)
    is the pull (the sum of unit vectors u towards them), winv the
    Weiszfeld weight, the sum of 1 / |p - y|, and (hxx, hxy, hyy) the
    Hessian of t, the sum of (I - u u^T) / |p - y|.  ``t`` is t(y), the sum
    of |p - y| over all of pts added left to right, and ``near`` the point
    nearest y, the first one on a tie."""
    hypot = math.hypot
    yx, yy = y
    at = 0
    rx = ry = winv = hxx = hxy = hyy = t = 0.0
    near = pts[0]
    dmin = math.inf
    for p in pts:
        dx = p[0] - yx
        dy = p[1] - yy
        d = hypot(dx, dy)
        t += d
        if d < dmin:
            near, dmin = p, d
        if d <= 1e-13:
            at += 1
            continue
        inv = 1.0 / d
        ux = dx * inv
        uy = dy * inv
        rx += ux
        ry += uy
        winv += inv
        uyi = uy * inv
        hxx += uy * uyi
        hxy -= ux * uyi
        hyy += ux * ux * inv
    return at, rx, ry, winv, hxx, hxy, hyy, t, near


def _vertex_optimal(pts: Sequence[Point], c: Point) -> bool:
    """Whether the data point c is a geometric median of pts: the pull of
    the points elsewhere must not exceed the number of points at c (Vardi
    and Zhang 2000)."""
    at, rx, ry = _visit(pts, c)[:3]
    return math.hypot(rx, ry) <= at + 1e-12


def steiner_star(s: PointSet) -> tuple[Point, float, bool]:
    """Geometric-median center, its total-distance objective, and whether a
    certificate ended the iteration.

    Safeguarded Newton iteration on t(y) = sum |p - y| in the unit frame,
    from the centroid, at most ``STAR_MAX_ITERS`` passes over the points
    (Overton 1983; Vardi and Zhang 2000).  At an iterate off every data
    point whose Hessian H is positive definite, the Newton point
    y + H^-1 pull is tried and kept only if t falls there; otherwise, as on
    a collinear set where H is singular, the iterate takes the Weiszfeld
    step, which never raises t.  A pull below ``STAR_GRAD_TOL`` certifies
    the iterate (the sum of unit vectors is scale-free, so in any frame),
    and one more Newton step, kept by the same rule, brings t to rounding.
    Each data point nearest an iterate is tested once for vertex
    optimality, and the iteration stops there when it passes; an iterate on
    any other data point steps along the pull of the remaining points.
    """
    frame = Frame.of(s.points)
    pts = [frame.to(p) for p in s]
    n = len(pts)
    y = (left_sum(p[0] for p in pts) / n, left_sum(p[1] for p in pts) / n)
    converged = False
    vertex_optimal: dict[Point, bool] = {}  # the test reads only the point
    fallback = None  # (t, point): where to go if the Newton point y is no lower
    for _ in range(STAR_MAX_ITERS):
        at, rx, ry, winv, hxx, hxy, hyy, t, near = _visit(pts, y)
        if fallback is not None:
            t0, y0 = fallback
            fallback = None
            if not t < t0:
                y = y0
                continue
        if near not in vertex_optimal:
            vertex_optimal[near] = _vertex_optimal(pts, near)
        if vertex_optimal[near]:
            y, converged = near, True
            break
        rn = math.hypot(rx, ry)
        if at:
            step = (rn - at) / winv
            y = (y[0] + step * rx / rn, y[1] + step * ry / rn)
            continue
        if rn <= STAR_GRAD_TOL:
            converged = True  # subgradient certificate; one Newton step polishes y
            y2 = y
        else:
            y2 = (y[0] + rx / winv, y[1] + ry / winv)  # the Weiszfeld point
            if dist(y, y2) <= 1e-16 * (1.0 + math.hypot(*y)):
                y = y2
                break
        det = hxx * hyy - hxy * hxy
        if det > 0.0:
            fallback = (t, y2)
            y2 = (y[0] + (hyy * rx - hxy * ry) / det, y[1] + (hxx * ry - hxy * rx) / det)
        y = y2
        if converged:
            break
    total = _total(pts, y)
    if fallback is not None and not total < fallback[0]:
        # A certified iterate's t is the one _visit returned there; an
        # unconverged end falls back to the Weiszfeld point, not yet summed.
        y = fallback[1]
        total = fallback[0] if converged else _total(pts, y)
    return frame.back(y), frame.scale * total, converged


def _total(pts: Sequence[Point], y: Point) -> float:
    """t(y), added left to right: the bits of :func:`_visit`'s ``t``."""
    return left_sum(math.hypot(y[0] - p[0], y[1] - p[1]) for p in pts)
