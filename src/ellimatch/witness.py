"""Witness-point extraction for matchings.

Minimizes the maximum per-edge distance-sum ratio over the plane, identifies
the active edges and a 2- or 3-edge support whose bisector points surround
the witness, certifies optimality through the gradient convex hull, and
computes the Steiner-star (geometric median) objective.

All solvers map the instance into its unit-square :class:`~ellimatch.geom.Frame`
first; the ratios are similarity-invariant, so nothing is lost and the
unit-scale tolerances of :mod:`ellimatch.geom` apply.  Outputs are mapped back
to input coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .geom import EPS_GEO, Frame, Point, DegenerateEdgeError, bisector_point, dist, h_ratio, norm
from .matching import Matching, PointSet, validate_pairs
from .minimax import (
    ACT_REL,
    EPS_CERT,
    MinimaxResult,
    Piece,
    _certificate,
    hull_candidates,
    minimize_max,
)

# Relative activity tolerance for the reported active set (times lambda*).
EPS_ACT = ACT_REL

# Above this, a witness is considered strictly off every segment and support
# extraction applies; below, the witness sits on a segment (ratio 1 regime).
LAMBDA_SEGMENT = 1.0 + 1e-9

IndexPair = tuple[int, int]


class SupportError(RuntimeError):
    """No 2- or 3-edge support contains the witness; the witness is likely
    inaccurate."""


@dataclass(frozen=True)
class WitnessResult:
    """Minimax witness for an edge set.

    ``certificate`` pairs each active edge with its convex coefficient in the
    gradient combination whose norm is ``residual``.  ``support`` is None when
    the ratio is 1 within tolerance (witness on a segment) or when extraction
    failed.
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
    """Outcome of an optimality check at a given point; failure is a verdict,
    not an exception."""

    ok: bool
    residual: float
    lambda_at: float
    coefficients: tuple[tuple[int, float], ...]


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
    pieces = []
    for i, j in pairs:
        d = dist(npts[i], npts[j])
        if d <= EPS_GEO:
            raise DegenerateEdgeError(f"zero-length edge between indices {i} and {j}")
        pieces.append(piece(npts[i], npts[j], d))
    return pieces, npts, frame


def solve_in_frame(
    s: PointSet,
    pairs: Sequence[IndexPair],
    piece: Callable[[Point, Point, float], Piece],
    *,
    value_floor: float | None = None,
) -> tuple[MinimaxResult, Frame, dict[int, Point]]:
    """Minimize the max over edges ab of ``piece(a, b, |ab|)`` in the
    unit-square frame of the edges' endpoints, from the mean of the edge
    midpoints.  Returns (result in the frame, the frame, frame points)."""
    if not pairs:
        raise ValueError("no edges to minimize over")
    pieces, npts, frame = _frame_pieces(s, pairs, piece)
    x0 = (
        sum(npts[i][0] + npts[j][0] for i, j in pairs) / (2.0 * len(pairs)),
        sum(npts[i][1] + npts[j][1] for i, j in pairs) / (2.0 * len(pairs)),
    )
    return minimize_max(pieces, x0, value_floor=value_floor), frame, npts


def h_max(s: PointSet, pairs: Sequence[IndexPair], x: Point) -> float:
    """Maximum distance-sum ratio over the given edges at x."""
    return max(h_ratio(s[i], s[j], x) for i, j in pairs)


def minimize_h(s: PointSet, m: Matching) -> WitnessResult:
    """Global minimizer of the edgewise max distance-sum ratio of a matching."""
    validate_pairs(s, m.pairs)
    return minimize_h_over_edges(s, m.pairs)


def minimize_h_over_edges(s: PointSet, pairs: Sequence[IndexPair]) -> WitnessResult:
    """Like :func:`minimize_h` but for an arbitrary edge list (used by the
    Helly check on the witness's certificate edges)."""
    # The ratio never drops below 1, so 1 is a proven floor; hitting it
    # certifies optimality even when the witness sits on a duplicated point
    # where the gradient hull cannot cancel.
    res, frame, npts = solve_in_frame(s, pairs, _ratio_piece, value_floor=1.0)

    lam = res.value
    residual = res.residual
    if res.converged and residual > EPS_CERT:
        # Certified by the value floor: zero is a genuine subgradient at a
        # duplicated-point witness (the endpoint ball absorbs the gradient).
        residual = 0.0
    certificate = tuple(zip(res.active, res.coefficients))
    support: tuple[int, ...] | None = None
    if lam > LAMBDA_SEGMENT:
        try:
            support, _ = _support_in_frame(npts, pairs, res.active, res.x)
        except (SupportError, DegenerateEdgeError):
            support = None
    return WitnessResult(
        o_star=frame.back(res.x),
        lambda_star=lam,
        active=res.active,
        support=support,
        certificate=certificate,
        residual=residual,
        iterations=res.iterations,
        converged=res.converged,
    )


def active_set(
    s: PointSet, m: Matching, o: Point, lam: float, *, tol: float = EPS_ACT
) -> tuple[int, ...]:
    """Edges whose ratio at o is within ``tol * lam`` of lam."""
    out = []
    for e, (i, j) in enumerate(m.pairs):
        if h_ratio(s[i], s[j], o) >= lam * (1.0 - tol):
            out.append(e)
    return tuple(out)


def _support_in_frame(
    pts: Sequence[Point] | dict[int, Point],
    pairs: Sequence[IndexPair],
    active: Sequence[int],
    o: Point,
    *,
    tol: float = EPS_GEO,
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Support search in a given coordinate frame; see caratheodory_support."""
    ls = []
    for e in active:
        i, j = pairs[e]
        x = (pts[i][0] - o[0], pts[i][1] - o[1])
        y = (pts[j][0] - o[0], pts[j][1] - o[1])
        ls.append(bisector_point(x, y))
    unit = max((norm(l) for l in ls), default=0.0)
    if unit <= 0.0:
        unit = 1.0
    ls = [(l[0] / unit, l[1] / unit) for l in ls]
    for idx, coeffs, p in hull_candidates(ls, 1e-9):
        if math.hypot(p[0], p[1]) <= tol:
            return tuple(active[a] for a in idx), coeffs
    raise SupportError(
        f"no 2- or 3-edge support among {len(active)} active edges contains the witness"
    )


def caratheodory_support(
    s: PointSet,
    m: Matching,
    active: Sequence[int],
    o: Point,
    *,
    tol: float = EPS_GEO,
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Pick 2 or 3 active edges whose bisector points' convex hull contains o.

    Pairs are preferred over triples.  Containment is tested in the frame
    translated to o and rescaled to unit size, so ``tol`` applies at unit
    scale.  Raises :class:`SupportError` when nothing works, which signals an
    inaccurate witness.
    """
    return _support_in_frame(s.points, m.pairs, active, o, tol=tol)


def optimality_certificate(
    s: PointSet,
    m: Matching,
    o: Point,
    *,
    eps_cert: float = EPS_CERT,
    act_tol: float = EPS_ACT,
) -> CertificateResult:
    """Check whether o minimizes the max ratio: the origin must lie (within
    ``eps_cert``) in the convex hull of the active edges' gradients.

    Gradients are taken in the unit-square-normalized frame, where the
    residual tolerance is meaningful.
    """
    validate_pairs(s, m.pairs)
    pieces, _, frame = _frame_pieces(s, m.pairs, _ratio_piece)
    lam, active, coeffs, residual = _certificate(pieces, frame.to(o), act_tol)
    return CertificateResult(
        ok=residual <= eps_cert,
        residual=residual,
        lambda_at=lam,
        coefficients=tuple(zip(active, coeffs)),
    )


def _vertex_optimal(pts: Sequence[Point], c: Point) -> bool:
    """Whether the data point c is a geometric median of pts: the pull of
    the points elsewhere (the sum of unit vectors towards them) must not
    exceed the number of points at c (Vardi and Zhang 2000)."""
    at = 0
    rx = ry = 0.0
    for p in pts:
        d = math.hypot(p[0] - c[0], p[1] - c[1])
        if d <= 1e-13:
            at += 1
        else:
            rx += (p[0] - c[0]) / d
            ry += (p[1] - c[1]) / d
    return math.hypot(rx, ry) <= at + 1e-12


def steiner_star(
    s: PointSet, *, grad_tol: float = 1e-6, max_iters: int = 50000
) -> tuple[Point, float, bool]:
    """Geometric-median center, its total-distance objective, and whether a
    certificate ended the iteration.

    Weiszfeld iteration from the centroid.  Towards a data point that is
    itself the median, Weiszfeld crawls at a rate close to 1, so every step
    tests the data point nearest the iterate for vertex optimality and stops
    there when it passes.  An iterate that lands on any other data point
    steps along the pull of the remaining points.  The sum of unit vectors is
    scale-free, so ``grad_tol`` certifies the center in any frame.
    """
    frame = Frame.of(s.points)
    pts = [frame.to(p) for p in s]
    n = len(pts)
    y = (sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n)
    converged = False
    for _ in range(max_iters):
        at = 0
        rx = ry = 0.0
        wx = wy = winv = 0.0
        for p in pts:
            d = math.hypot(y[0] - p[0], y[1] - p[1])
            if d <= 1e-13:
                at += 1
                continue
            rx += (p[0] - y[0]) / d
            ry += (p[1] - y[1]) / d
            winv += 1.0 / d
            wx += p[0] / d
            wy += p[1] / d
        near = min(pts, key=lambda p: dist(p, y))
        if _vertex_optimal(pts, near):
            y, converged = near, True
            break
        rn = math.hypot(rx, ry)
        if at:
            step = (rn - at) / winv
            y = (y[0] + step * rx / rn, y[1] + step * ry / rn)
        else:
            if rn <= grad_tol:
                converged = True
                break  # subgradient certificate
            y2 = (wx / winv, wy / winv)
            if dist(y, y2) <= 1e-16 * (1.0 + norm(y)):
                y = y2
                break
            y = y2
    total = sum(math.hypot(y[0] - p[0], y[1] - p[1]) for p in pts)
    return frame.back(y), frame.scale * total, converged
