"""Witness-point extraction for matchings.

Minimizes the maximum per-edge distance-sum ratio over the plane, identifies
the active edges, certifies optimality through the gradient convex hull,
takes the 2- or 3-edge support from that certificate's positive weights,
and computes the Steiner-star (geometric median) objective.

All solvers map the instance into its unit-square :class:`~ellimatch.geom.Frame`
first; the ratios are similarity-invariant, so nothing is lost and the
unit-scale tolerances of :mod:`ellimatch.geom` apply.  Outputs are mapped back
to input coordinates.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .geom import EPS_GEO, Frame, Point, DegenerateEdgeError, dist, h_ratio, norm
from .matching import Matching, PointSet, validate_pairs
from .minimax import (
    ACT_REL,
    EPS_CERT,
    MinimaxResult,
    Piece,
    _certificate,
    _derivatives,
    min_norm_point,
    minimize_max,
)

# Relative activity tolerance for the reported active set (times lambda*).
EPS_ACT = ACT_REL

# Above this, a witness is considered strictly off every segment and has a
# support; below, the witness sits on a segment (ratio 1 regime).
LAMBDA_SEGMENT = 1.0 + 1e-9

IndexPair = tuple[int, int]


class SupportError(RuntimeError):
    """The active edges' gradients do not certify the point; it is likely
    not a witness."""


@dataclass(frozen=True)
class WitnessResult:
    """Minimax witness for an edge set.

    ``certificate`` pairs each active edge with its convex coefficient in the
    gradient combination whose norm is ``residual``.  ``support`` is the
    certificate's edges of positive weight (2 or 3, by Caratheodory in the
    plane); it is None when the ratio is 1 within tolerance (witness on a
    segment) or when the certificate does not hold.
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
) -> tuple[MinimaxResult, Frame]:
    """Minimize the max over edges ab of ``piece(a, b, |ab|)`` in the
    unit-square frame of the edges' endpoints, from the mean of the edge
    midpoints.  Returns (result in the frame, the frame)."""
    if not pairs:
        raise ValueError("no edges to minimize over")
    pieces, npts, frame = _frame_pieces(s, pairs, piece)
    x0 = (
        sum(npts[i][0] + npts[j][0] for i, j in pairs) / (2.0 * len(pairs)),
        sum(npts[i][1] + npts[j][1] for i, j in pairs) / (2.0 * len(pairs)),
    )
    return minimize_max(pieces, x0, value_floor=value_floor), frame


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
    res, frame = solve_in_frame(s, pairs, _ratio_piece, value_floor=1.0)

    lam = res.value
    residual = res.residual
    if res.converged and residual > EPS_CERT:
        # Certified by the value floor: zero is a genuine subgradient at a
        # duplicated-point witness (the endpoint ball absorbs the gradient).
        residual = 0.0
    certificate = tuple(zip(res.active, res.coefficients))
    support = None
    if lam > LAMBDA_SEGMENT and res.residual <= EPS_CERT:
        support = tuple(e for e, mu in certificate if mu > 0.0)
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


def caratheodory_support(
    s: PointSet, m: Matching, active: Sequence[int], o: Point
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The edges among ``active`` that carry the optimality certificate at o,
    and their convex weights: the positive-weight part of the min-norm
    combination of the edges' gradients in the unit-square frame of ``m``,
    as in :func:`optimality_certificate`.  By Caratheodory in the plane there
    are at most 3.  Raises :class:`SupportError` when the residual exceeds
    ``EPS_CERT``, which signals an inaccurate witness.
    """
    validate_pairs(s, m.pairs)
    pieces, _, frame = _frame_pieces(s, m.pairs, _ratio_piece)
    x = frame.to(o)
    _, coeffs, residual = min_norm_point([_derivatives(pieces[e], x)[0] for e in active])
    if residual > EPS_CERT:
        raise SupportError(
            f"the gradients of {len(active)} active edges miss the origin by {residual:.3g}"
        )
    support = [(e, mu) for e, mu in zip(active, coeffs) if mu > 0.0]
    return tuple(e for e, _ in support), tuple(mu for _, mu in support)


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
