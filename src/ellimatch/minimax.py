"""Minimizer for pointwise maxima of distance-sum pieces on the plane.

Every piece is a tuple ``(a, b, s, beta)`` standing for
``f(x) = (|x - a| + |x - b|) / s + beta``, with a closed-form gradient and
Hessian: a distance-sum ratio is ``(a, b, |ab|, 0)`` and a disk slack
``|x - c| - r`` is ``(c, c, 2, -r)``.  Pieces are given in the unit-square
:class:`~ellimatch.geom.Frame` of their points, so lengths are at unit scale
and the minimizer takes no ``diameter`` argument: steps are capped at 1 and
the last stage stops on moves below 1e-14.

One method: damped Newton on the log-sum-exp smoothing
``phi_tau(x) = max f + tau * log sum_i exp((f_i - max f) / tau)``, which
overestimates ``max f`` by at most ``tau * log(#pieces)`` (Nesterov 2005;
Polak, Royset and Womersley 2003).  ``tau`` starts at 0.1 of the value scale
and is cut tenfold per stage down to 1e-14.  Each step is an Armijo
backtracking line search along the Newton direction, or along the steepest
descent direction where the smoothed Hessian is not positive definite.  The
foci, where a piece has a kink, are handled exactly: a focus is stationary
when the ball of subgradients it adds absorbs the gradient, and a step cut
short next to a focus tries the focus itself.

Once ``tau`` is small, only the pieces within a few hundred ``tau`` of the
max carry any softmax weight: ``exp`` of anything below -745.14 is exactly
0.0.  So most passes screen pieces out instead of evaluating them.  Every
piece is Lipschitz with constant ``2 / s`` (a disk piece with 1), so with
``L`` the largest of these, a piece worth ``v`` at a point z is worth at most
``v + L |y - z|`` at y.  Passes evaluate every piece until one finds at least
half of the weights underflowed; its point becomes the anchor z, with the
pieces ranked by their values there.  The passes after it are screened: a
pass at y evaluates pieces in that order and stops at the first one whose
bound falls more than ``_UNDERFLOW_MARGIN * tau`` below the largest value
seen, since that piece and every later one would get a weight of exactly
0.0.  The max, the weight sum, the smoothed value, the Newton direction and
the focus test are thus the same floats as with every piece evaluated, and
so is the result.  A screened pass that evaluates more than half of the
pieces makes the next pass a full one again.  A smaller ``tau`` only
tightens the screen, so the anchor carries across stages.

The result is certified by the classical optimality condition for maxima of
convex functions: at a minimizer, the origin lies in the convex hull of the
active pieces' gradients.  ``min_norm_point`` gives the distance to that
hull and the convex weights attaining it.  The certificate evaluates every
piece.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .geom import Point

# Convex-combination certificate residual accepted as "optimal".
EPS_CERT = 1e-7

# Relative activity tolerance: pieces within ACT_REL * max(1, |f|) of the max.
ACT_REL = 1e-6

# (a, b, s, beta): f(x) = (|x - a| + |x - b|) / s + beta.
Piece = tuple[Point, Point, float, float]

# Reaching a proven lower bound of the max within this much certifies it.
_FLOOR_TOL = 1e-9

# Smoothing parameter of the first stage, relative to max(1, |f(x0)|), and
# the number of stages, each cutting it tenfold.  The last, 1e-14, keeps the
# smoothing bias tau * log(p_i / p_j) between the active pieces' values
# below 1e-12 relative at a three-piece vertex.
_TAU_START = 0.1
_STAGES = 14

# Relative rounding level of piece values.
_ROUNDING = 1e-15

_NEWTON_STEPS = 50  # per smoothing stage
_HALVINGS = 50  # per line search
_ARMIJO = 1e-4
_LEAP = 3.0
_NEGLIGIBLE = 1e-30  # softmax weight below which a piece is skipped

# Distance below the max, in units of tau, past which a piece's softmax
# weight exp((f_i - max f) / tau) is exactly 0.0.  exp underflows to zero
# below -745.14; the 14.8 tau to spare cover the rounding of piece values at
# unit scale, down to the last stage's tau of 1e-14.
_UNDERFLOW_MARGIN = 760.0


@dataclass(frozen=True)
class MinimaxResult:
    """Minimizer of the max of the pieces.

    ``iterations`` counts passes over the piece list, each at one point,
    whether it evaluates every piece or screens out those without weight.
    """

    x: Point
    value: float
    active: tuple[int, ...]
    coefficients: tuple[float, ...]  # convex weights aligned with `active`
    residual: float
    iterations: int
    converged: bool


def _piece_value(p: Piece, x: Point) -> float:
    a, b, s, beta = p
    return (math.hypot(x[0] - a[0], x[1] - a[1]) + math.hypot(x[0] - b[0], x[1] - b[1])) / s + beta


def _derivatives(p: Piece, x: Point) -> tuple[Point, tuple[float, float, float], float]:
    """Gradient and Hessian (xx, xy, yy) of a piece at x, and the radius of
    the ball of subgradients its foci at x add.  At a focus the other term
    alone is a valid subgradient."""
    a, b, s, _ = p
    gx = gy = hxx = hxy = hyy = ball = 0.0
    for c in (a, b):
        dx, dy = x[0] - c[0], x[1] - c[1]
        d = math.hypot(dx, dy)
        if d > 1e-15:
            ux, uy = dx / d, dy / d
            gx += ux
            gy += uy
            hxx += (1.0 - ux * ux) / d
            hxy -= ux * uy / d
            hyy += (1.0 - uy * uy) / d
        else:
            ball += 1.0
    return (gx / s, gy / s), (hxx / s, hxy / s, hyy / s), ball / s


def _hull_candidates(
    vectors: Sequence[Point],
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...], Point]]:
    """Candidates for the point nearest the origin in the convex hull of 2-D
    vectors, as (indices, convex coefficients, point): first the nearest
    point of every segment (t clamped to [0, 1]), then the clamped
    combination of every triangle whose barycentric coordinates of the
    origin are all >= -1e-12, each in lexicographic order of the indices."""
    for i, j in itertools.combinations(range(len(vectors)), 2):
        vi, vj = vectors[i], vectors[j]
        dx, dy = vj[0] - vi[0], vj[1] - vi[1]
        dd = dx * dx + dy * dy
        t = 0.0 if dd == 0.0 else min(1.0, max(0.0, -(vi[0] * dx + vi[1] * dy) / dd))
        # At t = 1 the endpoint itself, which vi + dx may miss by rounding.
        yield (i, j), (1.0 - t, t), vj if t == 1.0 else (vi[0] + t * dx, vi[1] + t * dy)
    for i, j, k in itertools.combinations(range(len(vectors)), 3):
        vi, vj, vk = vectors[i], vectors[j], vectors[k]
        den = (vj[0] - vi[0]) * (vk[1] - vi[1]) - (vj[1] - vi[1]) * (vk[0] - vi[0])
        if abs(den) < 1e-30:
            continue
        # Barycentric coordinates of the origin.
        alpha = (vj[0] * vk[1] - vj[1] * vk[0]) / den
        beta = (vk[0] * vi[1] - vk[1] * vi[0]) / den
        gamma = (vi[0] * vj[1] - vi[1] * vj[0]) / den
        if min(alpha, beta, gamma) < -1e-12:
            continue
        alpha, beta, gamma = max(alpha, 0.0), max(beta, 0.0), max(gamma, 0.0)
        ssum = alpha + beta + gamma
        alpha, beta, gamma = alpha / ssum, beta / ssum, gamma / ssum
        px = alpha * vi[0] + beta * vj[0] + gamma * vk[0]
        py = alpha * vi[1] + beta * vj[1] + gamma * vk[1]
        yield (i, j, k), (alpha, beta, gamma), (px, py)


def min_norm_point(vectors: Sequence[Point]) -> tuple[Point, tuple[float, ...], float]:
    """Closest point to the origin in the convex hull of 2-D vectors.

    Exhausts supports of size 1, 2 and 3 (sufficient in the plane) and
    returns (point, convex coefficients over the inputs, norm of the point).
    Candidates whose norm is within rounding (``_ROUNDING`` times the
    longest vector) of the smallest are tied; among them the one with the
    fewest indices wins, then the nearer.  So on a symmetric tie a triangle
    with a weight at rounding level does not displace the exact segment.
    """
    if not vectors:
        raise ValueError("min_norm_point needs at least one vector")
    singletons = (((i,), (1.0,), v) for i, v in enumerate(vectors))
    candidates = [
        (math.hypot(c[2][0], c[2][1]), c)
        for c in itertools.chain(singletons, _hull_candidates(vectors))
    ]
    tie = min(r for r, _ in candidates) + _ROUNDING * max(math.hypot(*v) for v in vectors)
    _, (indices, weights, p) = min(
        (c for c in candidates if c[0] <= tie), key=lambda c: (len(c[1][0]), c[0])
    )
    coeffs = [0.0] * len(vectors)
    for i, w in zip(indices, weights):
        coeffs[i] = w
    return p, tuple(coeffs), math.hypot(p[0], p[1])


def _certificate(
    pieces: Sequence[Piece], x: Point
) -> tuple[float, list[int], tuple[float, ...], float]:
    """Evaluate all pieces at x and compute the min-norm certificate over the
    gradients of the active ones, those within ``ACT_REL * max(1, |f|)`` of
    the max.  Returns (max, active, coeffs over active, residual)."""
    vals = [_piece_value(p, x) for p in pieces]
    f = max(vals)
    tol = ACT_REL * max(1.0, abs(f))
    active = [i for i, v in enumerate(vals) if v >= f - tol]
    grads = [_derivatives(pieces[i], x)[0] for i in active]
    _, coeffs, residual = min_norm_point(grads)
    return f, active, coeffs, residual


def _direction(
    pieces: Sequence[Piece], weights: Sequence[float], x: Point, tau: float
) -> tuple[float, float, float] | None:
    """Descent step (sx, sy) for phi_tau at x and the directional derivative
    along it, or None where x is a focus at which phi_tau is stationary.

    The Newton step of the smoothed Hessian
    ``sum p_i H_i + (sum p_i g_i g_i^T - grad grad^T) / tau`` is taken where
    that Hessian is positive definite and the step descends, otherwise the
    steepest descent step.  Pieces whose weight vanishes against the top one
    are skipped.
    """
    total = sum(weights)
    terms = [
        (w / total, *_derivatives(p, x)) for p, w in zip(pieces, weights) if w > _NEGLIGIBLE
    ]
    gx = sum(q * g[0] for q, g, _, _ in terms)
    gy = sum(q * g[1] for q, g, _, _ in terms)
    ball = sum(q * r for q, _, _, r in terms)
    if math.hypot(gx, gy) <= ball:
        return None
    hxx = hxy = hyy = 0.0
    for q, g, h, _ in terms:
        dx, dy = g[0] - gx, g[1] - gy
        hxx += q * (h[0] + dx * dx / tau)
        hxy += q * (h[1] + dx * dy / tau)
        hyy += q * (h[2] + dy * dy / tau)
    det = hxx * hyy - hxy * hxy
    sx, sy = -gx, -gy
    if hxx > 0.0 and det > 0.0:
        nx = -(hyy * gx - hxy * gy) / det
        ny = -(hxx * gy - hxy * gx) / det
        if gx * nx + gy * ny + ball * math.hypot(nx, ny) < 0.0:
            sx, sy = nx, ny
    sn = math.hypot(sx, sy)
    if sn > 1.0:  # keep the step within the unit frame
        sx, sy, sn = sx / sn, sy / sn, 1.0
    return sx, sy, gx * sx + gy * sy + ball * sn


def minimize_max(
    pieces: Sequence[Piece],
    x0: Point,
    *,
    value_floor: float | None = None,
) -> MinimaxResult:
    """Minimize max_i f_i over the plane.

    ``value_floor`` is an optional proven global lower bound of the max (the
    ratio functions never drop below 1).  Reaching it stops the search, and
    ending within 1e-9 of it certifies optimality, which covers minima
    pinned at piece singularities where no gradient combination can cancel.

    Passes after the first few stages skip the pieces whose softmax weight
    would underflow to 0.0, found by the Lipschitz screen of the module
    docstring; the result is the same, bit for bit, as with every piece
    evaluated on every pass.
    """
    if not pieces:
        raise ValueError("minimize_max needs at least one piece")
    lipschitz = max(2.0 / p[2] for p in pieces)
    # The anchor: the point and piece values of the last full pass at which
    # at least half of the weights underflowed, and the piece indices by
    # value there, highest first.  While ranked is None, passes are full.
    anchor, anchor_vals, ranked = x0, [], None

    def smoothed(y: Point, tau: float) -> tuple[float, float, Sequence[Piece], list[float]]:
        """(phi_tau, max f, pieces, their unnormalized softmax weights) at y.
        The pieces are those evaluated, in index order: every piece of
        positive weight is among them."""
        nonlocal iterations, anchor, anchor_vals, ranked
        iterations += 1
        if ranked is None:  # a full pass
            live = pieces
            vals = [_piece_value(p, y) for p in pieces]
            top = max(vals)
            weights = [math.exp((v - top) / tau) for v in vals]
            if 2 * weights.count(0.0) >= len(pieces):
                anchor, anchor_vals = y, vals
                ranked = sorted(range(len(pieces)), key=vals.__getitem__, reverse=True)
        else:  # a screened pass
            reach = (
                lipschitz * math.hypot(y[0] - anchor[0], y[1] - anchor[1])
                + _UNDERFLOW_MARGIN * tau
            )
            top = -math.inf
            seen = []
            for i in ranked:
                if anchor_vals[i] + reach < top:
                    break  # this piece and every later one end below top - margin
                v = _piece_value(pieces[i], y)
                seen.append((i, v))
                if v > top:
                    top = v
            if 2 * len(seen) > len(pieces):
                ranked = None
            seen.sort()
            live = [pieces[i] for i, _ in seen]
            weights = [math.exp((v - top) / tau) for _, v in seen]
        return top + tau * math.log(sum(weights)), top, live, weights

    def at_floor(f: float, tol: float) -> bool:
        return value_floor is not None and f <= value_floor + tol

    x = x0
    f = max(_piece_value(p, x) for p in pieces)
    iterations = 1
    unit = max(1.0, abs(f))
    for stage in range(_STAGES):
        if at_floor(f, _ROUNDING * unit):
            break
        tau = _TAU_START * unit * 0.1**stage
        phi, f, live, weights = smoothed(x, tau)
        for _ in range(_NEWTON_STEPS):
            direction = _direction(live, weights, x, tau)
            if direction is None:
                break
            sx, sy, slope = direction
            # Below the rounding level of phi, values cannot judge a step:
            # there the full Newton step, computed from gradients, is taken.
            rounding = -slope <= _ROUNDING * unit
            # After the previous stage phi_tau is within a few tau of its
            # minimum, so a step promising far more starts cut back.
            t = t0 = min(1.0, _LEAP * tau / -slope)
            for _ in range(_HALVINGS):
                y = (x[0] + t * sx, x[1] + t * sy)
                phi_y, f_y, live_y, w_y = smoothed(y, tau)
                if rounding or phi_y <= phi + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                break  # no descent left at this tau
            if t < t0:
                # A step cut short often runs into a focus, a kink the Newton
                # model cannot see; the focus itself may be the better point.
                gap, c = min(
                    (math.hypot(c[0] - y[0], c[1] - y[1]), c)
                    for p, w in zip(live, weights)
                    if w > _NEGLIGIBLE
                    for c in p[:2]
                )
                if gap < t * math.hypot(sx, sy):
                    phi_c, f_c, live_c, w_c = smoothed(c, tau)
                    if phi_c <= phi_y:
                        y, phi_y, f_y, live_y, w_y = c, phi_c, f_c, live_c, w_c
            moved = math.hypot(y[0] - x[0], y[1] - x[1])
            x, phi, f, live, weights = y, phi_y, f_y, live_y, w_y
            if at_floor(f, _ROUNDING * unit):
                break
            # Middle stages only seed the next one; the last runs to rounding.
            if (moved <= 1e-14) if stage == _STAGES - 1 else (-slope <= 0.1 * tau):
                break

    f, active, coeffs, residual = _certificate(pieces, x)
    iterations += 1
    return MinimaxResult(
        x,
        f,
        tuple(active),
        tuple(coeffs),
        residual,
        iterations,
        residual <= EPS_CERT or at_floor(f, _FLOOR_TOL),
    )
