"""Minimizer for pointwise maxima of distance-sum pieces on the plane.

Every piece is a tuple ``(a, b, s, beta)`` standing for
``f(x) = (|x - a| + |x - b|) / s + beta``, with a closed-form gradient and
Hessian: a distance-sum ratio is ``(a, b, |ab|, 0)`` and a disk slack
``|x - c| - r`` is ``(c, c, 2, -r)``.  Pieces are given in the unit-square
:class:`~ellimatch.geom.Frame` of their points, so lengths are at unit scale
and the minimizer takes no ``diameter`` argument: steps are capped at 1 and
the last stage stops on moves below 1e-14.  A piece's value is computed as
``(math.dist(x, a) + math.dist(x, b)) / s + beta``.  ``math.dist`` is
``geom.dist`` and rounds as ``math.hypot(x[0] - a[0], x[1] - a[1])`` does,
bit for bit (``tests/test_geom.py`` checks this on extremes), with no
Python-level subtraction.  A full pass computes all of them in one
comprehension.

One method: damped Newton on the log-sum-exp smoothing
``phi_tau(x) = max f + tau * log sum_i exp((f_i - max f) / tau)``, which
overestimates ``max f`` by at most ``tau * log(#pieces)`` (Nesterov 2005;
Polak, Royset and Womersley 2003).  ``tau`` starts at 0.1 of the value scale
and is cut tenfold per stage: stage 8 runs at 1e-8 and stage 14 at 1e-14.
Each step is an Armijo backtracking line search along the Newton direction,
or along the steepest descent direction where the smoothed Hessian is not
positive definite.  The foci, where a piece has a kink, are handled
exactly: a focus is stationary when the ball of subgradients it adds
absorbs the gradient, and a step cut short next to a focus tries the focus
itself.

The result is certified by a bracket on the minimum value.  The upper end
UB is max f at the point x.  ``min_norm_point`` gives the convex weights mu
over the gradients g_i of the active pieces, those near the max, that bring
their combination nearest the origin, and its norm, the residual (at a
focus the gradient drops that focus's term, still a subgradient).  Every
minimizer x* lies, with x, in each piece's sublevel ellipse at level UB,
whose major axis is ``s (UB - beta)``, so convexity gives
``max f(x*) >= sum mu_i f_i(x) - residual * min_i s_i (UB - beta_i)``.  The
lower end LB is the larger of that and the floor ``max_i min f_i``, which
is ``max_i (|a_i b_i| / s_i + beta_i)``: 1 for ratio pieces, -min r for
disk pieces.  The point is certified when UB - LB is at most ``GAP_REL``
times ``max(1, |UB|)``.  The rule reads no absolute scale of the
gradients, and a point whose max exceeds the minimum by more than that is
never certified, however many pieces lie near the max.

Smoothing finds the support, and Newton's method on the support's
optimality system finds the vertex (the two-stage scheme of Hald and
Madsen, Math. Programming 20, 1981).  With three pieces ``_support_vertex``
solves f_0 = f_1 = f_2 in (x, y); with two, mu g_0 + (1 - mu) g_1 = 0 and
f_0 = f_1 in (x, y, mu).  ``_FINISH_STEPS`` Newton steps from x give an end
point, and the solve ends there when the bracket certifies it and its max
is at most ``_ROUNDING`` of the value scale above x's; that certificate is
the result's.  It lies on the vertex up to rounding, below the smoothing
bias at which the last stage would stop.  Two finishes try this.  The early
one follows stage 4 (tau = 1e-4 of the value scale) and switches supports,
as Elzinga and Hearn's covering circle does (Management Science 19, 1972):
of the pieces within ``_NEAR_TAU`` tau of the max at x, the
``_NEAR_MAX`` highest, it tries the positive-weight support of their
min-norm certificate, with its weight mu, then each other triple, then each
other pair, with the pair's own min-norm weight.  A switched support may
be wrong, so it ends the solve only at a gap of rounding level,
``2 * _ROUNDING * max(1, |f|)``.  The second follows stage 8 and tries only
the support of the certificate at x, the active pieces with positive
weight.  Where both decline, the stages go on from x as the finishes found
it, and give the floats they gave without them, but for ``iterations``: no
solve certifies less than the stages alone.

At a vertex the gradients' hull may hold the origin in more than one way:
with four active pieces, two triangles can lie equally near it up to
rounding.  Among the combinations within rounding of the nearest, the one
with the fewest pieces is taken, then the one whose bound above is highest,
then the nearest.  So a piece that is active but lies below the max, within
``ACT_REL``, gets no weight that would lower LB where a combination without
it does as well.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

from .geom import Point, Record, dist, left_sum

# Relative width of the value bracket, UB - LB <= GAP_REL * max(1, |UB|),
# accepted as "optimal".
GAP_REL = 1e-9

# Relative activity tolerance: pieces within ACT_REL * max(1, |f|) of the max.
ACT_REL = 1e-6

# (a, b, s, beta): f(x) = (|x - a| + |x - b|) / s + beta.
Piece = tuple[Point, Point, float, float]

# Smoothing parameter of the first stage, relative to max(1, |f(x0)|), and
# the number of stages, each cutting it tenfold.  The last, 1e-14, keeps the
# smoothing bias tau * log(p_i / p_j) between the active pieces' values
# below 1e-12 relative at a three-piece vertex.
_TAU_START = 0.1
_STAGES = 14

# Stages after which the early and the second finish run (module
# docstring), and the band and count of the pieces the early one searches.
# From the end point of stage 8, near the vertex, Newton's method reaches
# rounding level within three steps.
_EARLY_STAGE = 4
_FINISH_STAGE = 8
_FINISH_STEPS = 3
_NEAR_TAU = 50.0
_NEAR_MAX = 5

# Relative rounding level of piece values.
_ROUNDING = 1e-15

_NEWTON_STEPS = 50  # per smoothing stage
_HALVINGS = 50  # per line search
_ARMIJO = 1e-4
_LEAP = 3.0
_NEGLIGIBLE = 1e-30  # softmax weight below which a piece is skipped


class MinimaxResult(Record):
    """Minimizer of the max of the pieces.

    ``iterations`` counts passes over the piece list, each at one point.
    The start value and every certificate count one pass each: a finish's
    at x and at each end point it tries, and the closing one after the last
    stage.  The finishes' Newton steps, which evaluate only the support's 2
    or 3 pieces, are not counted.
    """

    x: Point
    value: float
    active: tuple[int, ...]
    coefficients: tuple[float, ...]  # convex weights aligned with `active`
    residual: float  # norm of the min-norm gradient combination
    iterations: int
    converged: bool  # the value bracket certifies x


def _value(p: Piece, x: Point) -> float:
    """The value of piece p at x: the piece formula, which :func:`_values`
    repeats for a whole pass."""
    a, b, s, beta = p
    return (math.dist(x, a) + math.dist(x, b)) / s + beta


def _values(pieces: Iterable[Piece], x: Point) -> list[float]:
    """The values of all pieces at x, the floats :func:`_value` gives, from
    one comprehension rather than a call per piece."""
    dist = math.dist
    return [(dist(x, a) + dist(x, b)) / s + beta for a, b, s, beta in pieces]


def _derivatives(
    pieces: Iterable[Piece], weights: Iterable[float], total: float, x: Point
) -> tuple[float, float, float, list[tuple[float, float, float, float, float, float]]]:
    """Weighted derivatives at x of the pieces whose weight exceeds
    ``_NEGLIGIBLE``, each weight taken over ``total``: the weighted gradient
    (gx, gy), the weighted radius of the balls of subgradients that foci at x
    add, and per piece its weight q, gradient and Hessian
    (q, gx, gy, hxx, hxy, hyy).  At a focus the other term alone is a valid
    subgradient, and the focus adds a ball of radius 1/s.  The one copy of
    the derivative formulas."""
    x0, x1 = x
    hypot = math.hypot
    gx = gy = ball = 0.0
    terms = []
    for (a, b, s, _), w in zip(pieces, weights):
        if w <= _NEGLIGIBLE:
            continue
        px = py = hxx = hxy = hyy = foci = 0.0
        for c in (a, b):
            dx, dy = x0 - c[0], x1 - c[1]
            d = hypot(dx, dy)
            if d > 1e-15:
                ux, uy = dx / d, dy / d
                px += ux
                py += uy
                hxx += (1.0 - ux * ux) / d
                hxy -= ux * uy / d
                hyy += (1.0 - uy * uy) / d
            else:
                foci += 1.0
        q = w / total
        px, py = px / s, py / s
        gx += q * px
        gy += q * py
        ball += q * (foci / s)
        terms.append((q, px, py, hxx / s, hxy / s, hyy / s))
    return gx, gy, ball, terms


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


def min_norm_point(
    vectors: Sequence[Point], values: Sequence[float], axis: float
) -> tuple[tuple[float, ...], float, float]:
    """Closest point to the origin in the convex hull of the gradients
    ``vectors`` of pieces worth ``values``, and the lower end of the value
    bracket that it gives (module docstring).

    Exhausts supports of size 1, 2 and 3 (sufficient in the plane) and
    returns (convex coefficients mu over the inputs, norm of the point,
    lower end ``sum mu_i values_i - norm * axis``).  Candidates whose norm is
    within rounding (``_ROUNDING`` times the longest vector) of the smallest
    are tied; among them the one with the fewest indices wins, then the
    highest lower end, then the nearer.  So on a symmetric tie a triangle
    with a weight at rounding level does not displace the exact segment,
    and of two triangles equally near the origin the one that puts less
    weight on a piece below the max wins.  Two exact segments through one
    vertex, as on a regular polygon, tie up to the rounding of the values,
    which then decides, and the first in index order only where that ties.
    """
    if not vectors:
        raise ValueError("min_norm_point needs at least one vector")
    singletons = (((i,), (1.0,), v) for i, v in enumerate(vectors))
    candidates = [
        (math.hypot(c[2][0], c[2][1]), c)
        for c in itertools.chain(singletons, _hull_candidates(vectors))
    ]
    tie = min(r for r, _ in candidates) + _ROUNDING * max(math.hypot(*v) for v in vectors)
    tied = []
    for r, (indices, weights, _) in candidates:
        if r <= tie:
            lower = left_sum(w * values[i] for i, w in zip(indices, weights)) - r * axis
            tied.append((len(indices), -lower, r, indices, weights))
    _, neg_lower, r, indices, weights = min(tied)
    coeffs = [0.0] * len(vectors)
    for i, w in zip(indices, weights):
        coeffs[i] = w
    return tuple(coeffs), r, -neg_lower


def _floor(pieces: Iterable[Piece]) -> float:
    """The largest of the pieces' minima, ``max_i (|a_i b_i| / s_i + beta_i)``:
    no point has a lower max."""
    return max(dist(a, b) / s + beta for a, b, s, beta in pieces)


def _min_norm(
    pieces: Sequence[Piece], subset: Sequence[int], vals: Sequence[float], f: float, x: Point
) -> tuple[tuple[float, ...], float, float]:
    """``min_norm_point`` over the gradients at x of the pieces of index in
    ``subset``, worth ``vals`` there, with the ellipse axis at level f."""
    _, _, _, terms = _derivatives([pieces[i] for i in subset], [1.0] * len(subset), 1.0, x)
    grads = [(gx, gy) for _, gx, gy, _, _, _ in terms]
    axis = min(s * (f - beta) for _, _, s, beta in pieces)
    return min_norm_point(grads, [vals[i] for i in subset], axis)


def _certificate(
    pieces: Sequence[Piece], x: Point
) -> tuple[float, list[int], tuple[float, ...], float, float, bool]:
    """Evaluate all pieces at x and bracket the minimum of the max (module
    docstring) with the min-norm certificate over the gradients of the
    active pieces, those within ``ACT_REL * max(1, |f|)`` of the max.
    Returns (max, active, coeffs over active, residual, gap UB - LB, whether
    the gap certifies x)."""
    vals = _values(pieces, x)
    f = max(vals)
    tol = ACT_REL * max(1.0, abs(f))
    active = [i for i, v in enumerate(vals) if v >= f - tol]
    coeffs, residual, lower = _min_norm(pieces, active, vals, f, x)
    gap = f - max(_floor(pieces), lower)
    return f, active, coeffs, residual, gap, gap <= GAP_REL * max(1.0, abs(f))


def _early_supports(
    pieces: Sequence[Piece], x: Point, band: float
) -> Iterator[tuple[list[Piece], float]]:
    """The supports the early finish tries at x, in order (module
    docstring), each as (pieces, mu) for :func:`_support_vertex`; the
    ``_NEAR_MAX`` highest pieces within ``band`` of the max, of equal
    values the first, are those it searches."""
    vals = _values(pieces, x)
    f = max(vals)
    ranked = sorted(range(len(vals)), key=vals.__getitem__, reverse=True)
    near = [i for i in ranked[:_NEAR_MAX] if vals[i] >= f - band]
    coeffs, _, _ = _min_norm(pieces, near, vals, f, x)
    first = [(i, c) for i, c in zip(near, coeffs) if c > 0.0]
    support = tuple(i for i, _ in first)
    yield [pieces[i] for i in support], first[0][1]
    for sub in itertools.chain(itertools.combinations(near, 3), itertools.combinations(near, 2)):
        if sub != support:
            coeffs, _, _ = _min_norm(pieces, sub, vals, f, x)
            yield [pieces[i] for i in sub], coeffs[0]


def _direction(
    pieces: Sequence[Piece], weights: Sequence[float], total: float, x: Point, tau: float
) -> tuple[float, float, float] | None:
    """Descent step (sx, sy) for phi_tau at x and the directional derivative
    along it, or None where x is a focus at which phi_tau is stationary.
    ``total`` is the sum of ``weights``.

    The Newton step of the smoothed Hessian
    ``sum p_i H_i + (sum p_i g_i g_i^T - grad grad^T) / tau`` is taken where
    that Hessian is positive definite and the step descends, otherwise the
    steepest descent step.  Pieces whose weight vanishes against the top one
    are skipped.
    """
    gx, gy, ball, terms = _derivatives(pieces, weights, total, x)
    if math.hypot(gx, gy) <= ball:
        return None
    hxx = hxy = hyy = 0.0
    for q, dgx, dgy, dxx, dxy, dyy in terms:
        dx, dy = dgx - gx, dgy - gy
        hxx += q * (dxx + dx * dx / tau)
        hxy += q * (dxy + dx * dy / tau)
        hyy += q * (dyy + dy * dy / tau)
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


def _support_vertex(support: Sequence[Piece], mu: float, x: Point) -> Point | None:
    """The end point of ``_FINISH_STEPS`` Newton steps from x on the
    optimality system of the pieces ``support``, or None where the support
    has neither 2 nor 3 pieces, the system is singular or the point leaves
    the floats.  Three pieces: f_0 = f_1 = f_2, in (x, y).  Two pieces:
    mu g_0 + (1 - mu) g_1 = 0 and f_0 = f_1, in (x, y, mu), from the weight
    ``mu`` of piece 0."""
    if len(support) not in (2, 3):
        return None
    for _ in range(_FINISH_STEPS):
        _, _, _, terms = _derivatives(support, (1.0,) * len(support), 1.0, x)
        (_, gx0, gy0, axx, axy, ayy), (_, gx1, gy1, bxx, bxy, byy), *third = terms
        f0 = _value(support[0], x)
        # The row of f_0 - f_1: its gradient (p, q) and its value w.
        p, q, w = gx0 - gx1, gy0 - gy1, f0 - _value(support[1], x)
        if third:
            [(_, gx2, gy2, _, _, _)] = third
            r, s, v = gx0 - gx2, gy0 - gy2, f0 - _value(support[2], x)
            det = p * s - q * r
            if det == 0.0:
                return None
            sx, sy = (q * v - s * w) / det, (r * w - p * v) / det
        else:
            # [[a, b, p], [b, c, q], [p, q, 0]] (sx, sy, smu) = -(u, v, w),
            # with the mu-weighted Hessian and gradient, by Cramer's rule.
            nu = 1.0 - mu
            a, b, c = mu * axx + nu * bxx, mu * axy + nu * bxy, mu * ayy + nu * byy
            u, v = mu * gx0 + nu * gx1, mu * gy0 + nu * gy1
            det = 2.0 * b * p * q - a * q * q - c * p * p
            if det == 0.0:
                return None
            sx = (u * q * q - b * q * w - p * q * v + c * p * w) / det
            sy = (a * q * w - u * p * q - p * b * w + v * p * p) / det
            mu += (a * (v * q - c * w) - b * (v * p - b * w) + u * (c * p - b * q)) / det
        x = (x[0] + sx, x[1] + sy)
        if not (math.isfinite(x[0]) and math.isfinite(x[1])):
            return None
    return x


def minimize_max(pieces: Sequence[Piece], x0: Point) -> MinimaxResult:
    """Minimize max_i f_i over the plane; ``converged`` is the value
    bracket's verdict at the result (module docstring).

    Reaching the pieces' floor, ``max_i min f_i``, up to rounding stops the
    search: no point is lower.  The bracket's lower end is at least the
    floor, so that covers minima pinned at piece singularities, such as a
    duplicated point, where no gradient combination cancels.
    """
    if not pieces:
        raise ValueError("minimize_max needs at least one piece")

    def smoothed(y: Point, tau: float) -> tuple[float, float, list[float], float]:
        """(phi_tau, max f, the pieces' unnormalized softmax weights, the
        weights' sum) at y."""
        nonlocal iterations
        iterations += 1
        vals = _values(pieces, y)
        top = max(vals)
        weights = [math.exp((v - top) / tau) for v in vals]
        total = left_sum(weights)
        return top + tau * math.log(total), top, weights, total

    x = x0
    f = max(_values(pieces, x))
    iterations = 1
    unit = max(1.0, abs(f))
    # Reaching the floor, up to rounding, ends the search.
    stop = _floor(pieces) + _ROUNDING * unit
    for stage in range(_STAGES):
        if f <= stop:
            break
        if stage in (_EARLY_STAGE, _FINISH_STAGE):
            if stage == _EARLY_STAGE:
                # tau is still the last stage's.
                supports = _early_supports(pieces, x, _NEAR_TAU * tau)
            else:
                _, active, coeffs, _, _, _ = _certificate(pieces, x)
                support = [(pieces[i], c) for i, c in zip(active, coeffs) if c > 0.0]
                supports = [([p for p, _ in support], support[0][1])]
            iterations += 1
            for support, mu in supports:
                end = _support_vertex(support, mu, x)
                if end is None:
                    continue
                f_end, active, coeffs, residual, gap, certified = _certificate(pieces, end)
                iterations += 1
                if (
                    certified
                    and f_end <= f + _ROUNDING * unit
                    and (stage == _FINISH_STAGE or gap <= 2 * _ROUNDING * max(1.0, abs(f_end)))
                ):
                    return MinimaxResult(
                        end, f_end, tuple(active), tuple(coeffs), residual, iterations, True
                    )
        last = stage == _STAGES - 1
        tau = _TAU_START * unit * 0.1**stage
        phi, f, weights, total = smoothed(x, tau)
        for _ in range(_NEWTON_STEPS):
            direction = _direction(pieces, weights, total, x, tau)
            if direction is None:
                break
            sx, sy, slope = direction
            if not slope < 0.0:
                break  # the slope underflowed to zero: no descent left at this tau
            # Below the rounding level of phi, values cannot judge a step:
            # there the full Newton step, computed from gradients, is taken.
            rounding = -slope <= _ROUNDING * unit
            # After the previous stage phi_tau is within a few tau of its
            # minimum, so a step promising far more starts cut back.
            t = t0 = min(1.0, _LEAP * tau / -slope)
            for _ in range(_HALVINGS):
                y = (x[0] + t * sx, x[1] + t * sy)
                phi_y, f_y, w_y, total_y = smoothed(y, tau)
                if rounding or phi_y <= phi + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                break  # no descent left at this tau
            if t < t0:
                # A step cut short often runs into a focus, a kink the Newton
                # model cannot see; the focus itself may be the better point.
                # The nearest focus of a piece with weight; of foci equally
                # near, the least.
                near = None
                for p, w in zip(pieces, weights):
                    if w > _NEGLIGIBLE:
                        for c in p[:2]:
                            gap_c = (math.hypot(c[0] - y[0], c[1] - y[1]), c)
                            if near is None or gap_c < near:
                                near = gap_c
                gap, c = near
                if gap < t * math.hypot(sx, sy):
                    phi_c, f_c, w_c, total_c = smoothed(c, tau)
                    if phi_c <= phi_y:
                        y, phi_y, f_y, w_y, total_y = c, phi_c, f_c, w_c, total_c
            # Middle stages only seed the next one; the last runs to rounding.
            done = math.hypot(y[0] - x[0], y[1] - x[1]) <= 1e-14 if last else -slope <= 0.1 * tau
            x, phi, f, weights, total = y, phi_y, f_y, w_y, total_y
            if done or f <= stop:
                break

    f, active, coeffs, residual, _, certified = _certificate(pieces, x)
    iterations += 1
    return MinimaxResult(x, f, tuple(active), tuple(coeffs), residual, iterations, certified)
