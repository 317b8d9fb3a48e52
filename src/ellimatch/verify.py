"""Theorem-level verdicts: per-edge witness bound, max-matching minimax bound,
Helly consistency on the witness's certificate edges, the Steiner-star bound,
and the edge-diameter disk intersection check.

The checks judge the matching and witness they are handed and solve neither;
the caller picks the matching.  The Helly check needs no sweep over edge
triples: Helly's theorem puts the global minimax value on some triple, the
witness's certificate names it, and the value of those edges bounds the
global value from below while the witness's own value bounds it from above.
That value comes from one certificate of the edges at the witness, and from
a solve of them only when that certificate declines.
Every verdict reports a signed margin (positive = satisfied) so tightness
can be analyzed, not just pass/fail.  ``tol`` is the slack on the ratio
bound, ``DEFAULT_THEOREM_TOL`` unless the caller passes one.
"""

from __future__ import annotations

from .geom import (
    DEFAULT_THEOREM_TOL,
    EPS_GEO,
    RATIO_BOUND,
    Frame,
    Point,
    Record,
    dist,
    edge_lengths,
    within_bound,
)
from .matching import Matching, PointSet, validate_pairs
from .minimax import Piece
from .witness import (
    WitnessResult,
    certificate_over_edges,
    minimize_h_over_edges,
    solve_in_frame,
    steiner_star,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


class Verdict(Record):
    """Named check outcome; ``passed`` holds exactly when
    ``margin >= -tolerance``."""

    name: str
    passed: bool
    margin: float
    tolerance: float
    details: dict[str, Any]


def check_fingerhut(
    s: PointSet, m: Matching, o: Point, *, tol: float = DEFAULT_THEOREM_TOL
) -> Verdict:
    """Per-edge bound at a candidate witness: every matched edge ab must
    satisfy |a-o| + |b-o| <= (2/sqrt(3)) |a-b|.

    Margin is the smallest absolute slack over the edges; the tolerance is
    relative to the longest edge so the verdict is scale-free.
    """
    validate_pairs(s, m.pairs)
    lengths = edge_lengths(s.points, m.pairs, Frame.of(s.points).scale)
    slacks = [
        RATIO_BOUND * d - (dist(s[i], o) + dist(s[j], o))
        for (i, j), d in zip(m.pairs, lengths)
    ]
    margin = min(slacks)
    tolerance = tol * max(lengths)
    return Verdict(
        name="fingerhut",
        passed=margin >= -tolerance,
        margin=margin,
        tolerance=tolerance,
        details={"edge_slacks": slacks, "witness": [o[0], o[1]]},
    )


def check_theorem(
    m: Matching, w: WitnessResult, *, tol: float = DEFAULT_THEOREM_TOL
) -> Verdict:
    """Max-sum matching minimax bound: given the max-sum matching ``m`` and
    its witness ``w``, require lambda* <= 2/sqrt(3) + tol."""
    # lambda_star is a genuine function value, so the margin test is sound
    # even for a non-converged solve (it can only under-report the slack);
    # callers escalate non-convergence separately via details["converged"].
    margin = RATIO_BOUND - w.lambda_star
    return Verdict(
        name="theorem",
        passed=within_bound(w.lambda_star, tol),
        margin=margin,
        tolerance=tol,
        details={
            "lambda_star": w.lambda_star,
            "cost": m.cost,
            "converged": w.converged,
            "residual": w.residual,
            "witness": [w.o_star[0], w.o_star[1]],
        },
    )


def check_helly_triples(
    s: PointSet, m: Matching, w: WitnessResult, *, tol: float = DEFAULT_THEOREM_TOL
) -> Verdict:
    """Consistency of the support-restricted minimax verdict with the global
    one, ``w`` being the witness of all of ``m``.

    A common point of all ratio ellipses exists iff the minimax value stays
    at or below 2/sqrt(3).  By Helly's theorem in the plane the global value
    equals the largest value over 3-edge subsets, and the subset that
    carries the witness's optimality certificate attains it: the gradients
    of its edges have 0 in their convex hull at o*, so o* also minimizes
    their maximum.  lambda* = max_i f_i(o*) is a genuine value, an upper
    bound on every subset's value; lambda*(T) of the certificate edges T
    (at most 3, those with positive weight) is a lower bound on the global
    value.  Both must fall on the same side of the threshold, so T alone
    decides what a sweep over all triples would.

    lambda*(T) is read off the value bracket of T's own pieces, in their
    own frame, at o* (:func:`~ellimatch.witness.certificate_over_edges`):
    when it certifies o*, its max is lambda*(T), within the bracket's width
    as a solve's value is.  The bracket recomputes
    T's values and gradients, so this proves the value rather than trusting
    the witness.  Only when it declines are T's edges solved from scratch.
    Margin is the distance of the nearer value to the threshold, negated on
    discordance.
    """
    validate_pairs(s, m.pairs)
    threshold = RATIO_BOUND + tol
    support = [e for e, mu in w.certificate if mu > 0.0]
    pairs = [m.pairs[e] for e in support]
    cert = certificate_over_edges(s, pairs, w.o_star)
    if cert.ok:
        sub_lambda, sub_converged = cert.lambda_at, True
    else:
        sub = minimize_h_over_edges(s, pairs)
        sub_lambda, sub_converged = sub.lambda_star, sub.converged
    consistent = within_bound(w.lambda_star, tol) == within_bound(sub_lambda, tol)
    margin = min(abs(threshold - w.lambda_star), abs(threshold - sub_lambda))
    return Verdict(
        name="helly",
        passed=consistent,
        margin=margin if consistent else -margin,
        tolerance=0.0,
        details={
            "lambda_star": w.lambda_star,
            "support": support,
            "support_lambda": sub_lambda,
            "converged": w.converged and sub_converged,
        },
    )


def check_suri(
    s: PointSet, m: Matching, *, tol: float = DEFAULT_THEOREM_TOL
) -> Verdict:
    """Steiner-star bound: the geometric-median objective t(S) must not
    exceed (2/sqrt(3)) times the cost of the max-sum matching ``m``; the
    tolerance is relative to that cost."""
    center, t, converged = steiner_star(s)
    margin = RATIO_BOUND * m.cost - t
    tolerance = tol * m.cost
    return Verdict(
        name="suri",
        passed=margin >= -tolerance,
        margin=margin,
        tolerance=tolerance,
        details={
            "steiner_total": t,
            "matching_cost": m.cost,
            "center": [center[0], center[1]],
            "converged": converged,
        },
    )


def check_tverberg_disks(s: PointSet, m: Matching) -> Verdict:
    """Common point of the closed disks whose diameters are the matched
    edges: minimize the worst disk slack max_i (|x - c_i| - r_i), which is
    convex, with the same minimax machinery as the witness solver."""
    validate_pairs(s, m.pairs)

    def disk_slack(a: Point, b: Point, d: float) -> Piece:
        c = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        return (c, c, 2.0, -d / 2.0)

    res, frame = solve_in_frame(s, m.pairs, disk_slack)
    point = frame.back(res.x)
    return Verdict(
        name="disks",
        passed=res.value <= EPS_GEO,
        margin=-res.value * frame.scale,
        tolerance=EPS_GEO * frame.scale,
        details={
            "point": [point[0], point[1]],
            "worst_slack": res.value * frame.scale,
            "converged": res.converged,
        },
    )
