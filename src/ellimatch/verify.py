"""Theorem-level verdicts: per-edge witness bound, max-matching minimax bound,
triple-restricted (Helly) consistency, the Steiner-star bound, and the
edge-diameter disk intersection check.

The checks judge the matching and witness they are handed and solve neither;
the caller picks the matching.  Every verdict reports a signed margin
(positive = satisfied) so tightness can be analyzed, not just pass/fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

from .config import theorem_tol
from .geom import EPS_GEO, RATIO_BOUND, Frame, Point, DegenerateEdgeError, dist
from .matching import Matching, PointSet, validate_pairs
from .minimax import Piece
from .witness import WitnessResult, minimize_h_over_edges, solve_in_frame, steiner_star


@dataclass(frozen=True)
class Verdict:
    """Named check outcome; ``passed`` holds exactly when
    ``margin >= -tolerance``."""

    name: str
    passed: bool
    margin: float
    tolerance: float
    details: dict[str, Any]


def check_fingerhut(
    s: PointSet, m: Matching, o: Point, *, tol: float | None = None
) -> Verdict:
    """Per-edge bound at a candidate witness: every matched edge ab must
    satisfy |a-o| + |b-o| <= (2/sqrt(3)) |a-b|.

    Margin is the smallest absolute slack over the edges; the tolerance is
    relative to the longest edge so the verdict is scale-free.
    """
    tol = theorem_tol(tol)
    validate_pairs(s, m.pairs)
    slacks = []
    max_len = 0.0
    zero = EPS_GEO * Frame.of(s.points).scale
    for i, j in m.pairs:
        a, b = s[i], s[j]
        d = dist(a, b)
        if d <= zero:
            raise DegenerateEdgeError(f"zero-length edge between indices {i} and {j}")
        max_len = max(max_len, d)
        slacks.append(RATIO_BOUND * d - (dist(a, o) + dist(b, o)))
    margin = min(slacks)
    tolerance = tol * max_len
    return Verdict(
        name="fingerhut",
        passed=margin >= -tolerance,
        margin=margin,
        tolerance=tolerance,
        details={"edge_slacks": slacks, "witness": [o[0], o[1]]},
    )


def check_theorem(m: Matching, w: WitnessResult, *, tol: float | None = None) -> Verdict:
    """Max-sum matching minimax bound: given the max-sum matching ``m`` and
    its witness ``w``, require lambda* <= 2/sqrt(3) + tol."""
    tol = theorem_tol(tol)
    # lambda_star is a genuine function value, so the margin test is sound
    # even for a non-converged solve (it can only under-report the slack);
    # callers escalate non-convergence separately via details["converged"].
    margin = RATIO_BOUND - w.lambda_star
    return Verdict(
        name="theorem",
        passed=margin >= -tol,
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
    s: PointSet, m: Matching, w: WitnessResult, *, tol: float | None = None
) -> Verdict:
    """Consistency of triple-restricted minimax verdicts with the global one,
    ``w`` being the witness of all of ``m``.

    A common point of all ratio ellipses exists iff the restricted minimax
    value stays at or below 2/sqrt(3); by Helly's theorem in the plane, the
    all-triples verdict and the global verdict must agree.  Margin is the
    distance of the decisive value to the threshold, negated on discordance.
    """
    tol = theorem_tol(tol)
    validate_pairs(s, m.pairs)
    n_edges = len(m.pairs)
    r = min(3, n_edges)
    threshold = RATIO_BOUND + tol

    global_ok = w.lambda_star <= threshold

    rows = []
    worst = -math.inf
    discordant = []
    converged = w.converged
    for combo in itertools.combinations(range(n_edges), r):
        sub = minimize_h_over_edges(s, [m.pairs[e] for e in combo])
        converged &= sub.converged
        triple_ok = sub.lambda_star <= threshold
        worst = max(worst, sub.lambda_star)
        rows.append({"edges": list(combo), "lambda": sub.lambda_star, "ok": triple_ok})
        if triple_ok != global_ok:
            discordant.append(list(combo))
    all_ok = all(row["ok"] for row in rows)

    consistent = all_ok == global_ok
    if consistent:
        margin = min(abs(threshold - w.lambda_star), abs(threshold - worst))
    else:
        margin = -min(w.lambda_star - threshold, threshold - worst)
    return Verdict(
        name="helly",
        passed=consistent,
        margin=margin,
        tolerance=0.0,
        details={
            "lambda_star": w.lambda_star,
            "worst_triple_lambda": worst,
            "triples": rows,
            "discordant": discordant,
            "converged": converged,
        },
    )


def check_suri(s: PointSet, m: Matching, *, tol: float | None = None) -> Verdict:
    """Steiner-star bound: the geometric-median objective t(S) must not
    exceed (2/sqrt(3)) times the cost of the max-sum matching ``m``; the
    tolerance is relative to that cost."""
    tol = theorem_tol(tol)
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

    res, frame, _ = solve_in_frame(s, m.pairs, disk_slack)
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


CHECK_NAMES = ("fingerhut", "theorem", "helly", "suri", "disks")
