"""Serializable run reports with lossless JSON round-tripping.

Top-level keys: instance, matching, witness, verdicts, trace.  Values are
plain JSON types; floats survive serialize/parse exactly because Python's
JSON encoder emits shortest round-trip decimals.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .matching import Matching, PointSet

if TYPE_CHECKING:
    from .descent import DescentStep
    from .verify import Verdict
    from .witness import WitnessResult


@dataclass(frozen=True)
class Report:
    instance: dict[str, Any]
    matching: dict[str, Any] | None = None
    witness: dict[str, Any] | None = None
    verdicts: dict[str, Any] = field(default_factory=dict)
    trace: list[dict[str, Any]] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"instance": self.instance, "verdicts": self.verdicts}
        if self.matching is not None:
            out["matching"] = self.matching
        if self.witness is not None:
            out["witness"] = self.witness
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def instance_dict(s: PointSet) -> dict[str, Any]:
    # "generator" and "seed" stay, always null, so every report keeps its bytes
    return {
        "generator": None,
        "seed": None,
        "count": len(s),
        "points": [[x, y] for x, y in s],
    }


def matching_dict(m: Matching) -> dict[str, Any]:
    return {"pairs": [[i, j] for i, j in m.pairs], "cost": m.cost}


def matching_from_dict(data: Any, s: PointSet) -> Matching:
    """Read ``{"pairs": [[i, j], ...]}`` as a matching of s.  Each index must
    be a JSON integer (not a bool) in range; any other shape or value raises
    ValueError, so a malformed file is an input error."""
    if not isinstance(data, dict) or "pairs" not in data:
        raise ValueError('matching: expected a JSON object with a "pairs" key')
    raw = data["pairs"]
    if not isinstance(raw, list):
        raise ValueError('matching: "pairs" must be a list of [i, j] index pairs')
    n = len(s)
    for idx, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(k) is int and 0 <= k < n for k in item)
        ):
            raise ValueError(
                f"matching: pairs[{idx}]: expected [i, j] with integer indices "
                f"in 0..{n - 1}, got {item!r}"
            )
    return Matching.from_pairs(s, raw)


def witness_dict(w: WitnessResult) -> dict[str, Any]:
    return {
        "o_star": [w.o_star[0], w.o_star[1]],
        "lambda_star": w.lambda_star,
        "active": list(w.active),
        "support": list(w.support) if w.support is not None else None,
        "certificate": [[e, c] for e, c in w.certificate],
        "residual": w.residual,
        "iterations": w.iterations,
        "converged": w.converged,
    }


def verdict_dict(v: Verdict) -> dict[str, Any]:
    return {
        "name": v.name,
        "passed": v.passed,
        "margin": v.margin,
        "tolerance": v.tolerance,
        "details": v.details,
    }


def trace_list(steps: Sequence[DescentStep]) -> list[dict[str, Any]]:
    return [
        {"lambda_star": st.lambda_star, "cost": st.cost, "cycle_length": st.cycle_length}
        for st in steps
    ]
