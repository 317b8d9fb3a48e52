"""The package's JSON format, and its one writer.

:func:`dumps` writes every JSON byte the package emits: reports, ``solve``
and ``suite`` output, and point files.  A :class:`~geom.Record` is written
as the object of its fields and a tuple as a list, with sorted keys and a
two-space indent.  Floats are shortest round-trip decimals, so they read
back bit for bit.  Any other object raises TypeError, so nothing is
written by accident, and a NaN or an infinity raises ValueError: the
output is strict JSON, which every reader accepts.

A :class:`Report` holds the records of one run and writes the top-level
keys instance, matching, witness, verdicts and trace.
"""

from __future__ import annotations

import json

from .geom import Record
from .matching import Matching, PointSet

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .descent import DescentStep
    from .witness import WitnessResult


def _fields(obj: object) -> dict[str, object]:
    if isinstance(obj, Record):
        return vars(obj)  # a record's __dict__ holds exactly its fields
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def dumps(obj: object) -> str:
    """``obj`` as strict JSON, records as their fields, keys sorted."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_fields)


class Report(Record):
    """The records of one run, written by :meth:`to_json`."""

    instance: PointSet
    matching: Matching | None = None
    witness: WitnessResult | None = None
    # Verdicts by name.  None stands for a fresh {} per report, set by
    # __post_init__
    verdicts: dict[str, Any] = None  # type: ignore[assignment]
    trace: tuple[DescentStep, ...] | None = None

    def __post_init__(self) -> None:
        if self.verdicts is None:
            object.__setattr__(self, "verdicts", {})

    def to_dict(self) -> dict[str, Any]:
        s = self.instance
        # "generator" and "seed" stay, always null, so every report keeps its bytes
        instance = {"generator": None, "seed": None, "count": len(s), "points": s.points}
        out: dict[str, Any] = {"instance": instance, "verdicts": self.verdicts}
        if self.matching is not None:
            out["matching"] = self.matching
        if self.witness is not None:
            out["witness"] = self.witness
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def to_json(self) -> str:
        return dumps(self.to_dict())


def matching_from_dict(data: Any, s: PointSet) -> Matching:
    """Read ``{"pairs": [[i, j], ...]}`` as a matching of s.  Each index must
    be a JSON integer (not a bool) in range; any other shape or value raises
    ValueError, so a malformed file is an input error."""
    if not isinstance(data, dict) or "pairs" not in data:
        raise ValueError('expected a JSON object with a "pairs" key')
    raw = data["pairs"]
    if not isinstance(raw, list):
        raise ValueError('"pairs" must be a list of [i, j] index pairs')
    n = len(s)
    for idx, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(k) is int and 0 <= k < n for k in item)
        ):
            raise ValueError(
                f"pairs[{idx}]: expected [i, j] with integer indices "
                f"in 0..{n - 1}, got {item!r}"
            )
    return Matching.from_pairs(s, raw)
