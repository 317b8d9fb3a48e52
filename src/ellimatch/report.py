"""The package's one JSON writer; :mod:`instances` reads input files back.

:func:`dumps` writes every JSON byte the package emits: reports, ``solve``
and ``suite`` output, and point files.  A :class:`~geom.Record` is written
as the object of its fields and a tuple as a list, with sorted keys and a
two-space indent.  Floats are shortest round-trip decimals, so they read
back bit for bit.  Any other object raises TypeError, so nothing is
written by accident, and a NaN or an infinity raises ValueError: the
output is strict JSON, which every reader accepts.

The writer here owns those bytes.  They are the bytes of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
default=_fields)``, which the tests use as the oracle, but json is not
used to write them: on Python 3.10 to 3.13, any ``indent`` makes json
skip its C encoder and run a chain of pure-Python generators, which took
twice as long as this writer on a 200-point report.  Only json's C string
escaper is borrowed, from ``_json``, so that writing loads neither json nor
the ``re`` and ``enum`` that json imports.

A :class:`Report` holds the records of one run and writes the top-level
keys instance, matching, witness, verdicts and trace.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _string
from math import isfinite

from .geom import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence
    from typing import Any

    from .descent import DescentStep
    from .matching import Matching, PointSet
    from .witness import WitnessResult


def _fields(obj: object) -> dict[str, object]:
    if isinstance(obj, Record):
        return vars(obj)  # a record's __dict__ holds exactly its fields
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def dumps(obj: object) -> str:
    """``obj`` as strict JSON, records as their fields, keys sorted."""
    return _write(obj, "\n")


def _float(x: float) -> str:
    if not isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


# Writers of the values that hold no other value, by exact type.
_SCALARS = {
    str: _string,
    float: _float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_NUMBERS = {int, float}
_SEQUENCES = {list, tuple}


def _write(obj: object, nl: str) -> str:
    """obj as JSON; ``nl`` is the newline and indent of obj's own line, and
    nested lines are indented two spaces further.  The JSON types are told
    apart by exact type: anything else, a subclass of one of them too, must
    be a record."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = nl + "  "
    sep = "," + inner
    if type(obj) in _SEQUENCES:
        if not obj:
            return "[]"
        body = _pairs(obj, inner, sep)
        if body is None:
            body = sep.join([_write(v, inner) for v in obj])
        return "[" + inner + body + nl + "]"
    if type(obj) is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise TypeError("JSON object keys must be str")
        return "{" + inner + sep.join([_string(k) + ": " + _write(obj[k], inner) for k in sorted(obj)]) + nl + "}"
    return _write(_fields(obj), nl)


def _checked(text: str, numbers: Iterable[object]) -> str:
    """text, which holds the reprs of the ints and floats ``numbers``; a
    number that is not finite raises ValueError.  The repr of a finite
    number has no letter n, and those of nan, inf and -inf do."""
    if "n" in text:
        for x in numbers:
            if type(x) is float:
                _float(x)
    return text


def _pairs(items: Sequence[object], inner: str, sep: str) -> str | None:
    """The body of a list of 2-item lists of ints and floats, or None."""
    if not set(map(type, items)) <= _SEQUENCES or set(map(len, items)) != {2}:
        return None
    flat = [x for pair in items for x in pair]
    if not set(map(type, flat)) <= _NUMBERS:
        return None
    nested = inner + "  "
    pair = "[" + nested + "%r," + nested + "%r" + inner + "]"
    return _checked(sep.join([pair % (a, b) for a, b in items]), flat)


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
