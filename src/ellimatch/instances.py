"""Deterministic instances, and the one reader of input files.

Point files and matching files are read here.  One helper,
:func:`_json_pairs`, decodes and checks a JSON file of either kind, and a
UTF-8 byte-order mark at the start of a file is dropped.  Nesting deeper
than ``_JSON_MAX_DEPTH`` is refused before the file is decoded, so the
verdict on a deep file does not depend on the interpreter or on the
caller's stack."""

from __future__ import annotations

import math
import os
import random
from itertools import accumulate
from .geom import Record
from .matching import Matching, PointSet
from .report import dumps

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

GENERATORS = ("uniform-square", "gaussian", "clustered", "doubled-polygon")

_CLUSTER_SIGMA = 0.05

# The deepest JSON nesting an input file may use: a report's matching needs
# 4 levels, and every supported interpreter decodes well past this from any
# reasonable stack depth.
_JSON_MAX_DEPTH = 500
# Every byte but the four brackets, and each bracket's step in depth.
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))
_BRACKET_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


class PointParseError(ValueError):
    """A point file could not be parsed; the message carries the position."""


class OddCountError(ValueError):
    """A point file holds an odd number of points."""


class InstanceSpec(Record):
    """Recipe for a deterministic instance: same spec, same points."""

    generator: str
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; expected one of {GENERATORS}"
            )
        if self.count < 2 or self.count % 2:
            raise ValueError(f"count must be even and >= 2, got {self.count}")
        if self.generator == "doubled-polygon" and self.count < 6:
            raise ValueError("doubled-polygon needs count >= 6 (a k >= 3 polygon)")


def generate(spec: InstanceSpec) -> PointSet:
    rng = random.Random(spec.seed)
    if spec.generator == "uniform-square":
        pts = [(rng.random(), rng.random()) for _ in range(spec.count)]
    elif spec.generator == "gaussian":
        pts = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(spec.count)]
    elif spec.generator == "clustered":
        k = max(1, spec.count // 4)
        centers = [(rng.random(), rng.random()) for _ in range(k)]
        pts = []
        for _ in range(spec.count):
            cx, cy = centers[rng.randrange(k)]
            pts.append((cx + rng.gauss(0.0, _CLUSTER_SIGMA), cy + rng.gauss(0.0, _CLUSTER_SIGMA)))
    else:  # doubled-polygon: regular k-gon with unit sides, every vertex twice
        k = spec.count // 2
        radius = 0.5 / math.sin(math.pi / k)
        pts = []
        for i in range(k):
            angle = 2.0 * math.pi * i / k
            v = (radius * math.cos(angle), radius * math.sin(angle))
            pts.extend((v, v))
    return PointSet.of(pts)


def _is_json(path: str | os.PathLike[str]) -> bool:
    return os.path.splitext(path)[1].lower() == ".json"


def save_points(s: PointSet, path: str | os.PathLike[str]) -> None:
    """Write points as JSON ({"points": [[x, y], ...]}) when the suffix is
    ``.json``, else as CSV ("x,y" per line), the format
    :func:`load_points` reads back by the same rule.

    Floats are printed with their shortest round-trip representation, so
    ``load_points(save_points(s)) == s`` bit for bit.
    """
    if _is_json(path):
        body = dumps(s) + "\n"  # {"points": [[x, y], ...]}
        newline = None
    else:
        body = "".join(f"{x!r},{y!r}\n" for x, y in s)
        newline = "\n"
    with open(path, "w", encoding="utf-8", newline=newline) as f:
        f.write(body)


def _read(path: str | os.PathLike[str]) -> str:
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def load_points(path: str | os.PathLike[str]) -> PointSet:
    """Read a point file written by :func:`save_points`, JSON when the suffix
    is ``.json`` and CSV otherwise; the count must be even.  Every parse
    error names the file first, as the matching reader's do."""
    try:
        text = _read(path)
        if _is_json(path):
            raw = _json_pairs(text, "points", "[x, y]", _finite_pair, "a finite [x, y] pair")
            pts = [(float(x), float(y)) for x, y in raw]
        else:
            pts = _parse_csv(text)
    except (PointParseError, UnicodeDecodeError) as e:
        raise PointParseError(f"{path}: {e}") from None
    if not pts:
        raise PointParseError(f"{path}: no points found")
    if len(pts) % 2:
        raise OddCountError(f"{path}: odd number of points ({len(pts)})")
    return PointSet.of(pts)


def load_matching(path: str | os.PathLike[str], s: PointSet) -> Matching:
    """Read ``{"pairs": [[i, j], ...]}``, bare or a report's "matching", as a
    matching of s; each index is a JSON integer (not a bool) in range.  Any
    other file, or one that cannot be read, raises ValueError naming it."""
    n = len(s)
    try:
        pairs = _json_pairs(
            _read(path),
            "pairs",
            "[i, j] index",
            lambda i, j: type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n,
            f"[i, j] with integer indices in 0..{n - 1}",
        )
        return Matching.from_pairs(s, pairs)
    except (OSError, ValueError) as e:
        raise ValueError(f"matching: {path}: {e}") from None


def _parse_csv(text: str) -> list[tuple[float, float]]:
    pts = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise PointParseError(f"line {lineno}: expected 'x,y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise PointParseError(f"line {lineno}: non-numeric coordinate in {raw!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PointParseError(f"line {lineno}: non-finite coordinate in {raw!r}")
        pts.append((x, y))
    return pts


def _finite_pair(x: object, y: object) -> bool:
    """Whether two JSON values are numbers, not booleans, in float range."""
    try:
        return {type(x), type(y)} <= {int, float} and math.isfinite(x) and math.isfinite(y)
    except OverflowError:  # an integer beyond float range
        return False


def short_repr(item: object) -> str:
    """``repr(item)`` cut after 50 characters, for an input error's line."""
    text = repr(item)
    return text if len(text) <= 50 else text[:50] + "..."


def _json_pairs(
    text: str, key: str, shape: str, check: Callable[[object, object], bool], expected: str
) -> list[list[object]]:
    """The list under ``key`` of the JSON object in text (a report's
    "matching" for the key "pairs"), each item a list [a, b] with ``check(a,
    b)``.  Anything else raises PointParseError: the syntax error's place,
    or the bad item in short."""
    import json  # here, so that a command on a CSV file starts without it

    if _nested_too_deeply(text):
        raise PointParseError("invalid JSON: nested too deeply")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PointParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise PointParseError(f"invalid JSON: {e}") from None
    except RecursionError:  # a caller's stack that leaves no room for the decoder
        raise PointParseError("invalid JSON: nested too deeply") from None
    if key == "pairs" and isinstance(data, dict) and "matching" in data:
        data = data["matching"]
    if not isinstance(data, dict) or key not in data:
        raise PointParseError(f'expected a JSON object with a "{key}" key')
    raw = data[key]
    if not isinstance(raw, list):
        raise PointParseError(f'"{key}" must be a list of {shape} pairs')
    for idx, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2 or not check(*item):
            raise PointParseError(f"{key}[{idx}]: expected {expected}, got {short_repr(item)}")
    return raw


def _nested_too_deeply(text: str) -> bool:
    """Whether brackets outside JSON strings open deeper than
    ``_JSON_MAX_DEPTH`` anywhere in text.  Each step is a C-level string
    operation, and a text with no more opening brackets than the limit (a
    matching of up to about 500 pairs) needs only the two counts."""
    if text.count("[") + text.count("{") <= _JSON_MAX_DEPTH:
        return False
    if "\\" in text:
        # Drop escaped backslashes, then escaped quotes: every '"' left
        # bounds a string.
        text = text.replace("\\\\", "").replace('\\"', "")
    outside = "".join(text.split('"')[::2])  # the text between strings
    brackets = outside.encode("utf-8", "surrogatepass").translate(None, _NOT_BRACKETS)
    return max(accumulate(map(_BRACKET_STEP.__getitem__, brackets)), default=0) > _JSON_MAX_DEPTH
