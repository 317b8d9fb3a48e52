"""Deterministic instance generation and point-file round-tripping."""

from __future__ import annotations

import math
import os
import random
from .geom import Record
from .matching import PointSet
from .report import dumps, short_repr

GENERATORS = ("uniform-square", "gaussian", "clustered", "doubled-polygon")

_CLUSTER_SIGMA = 0.05


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


def load_points(path: str | os.PathLike[str]) -> PointSet:
    """Read a point file written by :func:`save_points`, JSON when the suffix
    is ``.json`` and CSV otherwise; the count must be even."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    pts = _parse_json(text) if _is_json(path) else _parse_csv(text)
    if not pts:
        raise PointParseError(f"{path}: no points found")
    if len(pts) % 2:
        raise OddCountError(f"{path}: odd number of points ({len(pts)})")
    return PointSet.of(pts)


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


def _finite_number(c: object) -> bool:
    """Whether a JSON value is a number, not a boolean, in float range."""
    try:
        return type(c) in (int, float) and math.isfinite(c)
    except OverflowError:  # an integer beyond float range
        return False


def _parse_json(text: str) -> list[tuple[float, float]]:
    import json  # here, so that a command on a CSV file starts without it

    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PointParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise PointParseError(f"invalid JSON: {e}") from None
    except RecursionError:  # arrays or objects nested past the decoder's limit
        raise PointParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "points" not in data:
        raise PointParseError('expected a JSON object with a "points" key')
    raw = data["points"]
    if not isinstance(raw, list):
        raise PointParseError('"points" must be a list of [x, y] pairs')
    pts = []
    for idx, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(_finite_number(c) for c in item)
        ):
            raise PointParseError(
                f"points[{idx}]: expected a finite [x, y] pair, got {short_repr(item)}"
            )
        pts.append((float(item[0]), float(item[1])))
    return pts
