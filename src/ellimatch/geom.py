"""Planar primitives for distance-sum ratio analysis.

Points are plain ``(x, y)`` tuples and every function is pure.  ``dist`` is
:func:`math.dist`, which rounds exactly like ``math.hypot(a[0] - b[0],
a[1] - b[1])``, and a vector's length is ``math.hypot(*v)``.  Absolute
tolerances (``EPS_GEO``) are meant for unit-scale data: every solver maps its
points into the unit-square :class:`Frame` before relying on them.
:class:`Record` is the base of every result and value type of the package.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from math import dist

Point = tuple[float, float]

# Absolute comparison tolerance at unit scale.
EPS_GEO = 1e-9

# The minimax distance-sum ratio bound 2/sqrt(3), attained exactly by the
# doubled equilateral triangle.
RATIO_BOUND = 2.0 / math.sqrt(3.0)

# Default slack accepted on RATIO_BOUND by the theorem-level checks.
DEFAULT_THEOREM_TOL = 1e-6


def within_bound(lam: float, tol: float) -> bool:
    """Whether a minimax ratio lam is within tol of RATIO_BOUND: the one test
    behind the descent's stop rule and the ratio verdicts."""
    return RATIO_BOUND - lam >= -tol


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a :class:`Record`."""


class Record:
    """Immutable value with named fields, which behaves as a frozen dataclass
    does but is built without generating code, so defining one costs no
    compilation at import.

    The fields are the subclass's annotated names, in order, except those
    starting with ``_``; a class attribute of that name is the field's
    default.  Construction is positional or by keyword and ends with
    ``__post_init__``, which may normalize a field with
    ``object.__setattr__``.  Instances are equal when of the same class with
    equal fields, hash their fields, and are copied with :meth:`replace`.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__annotations__ if not n.startswith("_")]
        cls._fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values or name not in names:
                raise TypeError(f"{type(self).__qualname__}: unexpected or repeated field {name!r}")
        values.update(kwargs)
        if len(values) < len(names):
            for name in names:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__qualname__}: missing field {name!r}")
                    values[name] = self._defaults[name]
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple[object, ...]:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def replace(self, **changes: object) -> Record:
        """A copy with the given fields changed, built and normalized anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Frame(Record):
    """Similarity map ``to(p) = (p - offset) / scale`` onto the unit square,
    inverted by ``back``.  The distance-sum ratios do not change under it.
    The frame of an already framed set is the identity."""

    offset: Point
    scale: float

    @classmethod
    def of(cls, points: Sequence[Point]) -> "Frame":
        """Bounding box corner at the origin and its longer side 1."""
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, y0 = min(xs), min(ys)
        scale = max(max(xs) - x0, max(ys) - y0)
        return cls((x0, y0), scale if scale > 0.0 else 1.0)

    def to(self, p: Point) -> Point:
        return ((p[0] - self.offset[0]) / self.scale, (p[1] - self.offset[1]) / self.scale)

    def back(self, q: Point) -> Point:
        return (self.offset[0] + self.scale * q[0], self.offset[1] + self.scale * q[1])


def left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` added strictly left to right, as Python 3.11 and
    earlier add floats.  From 3.12 on, ``sum()`` carries each float term's
    rounding error along, so its totals, and every result computed from
    them, would differ by interpreter version."""
    total = 0
    for v in values:
        total += v
    return total


class DegenerateEdgeError(ValueError):
    """Segment endpoints coincide where a proper edge is required."""


class ZeroVectorError(ValueError):
    """Angle or bisector requested for the zero vector."""


def edge_lengths(
    points: Sequence[Point] | Mapping[int, Point],
    pairs: Sequence[tuple[int, int]],
    scale: float = 1.0,
) -> list[float]:
    """Length of each edge ij of ``points[i]``, ``points[j]``.  An edge no
    longer than ``EPS_GEO * scale``, ``scale`` being the points' frame scale
    (1 for framed points), is degenerate: :class:`DegenerateEdgeError`."""
    lengths = []
    for i, j in pairs:
        d = dist(points[i], points[j])
        if d <= EPS_GEO * scale:
            raise DegenerateEdgeError(f"zero-length edge between indices {i} and {j}")
        lengths.append(d)
    return lengths


def _require_nonzero(v: Point) -> None:
    if v[0] == 0.0 and v[1] == 0.0:
        raise ZeroVectorError("operation undefined for the zero vector")


def angle_undirected(x: Point, y: Point) -> float:
    """Smallest non-negative angle between vectors x and y, in [0, pi]."""
    _require_nonzero(x)
    _require_nonzero(y)
    cross = x[0] * y[1] - x[1] * y[0]
    dot = x[0] * y[0] + x[1] * y[1]
    # atan2 of cross/dot keeps precision near 0 and pi, unlike acos.
    return math.atan2(abs(cross), dot)


def h_ratio(a: Point, b: Point, x: Point) -> float:
    """Distance-sum ratio (|a-x| + |b-x|) / |a-b|.

    Always >= 1; equals 1 exactly when x lies on the segment ab.  Level sets
    are the confocal ellipses with foci a and b.  Any positive length is a
    valid edge, however small: the ratio is scale-free.
    """
    d = dist(a, b)
    if d == 0.0:
        raise DegenerateEdgeError(f"edge endpoints coincide: {a}, {b}")
    return (dist(a, x) + dist(b, x)) / d


def bisector_point(x: Point, y: Point) -> Point:
    """Point on segment xy hit by the bisector of the angle between x and y
    at the origin: (|y| x + |x| y) / (|x| + |y|).

    Antipodal inputs collapse to the origin, where no bisecting ray exists;
    callers must handle that case.
    """
    _require_nonzero(x)
    _require_nonzero(y)
    nx = math.hypot(*x)
    ny = math.hypot(*y)
    s = nx + ny
    return ((ny * x[0] + nx * y[0]) / s, (ny * x[1] + nx * y[1]) / s)


def f_ratio(x: Point, y: Point) -> float:
    """(|x| + |y|) / |x - y|: the distance-sum ratio of segment xy seen from
    the origin.  Strictly decreases when y slides inward along the segment.
    Scale-free: only coincident arguments are rejected."""
    d = dist(x, y)
    if d == 0.0:
        raise DegenerateEdgeError(f"coincident arguments: {x}, {y}")
    return (math.hypot(*x) + math.hypot(*y)) / d


def in_lens(x: Point, y: Point, alpha: float, z: Point) -> bool:
    """Membership in the alpha-lens of segment xy: the two endpoints plus
    every point from which the segment subtends an angle of at least alpha.
    Scale-free: only coincident endpoints are rejected."""
    if not 0.0 < alpha < math.pi:
        raise ValueError(f"alpha must lie in (0, pi), got {alpha}")
    if dist(x, y) == 0.0:
        raise DegenerateEdgeError(f"coincident arguments: {x}, {y}")
    if z == x or z == y:
        return True
    u = (x[0] - z[0], x[1] - z[1])
    v = (y[0] - z[0], y[1] - z[1])
    if (u[0] == 0.0 and u[1] == 0.0) or (v[0] == 0.0 and v[1] == 0.0):
        return True
    return angle_undirected(u, v) >= alpha
