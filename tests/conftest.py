"""Shared instances and helpers for the test suite."""

from __future__ import annotations

import math
import sys

from hypothesis import settings

from ellimatch import Matching, PointSet, h_ratio

# Fixed example sequences and no example database: runs are reproducible and
# leave no .hypothesis/ directory behind.
settings.register_profile("ellimatch", derandomize=True, database=None)
settings.load_profile("ellimatch")

SQRT3 = math.sqrt(3.0)

# Unit square, counterclockwise from the origin.
SQUARE = PointSet.of([(0, 0), (1, 0), (1, 1), (0, 1)])

# Two coinciding unit-side equilateral triangles; the extremal instance where
# the ratio bound 2/sqrt(3) is attained exactly, at the centroid.
TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0)]
DOUBLED_TRIANGLE = PointSet.of([p for p in TRIANGLE for _ in range(2)])
TRIANGLE_CENTROID = (0.5, SQRT3 / 6.0)


def square_sides() -> Matching:
    """Bottom and top side pairing of SQUARE (suboptimal)."""
    return Matching.from_pairs(SQUARE, [(0, 1), (2, 3)])


def square_diagonals() -> Matching:
    """Diagonal pairing of SQUARE (the max-sum matching)."""
    return Matching.from_pairs(SQUARE, [(0, 2), (1, 3)])


def triangle_sides() -> Matching:
    """The matching of DOUBLED_TRIANGLE realizing the three triangle sides."""
    return Matching.from_pairs(DOUBLED_TRIANGLE, [(0, 2), (1, 4), (3, 5)])


def max_ratio(s: PointSet, pairs, x) -> float:
    """Test oracle: the largest distance-sum ratio over the edges at x."""
    return max(h_ratio(s[i], s[j], x) for i, j in pairs)


def certificate_edges(cert) -> tuple[int, ...]:
    """The active edges of a certificate, in index order."""
    return tuple(e for e, _ in cert.coefficients)


def random_perfect_matching(s: PointSet, rng) -> Matching:
    idx = list(range(len(s)))
    rng.shuffle(idx)
    return Matching.from_pairs(s, [(idx[k], idx[k + 1]) for k in range(0, len(idx), 2)])


def count_calls(monkeypatch, *functions):
    """Rebind each function, at every package module attribute that holds
    it, to a wrapper that counts its calls; returns the counts by name."""
    counts = {f.__name__: 0 for f in functions}
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ellimatch"]

    def counted(f):
        def wrapper(*args, **kwargs):
            counts[f.__name__] += 1
            return f(*args, **kwargs)

        return wrapper

    for f in functions:
        wrapper = counted(f)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is f:
                    monkeypatch.setattr(module, key, wrapper)
    return counts
