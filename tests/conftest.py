"""Shared instances and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import settings

from ellimatch import Matching, PointSet, h_ratio
from ellimatch.minimax import _derivatives

# Fixed example sequences and no example database: runs are reproducible and
# leave no .hypothesis/ directory behind.
settings.register_profile("ellimatch", derandomize=True, database=None)
settings.load_profile("ellimatch")

SQRT3 = math.sqrt(3.0)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def piece_derivatives(piece, x):
    """Gradient, Hessian (xx, xy, yy) and focus-ball radius of one minimizer
    piece at x, from the code the Newton step runs: ``_derivatives`` with
    the piece alone, at weight 1."""
    _, _, ball, [(_, gx, gy, hxx, hxy, hyy)] = _derivatives([piece], [1.0], 1.0, x)
    return (gx, gy), (hxx, hxy, hyy), ball


def compensated_sum(values, start=0):
    """sum() as Python 3.12 and later compute it: once the total is a float,
    each float term's rounding error is carried along (Neumaier) and added
    at the end."""
    it = iter(values)
    total = start
    for v in it:
        total = total + v
        if isinstance(total, float):
            break
    else:
        return total
    c = 0.0
    for v in it:
        t = total + v
        if abs(total) >= abs(v):
            c += (total - t) + v
        else:
            c += (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


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


def _refuse(token: str) -> None:
    raise ValueError(f"not strict JSON: {token}")


def strict_json(text: str):
    """text parsed as a strict JSON reader does: NaN and Infinity refused."""
    return json.loads(text, parse_constant=_refuse)


def svg_numbers(doc: str) -> list[float]:
    """Every number in the attributes of the SVG document doc, parsed as a
    float; a token such as ``inf`` or ``nan`` counts as a number."""
    numbers = []
    for element in ET.fromstring(doc).iter():
        for value in element.attrib.values():
            for token in re.split(r"[\s,()]+", value):
                try:
                    numbers.append(float(token))
                except ValueError:  # a name, a path command or a URL
                    pass
    return numbers


def load_perfbench(stem: str):
    """Load ``perfbench/<stem>.py`` unmodified, as module ``perfbench_<stem>``,
    without importing the package a second time."""
    name = f"perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
