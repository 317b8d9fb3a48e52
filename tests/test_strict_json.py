"""Every command, on point files of 2 to 12 points mixing +-1e308,
subnormals, duplicates and collinear sets, exits with a documented code and
prints JSON that a strict reader accepts, in its canonical form (what
``json.dumps`` writes with a two-space indent and sorted keys), and every
number of a figure it draws is finite; no theorem or suri verdict fails on
a converged solve."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import strict_json, svg_numbers
from ellimatch.cli import main

EXTREMES = [0.0, -0.0, 0.5, 1.0, -1.0, 3.0, 1e16, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]

coordinate = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
point = st.tuples(coordinate, coordinate)


@st.composite
def point_sets(draw) -> list[tuple[float, float]]:
    n = 2 * draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["extremes", "any", "duplicates", "collinear"]))
    if kind == "extremes":
        return draw(st.lists(st.tuples(*[st.sampled_from(EXTREMES)] * 2), min_size=n, max_size=n))
    if kind == "any":
        return draw(st.lists(point, min_size=n, max_size=n))
    if kind == "duplicates":
        base = draw(st.lists(point, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(base), min_size=n, max_size=n))
    ts = draw(st.lists(coordinate, min_size=n, max_size=n))
    c = draw(coordinate)
    return [(t, c) for t in ts] if draw(st.booleans()) else [(t, t) for t in ts]


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if code == 2:  # an input error prints its reason and nothing else
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(point_sets())
# Sets whose figure height, y flip or box corner overflows when formed as a sum.
@example([(0.0, 0.0), (0.0, 1e306)])
@example([(0.0, -1.5e308), (1.0, -1.5e308)])
@example([(-1.79e308, 0.0), (-1.79e308 + 1e307, 0.0)])
# A set on which the disks check's Newton slope underflowed to 0.0.
@example([(0.0, 0.0), (0.0, 0.0), (0.0, 0.5), (0.0, 0.5), (0.0, 1.0), (-5e-324, 1.0)])
def test_every_command_exits_0_to_3_with_strict_json(points):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(f"{x!r},{y!r}\n" for x, y in points))
        matching = os.path.join(tmp, "m.json")
        commands = [
            ["solve", "--points", path, "--local-search", "--out", matching],
            ["solve", "--points", path],
            ["witness", "--points", path],
            ["witness", "--points", path, "--matching", matching],
            ["verify", "--points", path],
            ["descend", "--points", path, "--init-seed", "0"],
            ["render", "--points", path, "--out", os.path.join(tmp, "p.svg")],
            ["render", "--points", path, "--matching", matching, "--out", os.path.join(tmp, "m.svg")],
        ]
        for argv in commands:
            if "--matching" in argv and not os.path.exists(matching):
                continue  # the set was rejected, so no matching was written
            code, out = run(argv)
            if code == 2:
                continue
            if argv[0] == "render":
                with open(argv[-1], encoding="utf-8") as f:
                    numbers = svg_numbers(f.read())
                assert all(math.isfinite(x) for x in numbers), (points, argv)
                continue
            if argv[-2] == "--out":
                with open(argv[-1], encoding="utf-8") as f:
                    out = f.read()
            data = strict_json(out)
            assert out == json.dumps(data, indent=2, sort_keys=True) + "\n", (points, argv)
            for name in ("theorem", "suri") if argv[0] == "verify" else ():
                v = data["verdicts"][name]
                assert v["passed"] or not v["details"]["converged"], (points, name, v)
