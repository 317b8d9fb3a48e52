"""Instance generation determinism, point-file round trips, and reports."""

from __future__ import annotations

import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DOUBLED_TRIANGLE, SQUARE, strict_json, triangle_sides
from ellimatch import (
    DescentStep,
    InstanceSpec,
    OddCountError,
    PointParseError,
    PointSet,
    Report,
    dist,
    exact_max_sum,
    generate,
    load_points,
    minimize_h,
    save_points,
)
from ellimatch import report
from ellimatch.cli import main
from ellimatch.geom import Record
from ellimatch.instances import load_matching
from ellimatch.report import dumps
from ellimatch.verify import check_theorem


class TestGenerate:
    def test_deterministic(self):
        spec = InstanceSpec("uniform-square", 8, 42)
        assert generate(spec).points == generate(spec).points

    def test_seeds_differ(self):
        a = generate(InstanceSpec("uniform-square", 8, 1))
        b = generate(InstanceSpec("uniform-square", 8, 2))
        assert a.points != b.points

    def test_two_points(self):
        assert len(generate(InstanceSpec("uniform-square", 2, 0))) == 2

    def test_doubled_polygon_is_doubled_unit_triangle(self):
        s = generate(InstanceSpec("doubled-polygon", 6, 0))
        assert len(s) == 6
        # vertices doubled and sides of unit length
        assert s[0] == s[1] and s[2] == s[3] and s[4] == s[5]
        assert dist(s[0], s[2]) == pytest.approx(1.0, abs=1e-12)
        assert dist(s[2], s[4]) == pytest.approx(1.0, abs=1e-12)
        assert dist(s[4], s[0]) == pytest.approx(1.0, abs=1e-12)

    def test_doubled_polygon_needs_k3(self):
        with pytest.raises(ValueError):
            InstanceSpec("doubled-polygon", 4, 0)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec("uniform-square", 7, 0)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            InstanceSpec("spiral", 8, 0)

    def test_all_generators_produce_finite_points(self):
        for gen in ("uniform-square", "gaussian", "clustered", "doubled-polygon"):
            s = generate(InstanceSpec(gen, 8 if gen != "doubled-polygon" else 6, 3))
            assert all(math.isfinite(x) and math.isfinite(y) for x, y in s)


class TestPointFiles:
    def test_csv_round_trip_bitwise(self, tmp_path):
        s = generate(InstanceSpec("gaussian", 10, 7))
        path = tmp_path / "pts.csv"
        save_points(s, path)
        assert load_points(path).points == s.points

    def test_json_round_trip_bitwise(self, tmp_path):
        s = generate(InstanceSpec("gaussian", 10, 8))
        path = tmp_path / "pts.json"
        save_points(s, path)
        assert load_points(path).points == s.points

    def test_csv_format(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0,0\n1,0\n")
        s = load_points(path)
        assert s.points == ((0.0, 0.0), (1.0, 0.0))

    def test_csv_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(PointParseError, match="line 1"):
            load_points(path)

    def test_csv_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,2,3\n")
        with pytest.raises(PointParseError, match="line 2"):
            load_points(path)

    def test_json_odd_count(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"points": [[0, 0], [1, 0], [2, 0]]}))
        with pytest.raises(OddCountError):
            load_points(path)

    def test_json_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PointParseError, match="line"):
            load_points(path)

    def test_json_integer_beyond_float_range(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"points": [[10**400, 0], [1, 1]]}))
        with pytest.raises(PointParseError, match="points\\[0\\]"):
            load_points(path)

    def test_json_integer_past_the_digit_limit(self, tmp_path):
        # json.loads itself refuses an integer of more than 4,300 digits
        path = tmp_path / "digits.json"
        path.write_text(f'{{"points": [[{"1" * 5000}, 0], [1, 1]]}}')
        with pytest.raises(PointParseError, match="invalid JSON"):
            load_points(path)

    def test_json_boolean_coordinate(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"points": [[0, 0], [1, True]]}))
        with pytest.raises(PointParseError, match="points\\[1\\]"):
            load_points(path)

    def test_json_bad_structure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [[0, 0], ["x", 1]]}))
        with pytest.raises(PointParseError, match="points\\[1\\]"):
            load_points(path)

    @pytest.mark.parametrize(
        "name, content, match",
        [
            ("empty.csv", "", "no points found"),
            ("nan.csv", "0,0\nnan,1\n", "line 2: non-finite"),
            ("list.json", "[[0, 0], [1, 1]]", "JSON object"),
            ("five.json", '{"points": 5}', "must be a list"),
        ],
    )
    def test_rejected_point_file(self, tmp_path, capsys, name, content, match):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(PointParseError, match=match):
            load_points(path)
        assert main(["solve", "--points", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")  # names the file

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("0,0\n\n  \n1,0\n")
        assert load_points(path).points == ((0.0, 0.0), (1.0, 0.0))

    # Spreadsheet CSV exports and Windows editors start a file with one.
    @pytest.mark.parametrize(
        "name, content",
        [
            ("p.csv", "0,0\n1,0\n1,1\n0,1\n"),
            ("p.json", '{"points": [[0, 0], [1, 0], [1, 1], [0, 1]]}\n'),
            ("m.json", '{"pairs": [[0, 2], [1, 3]]}\n'),
        ],
        ids=["points-csv", "points-json", "matching"],
    )
    def test_a_utf8_byte_order_mark_is_dropped(self, tmp_path, name, content):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(content, encoding="utf-8")
        marked.write_text(content, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        if name.startswith("m"):
            assert load_matching(marked, SQUARE) == load_matching(plain, SQUARE)
        else:
            assert load_points(marked) == load_points(plain)


def assert_same(parsed, value):
    """parsed, read back from JSON, is value bit for bit: a record as the
    object of exactly its fields, a tuple or list as a list, and every float
    with the same bits."""
    if isinstance(value, Record):
        value = {name: getattr(value, name) for name in value._fields}
    if isinstance(value, dict):
        assert isinstance(parsed, dict) and set(parsed) == set(value)
        for key in value:
            assert_same(parsed[key], value[key])
    elif isinstance(value, (tuple, list)):
        assert isinstance(parsed, list) and len(parsed) == len(value)
        for p, v in zip(parsed, value):
            assert_same(p, v)
    else:
        assert type(parsed) is type(value)
        assert parsed == value
        if isinstance(value, float):
            assert parsed.hex() == value.hex()


class TestReport:
    def build(self):
        s = DOUBLED_TRIANGLE
        m = triangle_sides()
        w = minimize_h(s, m)
        exact = exact_max_sum(s)
        return Report(
            instance=s,
            matching=m,
            witness=w,
            verdicts={"theorem": check_theorem(exact, minimize_h(s, exact))},
            trace=(DescentStep(w.lambda_star, m.cost, 0),),
        )

    def test_json_round_trip_identical(self):
        report = self.build()
        assert_same(json.loads(report.to_json()), report.to_dict())
        instance = json.loads(report.to_json())["instance"]
        assert instance["generator"] is None and instance["seed"] is None
        assert instance["count"] == len(report.instance)
        assert_same(instance["points"], report.instance.points)

    def test_top_level_keys(self):
        data = self.build().to_dict()
        assert set(data) == {"instance", "matching", "witness", "verdicts", "trace"}

    def test_trace_omitted_when_absent(self):
        r = Report(instance=SQUARE)
        assert "trace" not in r.to_dict()

    def test_matching_round_trip(self, tmp_path):
        m = exact_max_sum(SQUARE)
        path = tmp_path / "m.json"
        path.write_text(dumps(m) + "\n", encoding="utf-8")
        again = load_matching(path, SQUARE)
        assert again.pairs == m.pairs
        assert again.cost == m.cost


class Box(Record):
    """A record holding any values, for the writer's tests."""

    a: object
    b: object = None


NUMBERS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 2.0**53]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.text(),
    st.sampled_from(["é", "\u2603", "\U0001f600", '"\\\n\x00']),
)
# The writer's fast paths take lists of numbers and lists of number pairs;
# a list that mixes in anything else must leave them.
LEAVES = st.one_of(
    SCALARS,
    st.lists(NUMBERS),
    st.lists(st.tuples(NUMBERS, NUMBERS)),
    st.lists(st.lists(NUMBERS, min_size=2, max_size=2)),
    st.lists(st.one_of(NUMBERS, st.booleans(), st.text(max_size=2))),
    st.lists(st.lists(st.one_of(NUMBERS, st.booleans()), max_size=3)),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.builds(Box, children, children),
    ),
    max_leaves=12,
)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(TREES)
    @example([1, True])
    @example([2.0, "a"])
    @example([[1, 2], [3]])
    @example([[1, 2], (3.5, -0.0)])
    @example({"b": Box(a=[(0.1, 2)], b={"k": []}), "a": {}})
    def test_the_bytes_are_json_dumps_bytes(self, obj):
        expected = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=report._fields)
        assert dumps(obj) == expected

    def test_a_tuple_is_written_as_a_list(self):
        assert dumps({"b": (1, (2.5, 3)), "a": None}) == dumps({"a": None, "b": [1, [2.5, 3]]})

    def test_an_object_that_is_not_a_record_is_refused(self):
        with pytest.raises(TypeError, match="set has no JSON form"):
            dumps({"pairs": {1, 2}})

    def test_a_key_that_is_not_a_string_is_refused(self):
        with pytest.raises(TypeError, match="keys must be str"):
            dumps({"a": {1: 2.0}})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_float_is_refused(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps({"cost": value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_float_in_a_list_of_numbers_or_pairs_is_refused(self, value):
        for obj in ([10**400, value], [(0.0, 1), (2, value)]):
            with pytest.raises(ValueError, match="not JSON compliant"):
                dumps(obj)

    def test_point_file_bytes(self, tmp_path):
        path = tmp_path / "pts.json"
        save_points(PointSet.of([(0.1, -2), (3, 4.5)]), path)
        assert path.read_text() == '{\n  "points": [\n    [\n      0.1,\n      -2.0\n    ],\n' + (
            '    [\n      3.0,\n      4.5\n    ]\n  ]\n}\n'
        )


class TestSpanRule:
    """4 * n * span must be finite: every distance sum over n points stays
    below it, so no result can overflow."""

    EDGE = sys.float_info.max / 8  # 4 * 2 * EDGE is the largest float

    def test_the_largest_span_is_accepted(self, tmp_path, capsys):
        s = PointSet.of([(0.0, 0.0), (self.EDGE, 0.0)])
        assert math.isfinite(4 * len(s) * self.EDGE)
        path = tmp_path / "edge.csv"
        save_points(s, path)
        for command in ("solve", "witness", "verify"):
            assert main([command, "--points", str(path)]) == 0
            strict_json(capsys.readouterr().out)

    def test_one_step_wider_is_rejected(self, tmp_path, capsys):
        wider = math.nextafter(self.EDGE, math.inf)
        with pytest.raises(ValueError, match=r"4 \* n \* span must be finite"):
            PointSet.of([(0.0, 0.0), (wider, 0.0)])
        path = tmp_path / "wide.csv"
        path.write_text(f"0,0\n{wider!r},0\n")
        assert main(["witness", "--points", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: coordinates span")

    @pytest.mark.parametrize(
        "command, content",
        [
            ("witness", "0.5,-1\n1e308,3\n-1e308,1\n-1e308,1e308\n"),
            ("solve --local-search", "1e308,0\n-1e308,0\n0,1\n0,-1\n"),
            ("verify", "1e16,3\n-1e308,1e16\n0,1e308\n0.5,0.5\n"),
        ],
        ids=["witness-no-augmenting-column", "solve-infinite-cost", "verify-nan-margin"],
    )
    def test_finite_points_whose_distances_overflow(self, tmp_path, capsys, command, content):
        path = tmp_path / "far.csv"
        path.write_text(content)
        assert main([*command.split(), "--points", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coordinates span")
        assert "4 * n * span must be finite" in captured.err
