"""Instance generation determinism, point-file round trips, and reports."""

from __future__ import annotations

import json
import math

import pytest

from conftest import DOUBLED_TRIANGLE, SQUARE, triangle_sides
from ellimatch import (
    InstanceSpec,
    OddCountError,
    PointParseError,
    Report,
    dist,
    exact_max_sum,
    generate,
    load_points,
    minimize_h,
    save_points,
)
from ellimatch.cli import main
from ellimatch.report import (
    instance_dict,
    matching_dict,
    matching_from_dict,
    verdict_dict,
    witness_dict,
)
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
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("0,0\n\n  \n1,0\n")
        assert load_points(path).points == ((0.0, 0.0), (1.0, 0.0))


class TestReport:
    def build(self):
        s = DOUBLED_TRIANGLE
        m = triangle_sides()
        w = minimize_h(s, m)
        exact = exact_max_sum(s)
        return Report(
            instance=instance_dict(s),
            matching=matching_dict(m),
            witness=witness_dict(w),
            verdicts={"theorem": verdict_dict(check_theorem(exact, minimize_h(s, exact)))},
            trace=[{"lambda_star": w.lambda_star, "cost": m.cost, "cycle_length": 0}],
        )

    def test_json_round_trip_identical(self):
        report = self.build()
        assert json.loads(report.to_json()) == report.to_dict()

    def test_top_level_keys(self):
        data = self.build().to_dict()
        assert set(data) == {"instance", "matching", "witness", "verdicts", "trace"}

    def test_trace_omitted_when_absent(self):
        r = Report(instance=instance_dict(SQUARE))
        assert "trace" not in r.to_dict()

    def test_matching_round_trip(self):
        m = exact_max_sum(SQUARE)
        again = matching_from_dict(matching_dict(m), SQUARE)
        assert again.pairs == m.pairs
        assert again.cost == m.cost
