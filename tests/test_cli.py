"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

import ellimatch
from conftest import count_calls
from ellimatch import exact_max_sum, minimize_h
from ellimatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGenSolveWitness:
    def test_gen_writes_deterministic_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen", "--n", "8", "--seed", "42", "--out", str(a)]) == 0
        assert main(["gen", "--n", "8", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_exact(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        code, out = run(capsys, "solve", "--points", str(pts), "--exact")
        assert code == 0
        data = json.loads(out)
        assert data["matching"]["pairs"] == [[0, 2], [1, 3]]
        assert data["matching"]["cost"] == pytest.approx(2 * math.sqrt(2))

    def test_solve_local_search(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        code, out = run(capsys, "solve", "--points", str(pts), "--local-search")
        assert code == 0
        assert json.loads(out)["matching"]["pairs"] == [[0, 2], [1, 3]]

    def test_witness_report(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        code, out = run(capsys, "witness", "--points", str(pts))
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["lambda_star"] == pytest.approx(1.0, abs=1e-6)
        assert data["witness"]["converged"] is True

    def test_gen_json_format_round_trips(self, tmp_path, capsys):
        out = tmp_path / "pts.json"
        assert main(["gen", "--n", "6", "--seed", "3", "--out", str(out)]) == 0
        from ellimatch import InstanceSpec, generate, load_points

        assert load_points(out).points == generate(InstanceSpec("uniform-square", 6, 3)).points

    def test_gen_then_solve_reads_either_suffix(self, tmp_path, capsys):
        # The suffix picks the format for both writing and reading, so what
        # gen writes, solve reads, and both files give the same solve.
        outs = []
        for name, first in (("p.json", "{"), ("p.csv", "0.")):
            pts = tmp_path / name
            assert main(["gen", "--n", "6", "--seed", "3", "--out", str(pts)]) == 0
            assert pts.read_text(encoding="utf-8").startswith(first)
            code, out = run(capsys, "solve", "--points", str(pts))
            assert code == 0
            outs.append(json.loads(out)["matching"])
        assert outs[0] == outs[1]

    def test_witness_on_supplied_matching(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        code, out = run(capsys, "witness", "--points", str(pts), "--matching", str(mfile))
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["lambda_star"] == pytest.approx(math.sqrt(2), abs=1e-6)
        assert data["witness"]["o_star"] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_local_search_random_init_seeded(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        code, out = run(
            capsys, "solve", "--points", str(pts), "--local-search", "--init-seed", "11"
        )
        assert code == 0
        assert json.loads(out)["matching"]["pairs"] == [[0, 2], [1, 3]]


class TestVerifyAndDescend:
    def write_square(self, tmp_path):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        return pts

    def test_verify_all_checks_pass(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        code, out = run(capsys, "verify", "--points", str(pts))
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert set(verdicts) == {"fingerhut", "theorem", "helly", "suri", "disks"}
        assert all(v["passed"] for v in verdicts.values())

    def test_verify_failing_matching_exits_one(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        code, out = run(
            capsys,
            "verify",
            "--points",
            str(pts),
            "--matching",
            str(mfile),
            "--fingerhut",
        )
        assert code == 1
        assert not json.loads(out)["verdicts"]["fingerhut"]["passed"]

    def test_verify_tol_override(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        code, _ = run(
            capsys,
            "verify",
            "--points",
            str(pts),
            "--matching",
            str(mfile),
            "--fingerhut",
            "--tol",
            "1.0",
        )
        assert code == 0  # absurd tolerance turns the failure into a pass

    def test_helly_non_convergence_exits_three(self, tmp_path, capsys, monkeypatch):
        from ellimatch import verify

        solve = verify.minimize_h_over_edges
        monkeypatch.setattr(
            verify,
            "minimize_h_over_edges",
            lambda s, pairs: dataclasses.replace(solve(s, pairs), converged=False),
        )
        pts = self.write_square(tmp_path)
        code, out = run(capsys, "verify", "--points", str(pts), "--helly")
        assert code == 3
        assert json.loads(out)["verdicts"]["helly"]["details"]["converged"] is False

    def test_helly_converges_where_a_triple_sweep_stalled(self, tmp_path, capsys):
        # Two triples outside the certificate stall unconverged near lambda
        # 1.00002 here; they are not part of the Helly decision.
        pts = tmp_path / "g.csv"
        gen = ["gen", "--generator", "gaussian", "--n", "20", "--seed", "3", "--out", str(pts)]
        assert main(gen) == 0
        code, out = run(capsys, "verify", "--points", str(pts))
        assert code == 0
        helly = json.loads(out)["verdicts"]["helly"]
        assert helly["passed"] is True
        assert helly["details"]["converged"] is True

    def test_suri_non_convergence_exits_three(self, tmp_path, capsys, monkeypatch):
        from ellimatch import verify

        star = verify.steiner_star
        monkeypatch.setattr(verify, "steiner_star", lambda s: (*star(s)[:2], False))
        pts = self.write_square(tmp_path)
        code, out = run(capsys, "verify", "--points", str(pts), "--suri")
        assert code == 3
        assert json.loads(out)["verdicts"]["suri"]["details"]["converged"] is False

    def test_shared_witness_non_convergence_exits_three(self, tmp_path, capsys, monkeypatch):
        from ellimatch import cli

        solve = cli.minimize_h
        monkeypatch.setattr(
            cli, "minimize_h", lambda s, m: dataclasses.replace(solve(s, m), converged=False)
        )
        pts = self.write_square(tmp_path)
        code, out = run(capsys, "verify", "--points", str(pts), "--theorem")
        assert code == 3
        assert json.loads(out)["verdicts"]["theorem"]["details"]["converged"] is False
        code, _ = run(capsys, "verify", "--points", str(pts), "--fingerhut")
        assert code == 3

    def test_theorem_and_suri_ignore_supplied_matching(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        _, out = run(capsys, "verify", "--points", str(pts))
        code, out_sides = run(capsys, "verify", "--points", str(pts), "--matching", str(mfile))
        exact, sides = json.loads(out)["verdicts"], json.loads(out_sides)["verdicts"]
        assert code == 1
        assert not sides["fingerhut"]["passed"]
        assert sides["theorem"] == exact["theorem"]
        assert sides["suri"] == exact["suri"]

    def test_verify_solves_each_matching_once(self, tmp_path, capsys, monkeypatch):
        pts = tmp_path / "p.csv"
        assert main(["gen", "--n", "12", "--seed", "0", "--out", str(pts)]) == 0
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[k, k + 1] for k in range(0, 12, 2)]}))

        counts = count_calls(monkeypatch, exact_max_sum, minimize_h)
        run(capsys, "verify", "--points", str(pts))
        assert counts == {"exact_max_sum": 1, "minimize_h": 1}

        counts.update(dict.fromkeys(counts, 0))
        run(capsys, "verify", "--points", str(pts), "--matching", str(mfile))
        assert counts == {"exact_max_sum": 1, "minimize_h": 2}

        code, out = run(capsys, "verify", "--points", str(pts), "--theorem")
        assert code == 0
        assert "matching" not in json.loads(out)

    @pytest.mark.parametrize(
        "extra, env",
        [
            (["--tol", "-1"], None),
            (["--tol", "nan"], None),
            ([], "nan"),
            (["--disks", "--tol", "-1"], None),
        ],
        ids=["tol-1", "tol-nan", "env-nan", "disks-tol-1"],
    )
    def test_invalid_tolerance_is_input_error(self, tmp_path, capsys, monkeypatch, extra, env):
        pts = tmp_path / "col.csv"
        pts.write_text("0,0\n1,0\n2,0\n3,0\n")
        if env is not None:
            monkeypatch.setenv("TVERBERG_TOL", env)
        assert main(["verify", "--points", str(pts), *extra]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["suite", "--count", "-3"], ["descend", "--init-seed", "0", "--max-steps", "-1"]],
        ids=["suite-count-3", "descend-max-steps-1"],
    )
    def test_out_of_range_count_is_input_error(self, tmp_path, capsys, argv):
        pts = self.write_square(tmp_path)
        if argv[0] == "descend":
            argv = [*argv, "--points", str(pts)]
        assert main(argv) == 2

    def test_descend_from_sides(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        code, out = run(
            capsys, "descend", "--points", str(pts), "--matching", str(mfile)
        )
        assert code == 0
        data = json.loads(out)
        assert data["matching"]["pairs"] == [[0, 2], [1, 3]]
        assert data["verdicts"]["descent"]["status"] == "ok"
        assert len(data["trace"]) == 1

    def test_descend_step_limit_exits_one(self, tmp_path, capsys):
        pts = tmp_path / "u.csv"
        assert main(["gen", "--n", "8", "--seed", "0", "--out", str(pts)]) == 0
        code, out = run(
            capsys, "descend", "--points", str(pts), "--init-seed", "0", "--max-steps", "1"
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdicts"]["descent"] == {"status": "step_limit", "steps": 1}

    def test_descend_non_convergence_exits_three(self, tmp_path, capsys, monkeypatch):
        from ellimatch import descent

        solve = descent.minimize_h
        monkeypatch.setattr(
            descent, "minimize_h", lambda s, m: dataclasses.replace(solve(s, m), converged=False)
        )
        pts = self.write_square(tmp_path)
        code, out = run(capsys, "descend", "--points", str(pts))
        assert code == 3
        data = json.loads(out)
        assert data["verdicts"]["descent"]["status"] == "solver_failure"
        assert data["witness"]["converged"] is False

    @pytest.mark.parametrize("env", ["bad", "-3", "nan"])
    @pytest.mark.parametrize("command", ["verify", "descend", "suite"])
    def test_invalid_env_tolerance_is_input_error(
        self, tmp_path, capsys, monkeypatch, command, env
    ):
        monkeypatch.setenv("TVERBERG_TOL", env)
        if command == "suite":
            argv = ["suite", "--count", "1", "--sizes", "4"]
        else:
            argv = [command, "--points", str(self.write_square(tmp_path))]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: tolerance (--tol or TVERBERG_TOL) must be finite and positive, got "
        )

    def test_env_tolerance_is_reported_by_verify_and_suite(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TVERBERG_TOL", "0.25")
        pts = self.write_square(tmp_path)
        _, out = run(capsys, "verify", "--points", str(pts), "--theorem")
        assert json.loads(out)["verdicts"]["theorem"]["tolerance"] == 0.25
        _, out = run(capsys, "suite", "--count", "1", "--sizes", "4")
        assert json.loads(out)["suite"]["tolerance"] == 0.25
        _, out = run(capsys, "suite", "--count", "1", "--sizes", "4", "--tol", "0.5")
        assert json.loads(out)["suite"]["tolerance"] == 0.5

    def test_env_tolerance_reaches_descend(self, tmp_path, capsys, monkeypatch):
        # The sides of the square are within 1.0 of the bound, so descend
        # stops at once; --tol takes precedence over the variable.
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        monkeypatch.setenv("TVERBERG_TOL", "1.0")
        argv = ["descend", "--points", str(pts), "--matching", str(mfile)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verdicts"]["descent"] == {"status": "ok", "steps": 0}
        code, out = run(capsys, *argv, "--tol", "1e-6")
        assert code == 0
        assert json.loads(out)["verdicts"]["descent"] == {"status": "ok", "steps": 1}

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        monkeypatch.setenv("TVERBERG_TOL", "1.0")
        code, _ = run(
            capsys, "verify", "--points", str(pts), "--matching", str(mfile), "--fingerhut"
        )
        assert code == 0


class TestOutFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve"],
            ["witness"],
            ["verify"],
            ["descend", "--init-seed", "3"],
            ["suite", "--count", "2", "--sizes", "4,6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_writes_the_stdout_bytes(self, tmp_path, capsys, argv):
        if argv[0] != "suite":
            pts = tmp_path / "p.csv"
            assert main(["gen", "--n", "8", "--seed", "1", "--out", str(pts)]) == 0
            argv = [*argv, "--points", str(pts)]
        code = main(argv)
        shown = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == shown.encode("utf-8")

    def test_solve_out_feeds_witness(self, tmp_path, capsys):
        # The README flow: a solve report is a matching file.
        pts = tmp_path / "pts.csv"
        assert main(["gen", "--n", "10", "--seed", "42", "--out", str(pts)]) == 0
        mfile = tmp_path / "matching.json"
        assert main(["solve", "--points", str(pts), "--exact", "--out", str(mfile)]) == 0
        code, out = run(capsys, "witness", "--points", str(pts), "--matching", str(mfile))
        assert code == 0
        assert json.loads(out)["matching"] == json.loads(mfile.read_text())["matching"]
        _, solved = run(capsys, "witness", "--points", str(pts))
        assert out == solved


class TestRender:
    def test_render_writes_svg(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        out = tmp_path / "fig.svg"
        code = main(["render", "--points", str(pts), "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("<?xml")


class TestSuite:
    def test_small_suite_passes_and_is_deterministic(self, tmp_path, capsys):
        args = [
            "suite",
            "--count",
            "6",
            "--sizes",
            "4-8",
            "--seed",
            "5",
            "--checks",
            "theorem",
            "--include-doubled",
        ]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["all_passed"] is True
        assert len(data["instances"]) == 7  # 6 + doubled triangle
        assert data["min_margin"] <= 1e-7  # extremal instance is tight

    def test_cap_violating_sizes_recorded_as_skips(self, capsys):
        code, out = run(
            capsys,
            "suite",
            "--count",
            "2",
            "--sizes",
            "26",
            "--seed",
            "0",
            "--checks",
            "theorem",
        )
        assert code == 0
        data = json.loads(out)
        assert all("skipped" in rec for rec in data["instances"])

    def test_sizes_up_to_the_cap_get_verdicts(self, capsys):
        code, out = run(
            capsys,
            "suite",
            "--count",
            "2",
            "--sizes",
            "22,24",
            "--seed",
            "0",
            "--checks",
            "theorem",
        )
        assert code == 0
        data = json.loads(out)
        assert [rec["count"] for rec in data["instances"]] == [22, 24]
        for rec in data["instances"]:
            assert "skipped" not in rec
            assert rec["verdicts"]["theorem"]["passed"] is True

    def test_unknown_check_rejected(self, capsys):
        code, _ = run(capsys, "suite", "--checks", "nonsense")
        assert code == 2

    def test_empty_check_list_rejected(self, capsys):
        assert main(["suite", "--count", "1", "--sizes", "4", "--checks", ","]) == 2
        assert capsys.readouterr() == ("", "error: no checks given\n")

    @pytest.mark.parametrize("sizes", ["3,5", "0-0", "4-", "a-b", "4,x"])
    def test_bad_sizes_rejected(self, capsys, sizes):
        assert main(["suite", "--count", "1", "--sizes", sizes]) == 2
        assert capsys.readouterr().err.startswith("error: sizes must be even")

    def test_unconverged_check_exits_three(self, capsys, monkeypatch):
        from ellimatch import cli

        solve = cli.minimize_h
        monkeypatch.setattr(
            cli, "minimize_h", lambda s, m: dataclasses.replace(solve(s, m), converged=False)
        )
        code, out = run(capsys, "suite", "--count", "2", "--sizes", "4", "--checks", "theorem")
        assert code == 3
        records = json.loads(out)["instances"]
        assert [r["verdicts"]["theorem"]["details"]["converged"] for r in records] == [
            False,
            False,
        ]


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code = main(["solve", "--points", "/nonexistent/nowhere.csv"])
        assert code == 2

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n")
        assert main(["solve", "--points", str(bad)]) == 2

    @pytest.mark.parametrize(
        "coord", ["1" * 400, "true"], ids=["int-beyond-float-range", "bool"]
    )
    def test_unreadable_json_coordinate_is_input_error(self, tmp_path, capsys, coord):
        pts = tmp_path / "p.json"
        pts.write_text(f'{{"points": [[{coord}, 0], [1, 1]]}}')
        assert main(["solve", "--points", str(pts)]) == 2
        assert capsys.readouterr().err.startswith("error: points[0]: ")

    def test_points_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        pts.write_text(f'{{"points": [[{"1" * 5000}, 0], [1, 1]]}}')
        assert main(["solve", "--points", str(pts)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_matching_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        bad = tmp_path / "m.json"
        bad.write_text(f'{{"pairs": [[{"1" * 5000}, 0], [1, 2]]}}')
        assert main(["witness", "--points", str(pts), "--matching", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: matching: {bad}: ")

    def test_truncated_matching_names_the_file(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        bad = tmp_path / "m.json"
        bad.write_text('{"pairs": [[0, 1], [2, 3]')
        assert main(["witness", "--points", str(pts), "--matching", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: matching: {bad}: ")

    def test_odd_count_is_input_error(self, tmp_path, capsys):
        odd = tmp_path / "odd.csv"
        odd.write_text("0,0\n1,0\n2,0\n")
        assert main(["solve", "--points", str(odd)]) == 2

    @pytest.mark.parametrize("command", ["witness", "verify", "descend", "render"])
    @pytest.mark.parametrize(
        "content",
        [
            '{"pairs": [[0, 7], [1, 2]]}',
            '{"pairs": [[0, 1], [2]]}',
            '{"pairs": 5}',
            "[[0, 1], [2, 3]]",
            '{"pairs": [[0, 1.5], [2, 3]]}',
            '{"pairs": [[0, true], [2, 3]]}',
            '{"pairs": [[0, "1"], [2, 3]]}',
        ],
        ids=["out-of-range", "one-element", "not-a-list", "top-level-list", "float", "bool", "string"],
    )
    def test_malformed_matching_is_input_error(self, tmp_path, capsys, command, content):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        bad = tmp_path / "m.json"
        bad.write_text(content)
        argv = [command, "--points", str(pts), "--matching", str(bad)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: matching: ")


def test_only_the_cli_reads_the_environment():
    # Library functions take every setting as an argument; the CLI alone
    # turns environment variables into arguments.
    package = Path(ellimatch.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & {"environ", "environb", "getenv", "getenvb"}:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_runtime_imports_only_the_standard_library():
    # The package declares no dependencies: every import is relative or
    # names a standard-library module.
    package = Path(ellimatch.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
