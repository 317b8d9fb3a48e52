"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import ellimatch
from conftest import count_calls
from ellimatch import DEFAULT_THEOREM_TOL, exact_max_sum, minimize_h
from ellimatch import cli
from ellimatch.cli import main

COMMANDS = ("gen", "solve", "witness", "verify", "descend", "render", "suite")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exits(capsys, argv):
    """The exit code, stdout and stderr of ``main(argv)``."""
    return (main(argv), *capsys.readouterr())


def full_parser():
    """argparse's parser of ``cli._COMMANDS``, all seven commands: the
    oracle that the table parser is checked against."""
    p = argparse.ArgumentParser(prog="ellimatch")
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in cli._COMMANDS.items():
        c = sub.add_parser(name, help=command.help)
        group = c.add_mutually_exclusive_group() if command.exclusive else c
        for o in command.options:
            target = group if o.flag in command.exclusive else c
            if o.kind is bool:
                target.add_argument(o.flag, action="store_true", help=o.help)
            else:
                target.add_argument(
                    o.flag, type=o.kind, default=o.default, required=o.required,
                    choices=o.choices, help=o.help,
                )
    return p


def by_argparse(argv):
    """(namespace dict, None) when argparse accepts argv, else (None,
    (its exit code, its stdout)); its error text is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(full_parser().parse_args(argv)), None
        except SystemExit as e:
            return None, (e.code, out.getvalue())


def is_usage_error(err, argv):
    """Whether stderr is a usage line and an ``error:`` line of argv's
    command, or of the top level when argv names no command."""
    prog = f"ellimatch {argv[0]}" if argv and argv[0] in COMMANDS else "ellimatch"
    lines = err.splitlines()
    return (
        lines[0].startswith(f"usage: {prog} [-h]")
        and lines[-1].startswith(f"{prog}: error: ")
        and err.endswith("\n")
    )


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
        # The witness has a support here.  The bracket at o* declines, so
        # the support is solved, and that solve is not certified either.
        from ellimatch import verify

        certify, solve = verify.certificate_over_edges, verify.minimize_h_over_edges
        monkeypatch.setattr(
            verify,
            "certificate_over_edges",
            lambda s, pairs, o: certify(s, pairs, o).replace(ok=False),
        )
        monkeypatch.setattr(
            verify,
            "minimize_h_over_edges",
            lambda s, pairs: solve(s, pairs).replace(converged=False),
        )
        pts = tmp_path / "p.csv"
        assert main(["gen", "--n", "12", "--seed", "0", "--out", str(pts)]) == 0
        code, out = run(capsys, "verify", "--points", str(pts), "--helly")
        assert code == 3
        details = json.loads(out)["verdicts"]["helly"]["details"]
        assert details["support"] is not None
        assert details["converged"] is False

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
            cli, "minimize_h", lambda s, m: solve(s, m).replace(converged=False)
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
        "extra",
        [["--tol", "-1"], ["--tol", "nan"], ["--disks", "--tol", "-1"]],
        ids=["tol-1", "tol-nan", "disks-tol-1"],
    )
    def test_invalid_tolerance_is_input_error(self, tmp_path, capsys, extra):
        pts = tmp_path / "col.csv"
        pts.write_text("0,0\n1,0\n2,0\n3,0\n")
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
            descent, "minimize_h", lambda s, m: solve(s, m).replace(converged=False)
        )
        pts = self.write_square(tmp_path)
        code, out = run(capsys, "descend", "--points", str(pts))
        assert code == 3
        data = json.loads(out)
        assert data["verdicts"]["descent"]["status"] == "solver_failure"
        assert data["witness"]["converged"] is False

    @pytest.mark.parametrize("tol", ["-3", "nan"])
    @pytest.mark.parametrize("command", ["verify", "descend", "suite"])
    def test_invalid_tolerance_names_the_flag(self, tmp_path, capsys, command, tol):
        if command == "suite":
            argv = ["suite", "--count", "1", "--sizes", "4"]
        else:
            argv = [command, "--points", str(self.write_square(tmp_path))]
        assert main([*argv, "--tol", tol]) == 2
        assert capsys.readouterr().err == (
            f"error: tolerance (--tol) must be finite and positive, got {float(tol)}\n"
        )

    def test_tolerance_flag_is_reported_by_verify_and_suite(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        _, out = run(capsys, "verify", "--points", str(pts), "--theorem", "--tol", "0.25")
        assert json.loads(out)["verdicts"]["theorem"]["tolerance"] == 0.25
        _, out = run(capsys, "suite", "--count", "1", "--sizes", "4", "--tol", "0.25")
        assert json.loads(out)["suite"]["tolerance"] == 0.25
        _, out = run(capsys, "suite", "--count", "1", "--sizes", "4")
        assert json.loads(out)["suite"]["tolerance"] == DEFAULT_THEOREM_TOL

    def test_cli_ignores_the_tolerance_environment_variable(
        self, tmp_path, capsys, monkeypatch
    ):
        # The sides of the square are within 1.0 of the bound, so descend
        # stops at once under --tol 1.0, and takes a step under the default
        # tolerance whatever TVERBERG_TOL says.
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        monkeypatch.setenv("TVERBERG_TOL", "1.0")
        argv = ["descend", "--points", str(pts), "--matching", str(mfile)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["verdicts"]["descent"] == {"status": "ok", "steps": 1}
        code, out = run(capsys, *argv, "--tol", "1.0")
        assert code == 0
        assert json.loads(out)["verdicts"]["descent"] == {"status": "ok", "steps": 0}

    def test_tolerance_flag_reaches_fingerhut(self, tmp_path, capsys):
        pts = self.write_square(tmp_path)
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps({"pairs": [[0, 1], [2, 3]], "cost": 2.0}))
        argv = ["verify", "--points", str(pts), "--matching", str(mfile), "--fingerhut"]
        assert run(capsys, *argv)[0] == 1
        assert run(capsys, *argv, "--tol", "1.0")[0] == 0


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "4"],
            ["solve"],
            ["witness"],
            ["verify"],
            ["descend"],
            ["render"],
            ["suite", "--count", "1", "--sizes", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_out_path_is_input_error(self, tmp_path, capsys, argv):
        # '' names no file: it is not the same as leaving --out out
        if argv[0] not in ("gen", "suite"):
            pts = tmp_path / "p.csv"
            pts.write_text("0,0\n1,0\n1,1\n0,1\n")
            argv = [*argv, "--points", str(pts)]
        assert main([*argv, "--out", ""]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")

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

    def test_render_draws_the_witness_whenever_a_matching_is_given(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        m = tmp_path / "m.json"
        m.write_text('{"pairs": [[0, 2], [1, 3]]}')
        bare, drawn = tmp_path / "bare.svg", tmp_path / "drawn.svg"
        assert main(["render", "--points", str(pts), "--out", str(bare)]) == 0
        assert main(["render", "--points", str(pts), "--matching", str(m), "--out", str(drawn)]) == 0
        assert 'class="witness"' not in bare.read_text(encoding="utf-8")
        assert 'class="witness"' in drawn.read_text(encoding="utf-8")


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
        code, out = run(capsys, "suite", "--count", "2", "--sizes", "4,26", "--checks", "theorem")
        assert code == 0
        data = json.loads(out)
        assert ["skipped" in rec for rec in data["instances"]] == [False, True]
        assert data["all_passed"] is True
        assert data["min_margin"] == data["instances"][0]["verdicts"]["theorem"]["margin"]
        # A suite that judged no instance shows nothing: an input error.
        assert main(["suite", "--count", "2", "--sizes", "26", "--checks", "theorem"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: suite judged no instance")
        assert "exceeds the exact-solver cap of 24" in captured.err

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
            cli, "minimize_h", lambda s, m: solve(s, m).replace(converged=False)
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
        assert capsys.readouterr().err.startswith(f"error: {pts}: points[0]: ")

    def test_points_integer_past_the_digit_limit_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        pts.write_text(f'{{"points": [[{"1" * 5000}, 0], [1, 1]]}}')
        assert main(["solve", "--points", str(pts)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {pts}: invalid JSON: ")

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

    def test_truncated_points_and_matching_read_alike(self, tmp_path, capsys):
        # one JSON reader: a syntax error gives the same line in both
        # files, each after the file's name
        truncated = '{"pairs": [[0, 1], [2, 3]'
        pts_json, bad = tmp_path / "p.json", tmp_path / "m.json"
        pts_json.write_text(truncated)
        bad.write_text(truncated)
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        message = "invalid JSON at line 1 column 26: Expecting ',' delimiter\n"
        assert main(["witness", "--points", str(pts_json)]) == 2
        assert capsys.readouterr().err == f"error: {pts_json}: {message}"
        assert main(["witness", "--points", str(pts), "--matching", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: matching: {bad}: {message}"

    def test_points_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_bytes(b"\xff0,0\n1,1\n")
        assert main(["witness", "--points", str(pts)]) == 2
        assert capsys.readouterr().err == (
            f"error: {pts}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_points_nested_past_the_decoder_limit_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        pts.write_text("[" * 100_000)
        assert main(["witness", "--points", str(pts)]) == 2
        assert capsys.readouterr().err == f"error: {pts}: invalid JSON: nested too deeply\n"

    def test_matching_nested_past_the_decoder_limit_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        bad = tmp_path / "m.json"
        bad.write_text("[" * 100_000)
        assert main(["witness", "--points", str(pts), "--matching", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: matching: {bad}: invalid JSON: nested too deeply\n"

    def test_brackets_and_escapes_inside_strings_do_not_nest(self, tmp_path, capsys):
        # 600 brackets in a string, next to an escaped quote and an escaped
        # backslash: the reader finds where each string ends, and reads on.
        pts = tmp_path / "p.json"
        pts.write_text(r'{"note": "\\" , "points": [[0, 0], [1, 1]], "more": "\"' + "[" * 600 + '"}')
        assert main(["solve", "--points", str(pts)]) == 0
        assert json.loads(capsys.readouterr().out)["matching"]["pairs"] == [[0, 1]]

    def test_matching_nested_past_the_limit_among_escapes_is_input_error(self, tmp_path, capsys):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        bad = tmp_path / "m.json"
        item = "[" * 500 + "]" * 500  # 501 deep inside the object
        bad.write_text(r'{"note": "\\", "pairs": [[0, 1], [2, 3]], "x": "\"[]", "deep": ' + item + "}")
        assert main(["witness", "--points", str(pts), "--matching", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: matching: {bad}: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("depth", [300, 900, 990])
    @pytest.mark.parametrize("file", ["points", "matching"])
    def test_nesting_verdict_does_not_depend_on_the_stack(self, tmp_path, capsys, file, depth):
        # The reader refuses nesting past its own limit before decoding, so
        # a deep file gets the same bytes from a shallow stack and from one
        # 150 frames deeper, on every interpreter.
        item = "[" * depth + "]" * depth
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        bad = tmp_path / "bad.json"
        if file == "points":
            bad.write_text(f'{{"points": [{item}, [0, 0]]}}')
            argv = ["solve", "--points", str(bad)]
        else:
            bad.write_text(f'{{"pairs": [{item}, [2, 3]]}}')
            argv = ["witness", "--points", str(pts), "--matching", str(bad)]

        def deeper(frames):
            return deeper(frames - 1) if frames else main(argv)

        shallow = (main(argv), capsys.readouterr())
        assert (deeper(150), capsys.readouterr()) == shallow
        assert shallow[0] == 2
        assert shallow[1].err.endswith("nested too deeply\n") == (depth > 500)

    @pytest.mark.parametrize("command", ["witness", "verify", "descend", "render"])
    def test_empty_matching_path_is_input_error(self, tmp_path, capsys, command):
        # '' names no file: it is not the same as leaving --matching out
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n1,1\n0,1\n")
        out = tmp_path / "out"
        assert main([command, "--points", str(pts), "--matching", "", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: matching: : ")
        assert not out.exists()

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
        assert capsys.readouterr().err.startswith(f"error: matching: {bad}: ")

    @pytest.mark.parametrize("command", ["witness", "verify", "descend", "render"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"pairs": [[0, 1], [0, 1], [2, 3]]}', "point index 0 matched twice"),
            ('{"pairs": [[0, 1], [2, 3]]}', "unmatched point indices: [4, 5]"),
            ('{"matching": {"pairs": [[1, 1], [2, 3], [4, 5]]}}', "point index 1 matched twice"),
            (None, "No such file or directory"),
        ],
        ids=["twice", "unmatched", "in-a-report", "missing-file"],
    )
    def test_matching_that_is_no_perfect_matching_names_the_file(
        self, tmp_path, capsys, command, content, message
    ):
        pts = tmp_path / "p.csv"
        pts.write_text("0,0\n1,0\n2,1\n1,2\n0,2\n-1,1\n")
        bad = tmp_path / "m.json"
        if content is not None:
            bad.write_text(content)
        argv = [command, "--points", str(pts), "--matching", str(bad)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: matching: {bad}: ") and message in err

    # An item of 200,000 integers, and one nested 400 deep (within the
    # reader's depth limit), each echoed as its first 50 characters.
    @pytest.mark.parametrize(
        "item, shown",
        [
            ("[" + ", ".join(map(str, range(200_000))) + "]", repr(list(range(20)))[:50]),
            ("[" * 400 + "]" * 400, "[" * 50),
        ],
        ids=["wide", "deep"],
    )
    @pytest.mark.parametrize("file", ["points", "matching"])
    def test_a_large_bad_item_is_echoed_in_short(self, tmp_path, capsys, item, shown, file):
        bad = tmp_path / "bad.json"
        if file == "points":
            bad.write_text(f'{{"points": [{item}, [0, 0]]}}')
            argv = ["solve", "--points", str(bad)]
            line = f"error: {bad}: points[0]: expected a finite [x, y] pair, got {shown}...\n"
        else:
            pts = tmp_path / "p.csv"
            pts.write_text("0,0\n1,0\n1,1\n0,1\n")
            bad.write_text(f'{{"pairs": [{item}, [2, 3]]}}')
            argv = ["witness", "--points", str(pts), "--matching", str(bad)]
            line = (
                f"error: matching: {bad}: pairs[0]: expected [i, j] with integer "
                f"indices in 0..3, got {shown}...\n"
            )
        assert main(argv) == 2
        assert capsys.readouterr() == ("", line)
        assert len(line) <= 140 + len(str(bad))


# Usage errors: missing required options, a bad type, two exclusive modes,
# unknown options and a stray argument.
USAGE_ERRORS = [
    ["gen"],
    ["gen", "--n", "abc", "--out", "p.csv"],
    ["solve", "--points", "p.csv", "--exact", "--local-search"],
    *([c] for c in COMMANDS if c not in ("gen", "suite")),
    *([c, "--bogus"] for c in COMMANDS),
    ["witness", "--points", "p.csv", "--bogus"],
    ["gen", "--n", "4", "--out", "p.csv", "stray"],
]

# Command lines on which the table parser must agree with argparse on the
# same table: the namespace when argparse accepts one, else help or exit 2.
PARSE_CASES = [
    [],
    ["nosuch"],
    ["--points", "p.csv", "witness"],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "witness"],
    ["--", "witness", "--points", "p.csv"],
    *([c, "-h"] for c in COMMANDS),
    *USAGE_ERRORS,
    ["suite"],
    # help is taken where it stands: after a stray argument, not after a bad value
    ["witness", "--he"],
    ["witness", "--bogus", "-h"],
    ["gen", "-h", "--n", "abc"],
    ["gen", "--n", "abc", "-h"],
    ["verify", "--points", "p.csv", "--hel"],
    # types and choices
    ["suite", "--count", "1.5"],
    ["verify", "--points", "p.csv", "--tol", "x"],
    ["descend", "--points", "p.csv", "--max-steps", ""],
    ["gen", "--generator", "nosuch", "--n", "4", "--out", "p.csv"],
    ["gen", "--generator", "gaussian", "--n", "4", "--out", "p.csv"],
    ["suite", "--generator", "doubled", "--count", "2"],
    # exclusive modes
    ["solve", "--points", "p.csv", "--local-search", "--exact"],
    ["solve", "--points", "p.csv", "--exact", "--exact"],
    ["solve", "--points", "p.csv", "--local-search", "--init-seed", "3"],
    # stray arguments
    ["solve", "--points", "p.csv", "--exact", "stray"],
    ["witness", "--points", "p.csv", "-x"],
    # --opt=value
    ["witness", "--points=p.csv", "--out=w.json"],
    ["witness", "--points="],
    ["gen", "--n=4", "--out=p.csv", "--seed=-7"],
    ["solve", "--points", "p.csv", "--exact=1"],
    ["verify", "--points", "p.csv", "--tol=-1e-3"],
    ["witness", "--points=a=b"],
    # unique and ambiguous prefixes
    ["solve", "--poi", "p.csv", "--local", "--init", "0"],
    ["suite", "--cou", "3", "--si", "4,6", "--inc"],
    ["descend", "--points", "p.csv", "--max", "10"],
    ["witness", "--p=p.csv"],
    ["suite", "--s", "1"],
    ["suite", "--c", "1"],
    ["descend", "--points", "p.csv", "--ma", "m.json"],
    ["suite", "--se=1"],
    # repeated options: the last wins
    ["witness", "--points", "a.csv", "--points", "b.csv"],
    ["witness", "--points", "a.csv", "--poi", "b.csv"],
    ["gen", "--n", "4", "--n", "6", "--out", "p.csv"],
    ["verify", "--points", "p.csv", "--suri", "--suri", "--tol", "1", "--tol", "2"],
    # --
    ["witness", "--points", "p.csv", "--"],
    ["witness", "--", "--points", "p.csv"],
    ["witness", "--points", "--", "p.csv"],
    ["solve", "--points", "p.csv", "--exact", "--", "--out", "x"],
    # negative numbers, and other values that start with -
    ["gen", "--n", "4", "--seed", "-1", "--out", "p.csv"],
    ["gen", "--n", "-4", "--out", "p.csv"],
    ["suite", "--seed", "-12", "--count", "-3"],
    ["verify", "--points", "p.csv", "--tol", "-.5"],
    ["verify", "--points", "p.csv", "--tol", "-0.5"],
    ["verify", "--points", "p.csv", "--tol", "-1e-3"],
    ["verify", "--points", "p.csv", "--tol", "-inf"],
    ["gen", "--n", "4", "--seed", "-1.", "--out", "p.csv"],
    ["witness", "--points", "-x"],
    ["witness", "--points", "p.csv", "--out", "--x"],
    ["witness", "--points", "-a b"],
    ["witness", "--points", "-"],
    ["witness", "--points", ""],
    ["witness", "--points", "p.csv", "-1"],
]


class TestParser:
    """``main`` parses a command line from the command table alone, and
    agrees with argparse's full parser of that table (built here, in the
    tests only) on what it accepts and how it ends."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_is_the_full_parsers(self, capsys, command):
        # the same options, each once, in a help of the same usage shape
        def options(text):
            return sorted(w.strip("[],") for w in text.split() if w.lstrip("[").startswith("--"))

        code, out, err = exits(capsys, [command, "-h"])
        assert (code, err) == (0, "") and out.startswith(f"usage: ellimatch {command} [-h]")
        full = by_argparse([command, "-h"])[1]
        assert full[0] == 0
        assert options(out) == options(full[1])

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error_is_the_full_parsers(self, capsys, argv):
        assert by_argparse(argv)[1][0] == 2
        code, out, err = exits(capsys, argv)
        assert (code, out) == (2, "") and is_usage_error(err, argv)

    @pytest.mark.parametrize(
        "argv, code",
        [([], 2), (["-h"], 0), (["nosuch"], 2), (["--points", "p.csv", "witness"], 2)],
        ids=["nothing", "help", "typo", "option-first"],
    )
    def test_no_command_first_gets_the_full_parser(self, capsys, argv, code):
        assert by_argparse(argv)[1][0] == code
        got, out, err = exits(capsys, argv)
        assert got == code
        usage = "usage: ellimatch [-h] {" + ",".join(COMMANDS) + "} ...\n"
        if code == 0:
            assert out.startswith(usage) and err == ""
            assert all(f"\n  {c} " in out for c in COMMANDS)
        else:
            assert out == "" and err.startswith(usage) and is_usage_error(err, argv)

    def test_invalid_choice_lists_every_command(self, capsys):
        code, _, err = exits(capsys, ["nosuch"])
        (line,) = [line for line in err.splitlines() if "unknown command 'nosuch'" in line]
        assert code == 2 and all(c in line.split("choose from")[1] for c in COMMANDS)

    def test_only_the_invoked_command_is_built(self, monkeypatch):
        # no other command's entry is read, and the namespace holds the
        # invoked command's options alone
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"read {name} of another command")

        table = cli._COMMANDS
        for command in COMMANDS:
            others = {n: c if n == command else Unread() for n, c in table.items()}
            monkeypatch.setattr(cli, "_COMMANDS", others)
            required = [a for o in table[command].options if o.required for a in (o.flag, "4")]
            args = cli._parse([command, *required])
            own = {o.dest for o in table[command].options}
            assert set(vars(args)) == own | {"command"} and args.command == command

    def test_main_reads_sys_argv_when_given_none(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "p.csv"
        monkeypatch.setattr(sys, "argv", ["ellimatch", "gen", "--n", "4", "--out", str(out)])
        assert main() == 0 and out.exists()

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(a) or "nothing")
    def test_parse_agrees_with_argparse(self, capsys, argv):
        namespace, ended = by_argparse(argv)
        got = cli._parse(list(argv))
        out, err = capsys.readouterr()
        if namespace is not None:
            assert vars(got) == namespace and (out, err) == ("", "")
        elif ended[0] == 0:
            assert got == 0 and err == "" and out.startswith("usage: ellimatch")
        else:
            assert (got, out) == (2, "") and is_usage_error(err, argv)

    def test_usage_error_is_printed_not_raised(self, capsys):
        # no SystemExit: main returns the code, and the error line says what
        code, out, err = exits(capsys, ["suite", "--s", "1"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "ellimatch suite: error: ambiguous option: --s could match --sizes, --seed"
        )


def test_no_module_reads_the_environment():
    # Every setting is an argument, so identical command lines give
    # identical bytes whatever the environment holds.
    package = Path(ellimatch.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
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
