"""Self-tests of the benchmark itself, kept apart from the package's tests:

    python3 -m pytest -q perfbench/selftest.py

They smoke-run every workload at its shortest length, check that tampered
outputs count as failures, check how executions are put in units of the
reference kernel, and check the traced run's self times.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(name, trace):
    result, code = run.run(name, seed=1, seconds=0.001, trace=trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def tamper_pairs(report: dict) -> None:
    """Exchange partners between the first two pairs: still a perfect
    matching, but another one."""
    pairs = report["matching"]["pairs"]
    pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]


def tamper_witness(report: dict) -> None:
    w = report["witness"] if "witness" in report else report["verdicts"]["theorem"]["details"]
    key = "o_star" if "o_star" in w else "witness"
    w[key] = [w[key][0] + 1e-3, w[key][1]]


def tamper_trace(report: dict) -> None:
    report["trace"] = report["trace"][::-1]


TAMPERS = {
    "certify-n12": [("report.json", tamper_pairs), ("report.json", tamper_witness)],
    "exact-dp": [("report.json", tamper_pairs), ("report.json", tamper_witness)],
    "descend-n20": [("report.json", tamper_witness), ("report.json", tamper_trace)],
    "twoopt-n200": [("matching.json", tamper_pairs), ("report.json", tamper_witness)],
}


def make_bench(name: str, tmp_path: Path) -> run.Bench:
    bench = run.Bench(workloads.WORKLOADS[name], 5, tmp_path)
    bench.set_up()
    return bench


@pytest.mark.parametrize("name", NAMES)
def test_tampered_output_is_a_failure(name, tmp_path):
    bench = make_bench(name, tmp_path)
    # descend op 1 takes at least two steps, so reversing its trace matters.
    op = 1 if name == "descend-n20" else 0
    for filename, tamper in TAMPERS[name]:
        assert run.run_calls(bench.lib, bench.argvs(op)) is None
        assert bench.check(op) is None
        path = tmp_path / filename
        report = json.loads(path.read_text())
        tamper(report)
        path.write_text(json.dumps(report))
        assert bench.check(op) is not None, tamper.__name__


def test_tampered_runs_count_into_fail_frac(tmp_path, capsys):
    bench = make_bench("certify-n12", tmp_path)
    check = bench.check

    def tampered_check(op):
        path = tmp_path / "report.json"
        report = json.loads(path.read_text())
        tamper_pairs(report)
        path.write_text(json.dumps(report))
        return check(op)

    bench.check = tampered_check
    timing, _ = bench.measure(0.001)
    assert len(timing.failures) == len(timing.walls) > 0
    run.end_to_end(bench, timing)
    assert f"fail_frac {1.0} ratio" in capsys.readouterr().out


def test_each_execution_is_divided_by_the_kernel_runs_around_it():
    timing = run.Timing(refs=[0.02])
    for op, dt, ref in [(0, 0.3, 0.04), (1, 0.1, 0.02), (0, 0.5, 0.08)]:
        timing.add(op, dt, None, "key")
        timing.add_ref(op, ref)
    assert timing.rel == [[pytest.approx(10.0), pytest.approx(10.0)], [pytest.approx(10.0 / 3.0)]]
    assert timing.op_refs == [pytest.approx(10.0), pytest.approx(10.0 / 3.0)]
    timing.add_setup(0.3, 0.02)
    assert timing.setups == [pytest.approx(6.0)]


@pytest.mark.parametrize("name", ["certify-n12", "descend-n20"])
def test_self_times_fit_in_each_traced_run(name, tmp_path):
    bench = make_bench(name, tmp_path)
    tracer = Tracer()
    plain, traced = bench.measure(0.001, tracer)
    assert not plain.failures and not traced.failures
    sums = tracer.run_self_sums()
    assert sorted(sums) == list(range(len(traced.walls)))
    for execution, own in sums.items():
        assert 0.0 < own <= traced.walls[execution]
    assert all(own >= -1e-9 for own in tracer.self_times())


def test_tracer_restores_every_binding(tmp_path):
    cli = make_bench("descend-n20", tmp_path).lib.cli
    names = ("main", "descend", "exact_max_sum")
    original = [getattr(cli, n) for n in names]
    tracer = Tracer()
    tracer.install()
    assert all(getattr(cli, n) is not f for n, f in zip(names, original))
    tracer.uninstall()
    assert all(getattr(cli, n) is f for n, f in zip(names, original))
