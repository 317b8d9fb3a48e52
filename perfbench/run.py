"""Benchmark of the ellimatch CLI: one closed-loop client, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one or two ``ellimatch.cli.main(argv)`` calls on point
files written during set-up; the run cycles through a fixed set of them,
and each run of one is checked after the timed call.  Between operations
the run also times a fixed reference kernel of the benchmark's own, and the
end-to-end metrics give operation times in units of it (see
``reference_kernel``).  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` every operation also runs traced, the object holds the
per-layer metrics instead, and the spans go to
``.bench_work/trace-<workload>-<seed>.json``.  The exit code is 0 when every
run passed its check, 1 when one failed and 2 when the benchmark could not
run at all.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import PACKAGE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up runs once before measuring and, in an untraced run, this many
# times more, spread evenly over the run and each between two kernel runs;
# setup_s comes from the median of those.  Set-ups made back to back would
# all fall in one of the host's speed phases.
SETUP_REPEATS = 10
# The tail is the highest percentile with at least this many samples beyond.
TAIL_BEYOND = 10
# Vertices of the reference kernel's matching: 2^14 DP states, 13 to 27 ms
# (5th to 95th percentile) on the machine in README.md.
REF_N = 14
# setup_s is set-up time in kernel runs times this, the kernel's time in
# the host's fast phase (5th percentile of 1858 runs on the machine in
# README.md), so that it reads as seconds in that phase.
REF_SECONDS = 0.013
_REF_WEIGHTS = [[random.Random(f"ref/{i}/{j}").random() for j in range(REF_N)] for i in range(REF_N)]


def reference_kernel() -> float:
    """Time one max-weight perfect matching of a fixed complete graph on
    REF_N vertices by a DP over subsets, and return the seconds it took.

    The host's speed swings by up to 1.8x in phases of seconds (README.md,
    "Noise"), too often for a run to average them out.  This kernel is pure
    Python, like the program, and fills a table of tuples, as the program's
    exact DP does, so it slows down in the same phases by about the same
    factor.  Each operation is timed between two runs of it, and its time
    divided by theirs holds steady where either alone does not.  It is the
    benchmark's own code, so a change to the program never moves it.
    """
    t0 = time.perf_counter()
    d = _REF_WEIGHTS
    full = (1 << REF_N) - 1
    neg = (float("-inf"), 0)
    value = [neg] * (full + 1)
    value[full] = (0.0, 0)
    for mask in range(full - 1, -1, -1):
        if mask.bit_count() & 1:
            continue
        rem = ~mask & full
        bi = rem & -rem
        di = d[bi.bit_length() - 1]
        best = neg
        jbits = rem ^ bi
        while jbits:
            bj = jbits & -jbits
            dij = di[bj.bit_length() - 1]
            rest = value[mask | bi | bj]
            v = (dij + rest[0], rest[1] + 1)
            if v > best:
                best = v
            jbits ^= bj
        value[mask] = best
    if value[0][1] != REF_N // 2:
        raise RuntimeError("reference kernel matched the wrong number of pairs")
    return time.perf_counter() - t0


def load_program() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, afresh: modules left
    from an earlier import are dropped first, so the import is timed whole."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not {SRC}")
    matching = importlib.import_module(f"{PACKAGE}.matching")
    witness = importlib.import_module(f"{PACKAGE}.witness")
    return SimpleNamespace(
        cli=cli,
        PointSet=matching.PointSet,
        Matching=matching.Matching,
        optimality_certificate=witness.optimality_certificate,
    )


def run_calls(lib: SimpleNamespace, argvs: list[list[str]]) -> str | None:
    """The timed part of an operation; returns why it failed, or None."""
    for argv in argvs:
        try:
            code = lib.cli.main(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            code = e.code
        except Exception as e:
            return f"{argv[0]} raised {type(e).__name__}: {e}"
        if code != 0:
            return f"{argv[0]} exited with {code}"
    return None


@dataclass
class Bench:
    """One workload's inputs, written to a private directory."""

    workload: workloads.Workload
    seed: int
    tmp: Path
    lib: SimpleNamespace | None = None
    reference: dict | None = None
    instances: list[workloads.Instance] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)

    def set_up(self) -> float:
        """Import the program, write the inputs and warm up; returns the
        seconds this took."""
        t0 = time.perf_counter()
        self.lib = load_program()
        self.instances = self.workload.inputs(random.Random(self.seed))
        if self.workload.exact:
            self.reference = workloads.load_reference()
            workloads.verify_reference(self.reference, self.instances)
        warmup = workloads.make_instance(*self.workload.warmup, "warm-up")
        self.tmp.mkdir(parents=True, exist_ok=True)
        for inst in [warmup] + self.instances:
            (self.tmp / inst.filename).write_text(inst.csv, encoding="utf-8")
        run_calls(self.lib, self.workload.argvs(warmup, 0, self.tmp / warmup.filename, self.tmp))
        self.setup_times.append(time.perf_counter() - t0)
        return self.setup_times[-1]

    def argvs(self, op: int) -> list[list[str]]:
        inst = self.instances[op]
        return self.workload.argvs(inst, op, self.tmp / inst.filename, self.tmp)

    def check(self, op: int) -> str | None:
        try:
            return self.workload.check(self.lib, self.reference, self.instances[op], self.tmp)
        except Exception as e:  # a malformed output is a failed operation
            return f"output check raised {type(e).__name__}: {e}"

    def measure(self, seconds: float, tracer: Tracer | None = None) -> tuple["Timing", "Timing"]:
        """Cycle through the operations until each has run and the timed
        time reaches ``seconds``; checks run between operations, untimed.

        Without a tracer, the reference kernel runs before the first
        operation and after each one, so each operation is timed between
        two runs of it, and set-up runs again, followed by another kernel
        run, each time another 1/SETUP_REPEATS of ``seconds`` has passed.
        With a tracer, every execution also runs traced, before or after
        the untraced one in turn, so drift in the host's speed falls on
        both alike; returns the untraced and the traced timings.
        """
        plain, traced = Timing(), Timing()
        if not tracer:
            plain.refs.append(reference_kernel())
        i = 0
        while i < len(self.instances) or plain.busy < seconds:
            op = i % len(self.instances)
            runs = [(plain, None), (traced, tracer)] if tracer else [(plain, None)]
            for timing, t in runs[:: -1 if i % 2 else 1]:
                self.run_op(op, timing, t)
            if not tracer:
                plain.add_ref(op, reference_kernel())
                if len(plain.setups) < min(SETUP_REPEATS, 1 + plain.busy * SETUP_REPEATS / seconds):
                    plain.add_setup(self.set_up(), reference_kernel())
            i += 1
        return plain, traced

    def run_op(self, op: int, timing: "Timing", tracer: Tracer | None) -> None:
        argvs = self.argvs(op)
        if tracer:
            tracer.install()
            tracer.begin(len(timing.walls))
        t0 = time.perf_counter()
        err = run_calls(self.lib, argvs)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end()
            tracer.uninstall()
        err = err or self.check(op)
        timing.add(op, dt, err, self.instances[op].key)


@dataclass
class Timing:
    walls: list[float] = field(default_factory=list)  # every execution
    runs: list[list[float]] = field(default_factory=list)  # executions of each operation
    refs: list[float] = field(default_factory=list)  # reference kernel runs
    # Executions of each operation in units of the two kernel runs around it.
    rel: list[list[float]] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # set-ups, the same way
    failures: list[str] = field(default_factory=list)

    def add(self, op: int, dt: float, err: str | None, key: str) -> None:
        self.walls.append(dt)
        if op == len(self.runs):
            self.runs.append([])
        self.runs[op].append(dt)
        if err:
            self.failures.append(f"op {op} on {key}: {err}")

    def add_ref(self, op: int, ref: float) -> None:
        """Record a kernel run made right after the latest execution of
        ``op``, and that execution in units of the kernel runs around it."""
        if op == len(self.rel):
            self.rel.append([])
        self.rel[op].append(self.runs[op][-1] / ((self.refs[-1] + ref) / 2))
        self.refs.append(ref)

    def add_setup(self, dt: float, ref: float) -> None:
        """Record a set-up of ``dt`` seconds made right after the latest
        kernel run, and the kernel run ``ref`` made right after it."""
        self.setups.append(dt / ((self.refs[-1] + ref) / 2))
        self.refs.append(ref)

    @property
    def busy(self) -> float:
        return sum(self.walls) + sum(self.refs)

    @property
    def op_times(self) -> list[float]:
        """Each operation's median time over its executions, in seconds."""
        return [statistics.median(r) for r in self.runs]

    @property
    def op_refs(self) -> list[float]:
        """Each operation's median time over its executions, in kernel runs;
        a median, so an execution during which the host's phase changed
        counts for little."""
        return [statistics.median(r) for r in self.rel]

    @property
    def ops_per_s(self) -> float:
        return len(self.runs) / sum(self.op_times)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves TAIL_BEYOND
    values beyond it.  With too few values for that percentile to lie above
    the median, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, timing: Timing) -> dict:
    """The result gives operation times in runs of the reference kernel
    (unit ``ref``) and set-up time in them times REF_SECONDS; the same
    figures in host time, which swing with the host's speed, are printed
    above it."""
    ms = [t * 1e3 for t in timing.op_times]
    refs = timing.op_refs
    pct, tail_ms = tail(ms)
    n, runs = len(ms), len(timing.walls)
    print(f"{bench.workload.name} seed {bench.seed}: {n} ops run {runs} times, {len(timing.failures)} runs failed")
    print(f"  fail_frac {len(timing.failures) / runs} ratio (failed / attempted)")
    print(f"  ops_per_s {timing.ops_per_s} 1/s, op_ms_p50 {statistics.median(ms)} ms, "
          f"op_ms_tail {tail_ms} ms; tails are p{pct:.1f} of {n} operations")
    print(f"  reference kernel: {len(timing.refs)} runs, median {statistics.median(timing.refs) * 1e3} ms")
    print(f"  set-up: {len(bench.setup_times)} runs, median {statistics.median(bench.setup_times)} s")
    return {
        "ops_per_ref": metric(n / sum(refs), "1/ref"),
        "op_ref_p50": metric(statistics.median(refs), "ref"),
        "op_ref_tail": metric(tail(refs)[1], "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(timing.setups) * REF_SECONDS, "s"),
    }


PER_LAYER_UNITS = {
    "calls": "1/op",
    "self_s": "s/op",
    "evals_per_call_p50": "count",
    "found_ratio": "ratio",
    "overhead_frac": "ratio",
}


def per_layer(bench: Bench, plain: Timing, traced: Timing, tracer: Tracer) -> dict:
    for execution, own in tracer.run_self_sums().items():
        wall = traced.walls[execution]
        if own > wall:
            raise RuntimeError(f"traced run {execution}: self times sum to {own} s, more than its {wall} s")
    values = tracer.layer_metrics(len(traced.walls))
    values["trace.overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{bench.workload.name}-{bench.seed}.json"
    out.write_text(
        json.dumps({"workload": bench.workload.name, "seed": bench.seed, "runs": len(traced.walls),
                    "metrics": values, "spans": tracer.spans}),
        encoding="utf-8",
    )
    print(f"{bench.workload.name} seed {bench.seed}: traced {len(traced.walls)} runs, spans in {out}")
    return {
        name: metric(v, PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "1/op"))
        for name, v in values.items()
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """One benchmark run; returns the result object and the exit code."""
    tmp = WORK / f"run-{workload}-{seed}-{time.time_ns()}"
    bench = Bench(workloads.WORKLOADS[workload], seed, tmp)
    try:
        bench.set_up()
        if not trace:
            timing, _ = bench.measure(seconds)
            metrics = end_to_end(bench, timing)
            failures = timing.failures
            attempted = len(timing.walls)
        else:
            tracer = Tracer()
            plain, traced = bench.measure(seconds / 2, tracer)
            metrics = per_layer(bench, plain, traced, tracer)
            failures = plain.failures + traced.failures
            attempted = len(plain.walls) + len(traced.walls)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return result, 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("benchmark could not run", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
