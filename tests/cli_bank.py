"""The CLI byte contract: a bank of command lines run in process on fixed
inputs, each reduced to a hash of its exit code, stdout, stderr and the
file it wrote with ``--out``.

``tests/cli_golden.json`` maps each command line to that hash, and
``tests/test_cli_golden.py`` names every command whose hash differs.  A
change that alters output on purpose records the table again, and lists
the changed command lines (this script prints them) in CHANGES.md:

    PYTHONPATH=src python tests/cli_bank.py

The bank holds the benchmark's seed-1 operations (a prefix of the two
slowest workloads) and the operations of other seeds that once failed,
every command on three generators at n = 6, 12 and 20,
the doubled polygons (tied matchings), six degenerate families, suites (one
with every check) and the input errors whose message is the package's own.
The benchmark's operations are read from ``perfbench/workloads.py``, so a
change to its inputs or command lines is a change to the bank as well.
Commands whose stderr is usage text, or the interpreter's OS and JSON
decoder messages, are left out: usage text is outside the byte contract,
and the rest is not the package's.  One command, ``--out ''``, is kept:
its message, that no file has the empty name, is the same on every
supported version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"

GENERATORS = ("uniform-square", "gaussian", "clustered")
CHECKS = ("fingerhut", "theorem", "helly", "suri", "disks")
FAMILIES = (
    "regular-polygon",
    "on-circle",
    "grid-4x4",
    "near-duplicate-pairs",
    "offset-1e12",
    "strip-1x1e-7",
)
# The benchmark's workloads and how many of their seed-1 operations the bank
# takes, from the first: every one of the two fast workloads.
BENCHMARK_OPS = (("certify-n12", None), ("exact-dp", None), ("descend-n20", 16), ("twoopt-n200", 2))
# Benchmark operations that once failed, as (workload, run seed, operation).
FAILED_OPS = (("twoopt-n200", 511, 18),)

# Finite inputs whose distances or distance sums overflow a float.
OVERFLOW = {
    "overflow-remove.csv": "0.5,-1\n1e308,3\n-1e308,1\n-1e308,1e308\n",
    "overflow-cost.csv": "1e308,0\n-1e308,0\n0,1\n0,-1\n",
    "overflow-margin.csv": "1e16,3\n-1e308,1e16\n0,1e308\n0.5,0.5\n",
}

# Point files that are input errors.
BAD_POINTS = {
    "odd.csv": "0,0\n1,0\n2,0\n",
    "odd.json": '{"points": [[0, 0], [1, 0], [2, 0]]}\n',
    "arity.csv": "0,0\n1,0,2\n",
    "word.csv": "0,0\nx,1\n",
    "inf.csv": "0,0\ninf,1\n",
    "bool.json": '{"points": [[0, 0], [true, 1]]}\n',
    "shape.json": '{"points": 5}\n',
    "list.json": "[[0, 0], [1, 1]]\n",
    "empty.csv": "\n",
    "deep.json": "[" * 100_000,
}
# Matching files of the unit square, every one but the last an input error.
MATCHINGS = {
    "m-twice.json": '{"pairs": [[0, 1], [0, 1]]}\n',
    "m-unmatched.json": '{"pairs": [[0, 1]]}\n',
    "m-float.json": '{"pairs": [[0, 1.5], [2, 3]]}\n',
    "m-bool.json": '{"pairs": [[0, true], [2, 3]]}\n',
    "m-range.json": '{"pairs": [[0, 1], [2, 9]]}\n',
    "m-nokey.json": '{"matching": {"edges": []}}\n',
    "m-deep.json": "[" * 100_000,
    "m-report.json": '{"matching": {"pairs": [[0, 2], [1, 3]], "cost": 0}}\n',
}


def _csv(points) -> str:
    return "".join(f"{x!r},{y!r}\n" for x, y in points)


def _family(name: str, n: int, seed: int) -> list[tuple[float, float]]:
    rng = random.Random(100 * n + seed)
    if name == "regular-polygon":
        return [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    if name == "on-circle":
        return [(math.cos(a), math.sin(a)) for a in (rng.uniform(0.0, 2 * math.pi) for _ in range(n))]
    if name == "grid-4x4":
        return rng.sample([(float(x), float(y)) for x in range(4) for y in range(4)], n)
    if name == "near-duplicate-pairs":
        pts = []
        for _ in range(n // 2):
            p = (rng.random(), rng.random())
            pts += [p, (p[0] + 1e-9, p[1])]
        return pts
    if name == "offset-1e12":
        return [(1e12 + rng.random(), 1e12 + rng.random()) for _ in range(n)]
    return [(rng.random(), 1e-7 * rng.random()) for _ in range(n)]  # strip-1x1e-7


def _workloads():
    """The benchmark's workload module, loaded from its file unmodified."""
    import importlib.util

    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, HERE.parent / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def _benchmark_ops():
    """(workload, operation index, instance) of each benchmark operation taken."""
    wl = _workloads()
    for name, take in BENCHMARK_OPS:
        work = wl.WORKLOADS[name]
        for op, inst in enumerate(work.inputs(random.Random(1))[:take]):
            yield work, op, inst
    for name, seed, op in FAILED_OPS:
        work = wl.WORKLOADS[name]
        yield work, op, work.inputs(random.Random(seed))[op]


def inputs() -> dict[str, str]:
    """File name -> content of every input file the bank reads."""
    files = dict(OVERFLOW)
    for _, _, inst in _benchmark_ops():
        files[inst.filename] = inst.csv
    for family in FAMILIES:
        for n in (8, 12):
            files[f"{family}-{n}.csv"] = _csv(_family(family, n, 0))
    files.update(BAD_POINTS)
    files.update(MATCHINGS)
    files["twins.csv"] = "0,0\n0,0\n0,0\n1,1\n1,1\n1,1\n1,1\n1,1\n"
    files["square.csv"] = "0,0\n1,0\n1,1\n0,1\n"
    return files


def commands() -> list[list[str]]:
    """The bank's command lines, in the order they run: a command may read
    a file an earlier one wrote."""
    cmds: list[list[str]] = []
    for work, op, inst in _benchmark_ops():
        for argv in work.argvs(inst, op, Path(inst.filename), Path(".")):
            cmds.append([str(a) for a in argv])

    for gen in GENERATORS:
        for n in (6, 12, 20):
            p = f"{gen}-{n}.csv"
            m = f"{gen}-{n}-2opt.json"
            cmds += [
                ["gen", "--generator", gen, "--n", str(n), "--seed", "1", "--out", p],
                ["solve", "--points", p],
                ["solve", "--points", p, "--local-search", "--init-seed", "0", "--out", m],
                ["witness", "--points", p],
                ["witness", "--points", p, "--matching", m],
                ["verify", "--points", p],
                ["verify", "--points", p, "--matching", m, "--fingerhut", "--helly", "--disks"],
                ["descend", "--points", p, "--init-seed", "0"],
                ["render", "--points", p, "--matching", m, "--out", f"{gen}-{n}.svg"],
            ]
    cmds.append(["gen", "--generator", "gaussian", "--n", "8", "--seed", "2", "--out", "gaussian-8.json"])
    cmds.append(["witness", "--points", "gaussian-8.json"])
    cmds.append(["render", "--points", "gaussian-8.json", "--out", "gaussian-8.svg"])

    for n in (6, 8, 10, 12, 20):
        p = f"doubled-{n}.csv"
        cmds += [
            ["gen", "--generator", "doubled-polygon", "--n", str(n), "--out", p],
            ["solve", "--points", p],
            ["witness", "--points", p],
            ["verify", "--points", p],
            ["descend", "--points", p, "--init-seed", "0"],
        ]

    for family in FAMILIES:
        for n in (8, 12):
            p = f"{family}-{n}.csv"
            cmds += [
                ["witness", "--points", p],
                ["verify", "--points", p],
                ["descend", "--points", p, "--init-seed", "0"],
            ]

    cmds += [
        ["suite", "--count", "24", "--sizes", "4-12", "--checks", ",".join(CHECKS), "--include-doubled"],
        ["suite", "--count", "6", "--sizes", "4,20", "--generator", "clustered", "--checks", "theorem,suri",
         "--seed", "3"],
        ["suite", "--count", "3", "--sizes", "4,26", "--out", "suite-capped.json"],
        ["suite", "--count", "2", "--sizes", "26"],
        ["suite", "--count", "2", "--sizes", "3,5"],
        ["suite", "--count", "2", "--sizes", "a-b"],
        ["suite", "--count", "2", "--checks", "bogus"],
        ["suite", "--count", "2", "--checks", ","],
        ["suite", "--count", "0"],
        ["suite", "--count", "2", "--tol", "-1"],
    ]
    for name in OVERFLOW:
        cmds += [
            ["solve", "--points", name, "--local-search"],
            ["witness", "--points", name],
            ["verify", "--points", name],
            ["descend", "--points", name],
        ]
    for name in BAD_POINTS:
        cmds.append(["solve", "--points", name])
    for cmd in ("witness", "verify", "descend"):
        cmds.append([cmd, "--points", "twins.csv"])
    for name in MATCHINGS:
        cmds.append(["witness", "--points", "square.csv", "--matching", name])
    cmds += [
        ["solve", "--points", "uniform-square-20.csv", "--exact"],
        ["gen", "--n", "26", "--seed", "1", "--out", "big.csv"],
        ["solve", "--points", "big.csv"],
        ["witness", "--points", "big.csv"],
        ["verify", "--points", "big.csv", "--theorem"],
        ["verify", "--points", "big.csv", "--fingerhut"],
        ["gen", "--n", "7", "--out", "seven.csv"],
        ["gen", "--generator", "doubled-polygon", "--n", "4", "--out", "four.csv"],
        ["verify", "--points", "square.csv", "--tol", "-1"],
        ["verify", "--points", "square.csv", "--tol", "0"],
        ["verify", "--points", "square.csv", "--tol", "inf"],
        ["descend", "--points", "square.csv", "--max-steps", "0"],
        ["descend", "--points", "square.csv", "--init-seed", "3", "--max-steps", "1", "--tol", "0.5"],
        ["verify", "--points", "square.csv", "--matching", "m-report.json", "--helly"],
        ["witness", "--points", "square.csv", "--out", ""],
    ]
    return cmds


def run(argv: list[str]) -> str:
    """Run one command in the current directory; the hash of its exit code,
    stdout, stderr and the file it wrote, if any."""
    from ellimatch.cli import main

    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None and os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = None
    if out is not None and os.path.exists(out):
        with open(out, "rb") as f:
            written = f.read().decode("utf-8")
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue(), written])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_bank(directory: Path) -> dict[str, str]:
    """Write the inputs into directory, an empty one, and run every command
    there; command line -> hash.  The working directory is restored."""
    for name, content in inputs().items():
        (directory / name).write_text(content, encoding="utf-8", newline="\n")
    here = os.getcwd()
    os.chdir(directory)
    try:
        cmds = commands()
        table = {" ".join(argv): run(argv) for argv in cmds}
    finally:
        os.chdir(here)
    assert len(table) == len(cmds), "two commands of the bank share a command line"
    return table


def main() -> None:
    import tempfile

    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = run_bank(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    changed = [k for k in table if old.get(k) != table[k]]
    print(f"{len(table)} commands recorded in {GOLDEN.name}; {len(changed)} changed")
    for key in changed:
        print(f"  {key}")


if __name__ == "__main__":
    main()
