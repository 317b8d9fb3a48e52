"""The work census: the benchmark's captured solves, replayed in process,
each operation reduced to the work its solvers did.

An operation is one command line of a benchmark workload, rebuilt from
``perfbench/workloads.py`` as ``cli_bank`` rebuilds them: the
``certify-n12`` operations of run seeds 0-7 and the ``exact-dp`` operations
of run seeds 0-23.  The work is counted by wrapping package functions from
here, so the package itself keeps no counter:

- ``solves``: one ``[passes, certified, hash]`` per ``minimize_max`` call,
  the hash being that of the hex digits of lambda* and x;
- ``dp_edges``: the edges handed to each call of the exact DP
  (``matching._max_sum_pairs``);
- ``steiner_passes``: the Steiner star's passes over the points
  (``witness._visit``);
- ``helly_subsolves``: the Helly check's solves of the support.

``tests/work_golden.json`` maps each operation to that record, and
``tests/test_work_golden.py`` names every operation whose record differs.
A change that moves the work on purpose records the table again and
names the changed operations (this script prints them) in CHANGES.md:

    PYTHONPATH=src python tests/work_bank.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
from pathlib import Path

from cli_bank import HERE, _workloads

GOLDEN = HERE / "work_golden.json"

# (workload, run seeds) whose operations the census replays.
CENSUS = (("certify-n12", range(8)), ("exact-dp", range(24)))


def operations():
    """(key, instance, command lines) of each operation of the census."""
    wl = _workloads()
    for name, seeds in CENSUS:
        work = wl.WORKLOADS[name]
        for seed in seeds:
            for op, inst in enumerate(work.inputs(random.Random(seed))):
                argvs = work.argvs(inst, op, Path(inst.filename), Path("."))
                yield f"{name}/{seed}/{op}", inst, [[str(a) for a in argv] for argv in argvs]


@contextlib.contextmanager
def _counting(record):
    """Wrap the counted functions where their callers look them up, adding
    to the record that ``record()`` returns; every binding is restored on
    exit."""
    from ellimatch import matching, verify, witness

    def solve(f):
        def wrapper(pieces, x0):
            res = f(pieces, x0)
            digits = " ".join(v.hex() for v in (res.value, *res.x))
            digest = hashlib.sha256(digits.encode()).hexdigest()[:12]
            record()["solves"].append([res.iterations, res.converged, digest])
            return res

        return wrapper

    def dp(f):
        def wrapper(partners):
            record()["dp_edges"].append(sum(map(len, partners)))
            return f(partners)

        return wrapper

    def count(key):
        def wrap(f):
            def wrapper(*args):
                record()[key] += 1
                return f(*args)

            return wrapper

        return wrap

    targets = [
        (witness, "minimize_max", solve),
        (matching, "_max_sum_pairs", dp),
        (witness, "_visit", count("steiner_passes")),
        (verify, "minimize_h_over_edges", count("helly_subsolves")),
    ]
    originals = [getattr(module, name) for module, name, _ in targets]
    try:
        for (module, name, wrap), f in zip(targets, originals):
            setattr(module, name, wrap(f))
        yield
    finally:
        for (module, name, _), f in zip(targets, originals):
            setattr(module, name, f)


def run_census(directory: Path) -> dict[str, dict]:
    """Write each operation's points into directory, an empty one, and run
    its command lines there; operation -> its work.  The working directory
    is restored."""
    from ellimatch.cli import main

    ops = list(operations())
    for _, inst, _ in ops:
        (directory / inst.filename).write_text(inst.csv, encoding="utf-8", newline="\n")
    table: dict[str, dict] = {}
    here = os.getcwd()
    os.chdir(directory)
    try:
        # The counters write into the record of the operation that runs now.
        with _counting(lambda: table[key]):
            for key, _, argvs in ops:
                table[key] = {"solves": [], "dp_edges": [], "steiner_passes": 0, "helly_subsolves": 0}
                codes = [main(argv) for argv in argvs]
                assert codes == [0] * len(argvs), f"{key} exited {codes}"
    finally:
        os.chdir(here)
    return table


def dumps(table: dict[str, dict]) -> str:
    """One operation per line."""
    lines = [f"{json.dumps(key)}: {json.dumps(work)}" for key, work in table.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> None:
    import tempfile

    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = run_census(Path(tmp))
    GOLDEN.write_text(dumps(table), encoding="utf-8")
    changed = [k for k in table if old.get(k) != table[k]]
    print(f"{len(table)} operations recorded in {GOLDEN.name}; {len(changed)} changed")
    for key in changed:
        print(f"  {key}")


if __name__ == "__main__":
    main()
