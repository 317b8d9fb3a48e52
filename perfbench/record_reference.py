"""Record the exact max-sum pairs that the certify-n12 and exact-dp checks
compare against, and write them to reference.json.

    python3 perfbench/record_reference.py

The file holds, per instance key, a digest of the points and the pairs that
``exact_max_sum`` returned.  It was written from the seed code, whose n = 12
answers are cross-checked here against ``brute_force_max_sum``.  Run it
again only when the benchmark's instances change, and never from a commit
whose exact solver is under test.
"""

from __future__ import annotations

import importlib
import json

import workloads
from run import load_program
from tracer import PACKAGE


def main() -> None:
    load_program()
    matching = importlib.import_module(f"{PACKAGE}.matching")
    ref = {}
    for spec in workloads.certify_bank() + workloads.exact_bank():
        inst = workloads.make_instance(*spec)
        s = matching.PointSet.of(inst.points)
        pairs = matching.exact_max_sum(s).pairs
        if len(inst.points) <= matching.BRUTE_CAP and matching.brute_force_max_sum(s).pairs != pairs:
            raise SystemExit(f"{inst.key}: exact and brute-force solvers disagree")
        ref[inst.key] = {"digest": inst.digest, "pairs": [list(p) for p in pairs]}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ref.items())]
    workloads.REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(ref)} references to {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
