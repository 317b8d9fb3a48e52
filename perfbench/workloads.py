"""The four workloads: inputs made from the run seed, the CLI calls of one
operation, and the check of each operation's output.

The benchmark generates every point set itself and hands the program only
the files, so a change to the program's own generators cannot change the
inputs.  Exact matchings are checked against ``reference.json``, pairs
recorded from the seed code by ``record_reference.py``; every other check
recomputes what it needs here and never trusts a number the timed call
reported without testing it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BOUND = 2.0 / math.sqrt(3.0)
TOL = 1e-6  # the program's default tolerance on the ratio bound
# Relative agreement required between a reported lambda* and the ratio
# recomputed here at the reported witness (both are float evaluations of
# the same point, one of them in the unit-square frame).
LAMBDA_RTOL = 1e-9

GENERATORS = ("uniform-square", "gaussian", "clustered")
EXACT_SIZES = (16, 18, 20)
# Recorded instances, per generator at n = 12 and per size for exact-dp.
CERTIFY_BANK = 100
EXACT_BANK = 16
# Distinct operations of one run, each its own instance.  A run cycles
# through them until its time is used, so each runs several times, and its
# time is the median of its runs.  In 25 s a certify-n12 or exact-dp
# operation runs 5 to 8 times.  descend-n20 and twoopt-n200 operations vary
# more from instance to instance, so those runs take more instances, each
# run 2 or 3 times, and the instances one seed draws weigh less.
CERTIFY_OPS = 1 + 8 * len(GENERATORS)
EXACT_OPS = len(EXACT_SIZES)
DESCEND_OPS = 120
TWOOPT_OPS = 100

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Instance:
    key: str
    points: tuple[tuple[float, float], ...]

    @property
    def csv(self) -> str:
        return "".join(f"{x!r},{y!r}\n" for x, y in self.points)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.csv.encode()).hexdigest()[:16]

    @property
    def filename(self) -> str:
        return self.key.replace("/", "_") + ".csv"


def make_instance(generator: str, n: int, iseed: str | int) -> Instance:
    """Seeded point set; the same arguments give the same points."""
    key = f"{generator}/{n}/{iseed}"
    rng = random.Random(key)
    if generator == "uniform-square":
        pts = [(rng.random(), rng.random()) for _ in range(n)]
    elif generator == "gaussian":
        pts = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
    elif generator == "clustered":
        centers = [(rng.random(), rng.random()) for _ in range(max(1, n // 4))]
        pts = []
        for _ in range(n):
            cx, cy = rng.choice(centers)
            pts.append((cx + rng.gauss(0.0, 0.05), cy + rng.gauss(0.0, 0.05)))
    elif generator == "doubled-polygon":
        # Regular (n/2)-gon with unit sides, every vertex twice.  At n = 6
        # this is the tight instance: lambda* = 2/sqrt(3) at the centroid.
        k = n // 2
        radius = 0.5 / math.sin(math.pi / k)
        pts = []
        for i in range(k):
            v = (radius * math.cos(2.0 * math.pi * i / k), radius * math.sin(2.0 * math.pi * i / k))
            pts.extend((v, v))
    else:
        raise ValueError(f"unknown generator {generator!r}")
    return Instance(key, tuple(pts))


DOUBLED = ("doubled-polygon", 6, 0)


def certify_bank() -> list[tuple[str, int, int]]:
    return [DOUBLED] + [(g, 12, k) for g in GENERATORS for k in range(CERTIFY_BANK)]


def exact_bank() -> list[tuple[str, int, int]]:
    return [("uniform-square", n, k) for n in EXACT_SIZES for k in range(EXACT_BANK)]


# ---------------------------------------------------------------- inputs


def certify_inputs(rng: random.Random) -> list[Instance]:
    """The tight doubled triangle, then uniform, gaussian and clustered
    n = 12 instances in turn."""
    per_generator = (CERTIFY_OPS - 1) // len(GENERATORS)
    draws = [rng.sample(range(CERTIFY_BANK), per_generator) for _ in GENERATORS]
    return [make_instance(*DOUBLED)] + [
        make_instance(g, 12, draws[gi][k])
        for k in range(per_generator)
        for gi, g in enumerate(GENERATORS)
    ]


def exact_inputs(rng: random.Random) -> list[Instance]:
    """n = 16, 18 and 20 in equal thirds."""
    per_size = EXACT_OPS // len(EXACT_SIZES)
    draws = {n: rng.sample(range(EXACT_BANK), per_size) for n in EXACT_SIZES}
    return [make_instance("uniform-square", n, draws[n][k]) for k in range(per_size) for n in EXACT_SIZES]


def descend_inputs(rng: random.Random) -> list[Instance]:
    base = rng.getrandbits(32)
    return [make_instance("uniform-square", 20, f"{base}.{k}") for k in range(DESCEND_OPS)]


def twoopt_inputs(rng: random.Random) -> list[Instance]:
    base = rng.getrandbits(32)
    return [make_instance("uniform-square", 200, f"{base}.{k}") for k in range(TWOOPT_OPS)]


# ---------------------------------------------------------------- checks


def own_ratio(pts, pairs, o) -> float:
    """max over pairs ab of (|a-o| + |b-o|) / |a-b|, computed here."""
    return max(
        (math.hypot(pts[i][0] - o[0], pts[i][1] - o[1]) + math.hypot(pts[j][0] - o[0], pts[j][1] - o[1]))
        / math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
        for i, j in pairs
    )


def own_cost(pts, pairs) -> float:
    return sum(math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) for i, j in pairs)


def perfect_matching_error(n: int, pairs) -> str | None:
    if sorted(k for p in pairs for k in p) != list(range(n)) or any(len(p) != 2 for p in pairs):
        return f"pairs are not a perfect matching of {n} points"
    return None


def witness_error(lib, pts, pairs, o, lam, converged, *, bounded: bool) -> str | None:
    """A reported witness must have converged, its lambda* must be the ratio
    at o_star, the program's optimality certificate must hold at o_star and,
    for a max-sum matching, lambda* must respect the bound."""
    if converged is not True:
        return "witness solve did not converge"
    h = own_ratio(pts, pairs, o)
    if abs(h - lam) > LAMBDA_RTOL * max(1.0, abs(lam)):
        return f"lambda_star {lam!r} but the ratio at o_star is {h!r}"
    if bounded and h > BOUND + TOL:
        return f"ratio {h!r} at o_star exceeds 2/sqrt(3) + {TOL}"
    s = lib.PointSet.of(pts)
    cert = lib.optimality_certificate(s, lib.Matching.from_pairs(s, pairs), tuple(o))
    if not cert.ok:
        return f"optimality certificate fails at o_star (residual {cert.residual!r})"
    return None


def reference_error(ref: dict, inst: Instance, pairs) -> str | None:
    expected = ref[inst.key]["pairs"]
    if pairs != expected:
        return f"pairs {pairs} differ from the recorded reference {expected}"
    return None


def read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_certify(lib, ref, inst: Instance, out: Path) -> str | None:
    report = read_report(out / "report.json")
    verdicts = report["verdicts"]
    if sorted(verdicts) != ["disks", "fingerhut", "helly", "suri", "theorem"]:
        return f"verdicts {sorted(verdicts)} are not the five checks"
    failed = [name for name, v in verdicts.items() if v["passed"] is not True]
    if failed:
        return f"verdicts failed: {failed}"
    pairs = report["matching"]["pairs"]
    err = reference_error(ref, inst, pairs)
    if err:
        return err
    d = verdicts["theorem"]["details"]
    return witness_error(
        lib, inst.points, pairs, d["witness"], d["lambda_star"], d["converged"], bounded=True
    )


def check_exact(lib, ref, inst: Instance, out: Path) -> str | None:
    report = read_report(out / "report.json")
    pairs = report["matching"]["pairs"]
    err = reference_error(ref, inst, pairs)
    if err:
        return err
    w = report["witness"]
    return witness_error(
        lib, inst.points, pairs, w["o_star"], w["lambda_star"], w["converged"], bounded=True
    )


def check_descend(lib, ref, inst: Instance, out: Path) -> str | None:
    report = read_report(out / "report.json")
    status = report["verdicts"]["descent"]
    if status["status"] != "ok":
        return f"descent status {status['status']!r}"
    costs = [step["cost"] for step in report["trace"]]
    if status["steps"] != len(costs):
        return f"{status['steps']} steps reported but the trace has {len(costs)}"
    if any(b <= a for a, b in zip(costs, costs[1:])):
        return f"cost trace is not strictly increasing: {costs}"
    pairs = report["matching"]["pairs"]
    err = perfect_matching_error(len(inst.points), pairs)
    if err:
        return err
    cost = own_cost(inst.points, pairs)
    if costs and abs(costs[-1] - cost) > 1e-12 * (1.0 + cost):
        return f"final trace cost {costs[-1]!r} but the matching costs {cost!r}"
    w = report["witness"]
    return witness_error(
        lib, inst.points, pairs, w["o_star"], w["lambda_star"], w["converged"], bounded=True
    )


def improving_swap(pts, pairs) -> tuple[int, int] | None:
    """A pair of edges whose 2-opt exchange gains more than the program's
    acceptance threshold 1e-12 * (1 + cost), or None."""
    eps = 1e-12 * (1.0 + own_cost(pts, pairs))
    d = lambda i, j: math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])  # noqa: E731
    for e in range(len(pairs)):
        a, b = pairs[e]
        for f in range(e + 1, len(pairs)):
            c, dd = pairs[f]
            base = d(a, b) + d(c, dd)
            if max(d(a, c) + d(b, dd), d(a, dd) + d(b, c)) > base + eps:
                return e, f
    return None


def check_twoopt(lib, ref, inst: Instance, out: Path) -> str | None:
    pairs = read_report(out / "matching.json")["matching"]["pairs"]
    err = perfect_matching_error(len(inst.points), pairs)
    if err:
        return err
    swap = improving_swap(inst.points, pairs)
    if swap:
        return f"2-opt left the improving swap of edges {swap}"
    report = read_report(out / "report.json")
    if report["matching"]["pairs"] != pairs:
        return "witness report matching differs from the solved matching"
    w = report["witness"]
    # A 2-opt optimum need not be max-sum, so the ratio bound is not checked.
    return witness_error(
        lib, inst.points, pairs, w["o_star"], w["lambda_star"], w["converged"], bounded=False
    )


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], list[Instance]]
    argvs: Callable[[Instance, int, Path, Path], list[list[str]]]
    check: Callable[..., str | None]
    # (generator, n) of the warm-up instance, the same for every seed so
    # that set-up time does not depend on the seed.
    warmup: tuple[str, int]
    # Outputs hold exact max-sum matchings, checked against reference.json.
    exact: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-n12",
            certify_inputs,
            lambda inst, i, pts, out: [["verify", "--points", str(pts), "--out", str(out / "report.json")]],
            check_certify,
            DOUBLED[:2],
            exact=True,
        ),
        Workload(
            "exact-dp",
            exact_inputs,
            lambda inst, i, pts, out: [["witness", "--points", str(pts), "--out", str(out / "report.json")]],
            check_exact,
            ("uniform-square", EXACT_SIZES[0]),
            exact=True,
        ),
        Workload(
            "descend-n20",
            descend_inputs,
            lambda inst, i, pts, out: [
                ["descend", "--points", str(pts), "--init-seed", str(i), "--out", str(out / "report.json")]
            ],
            check_descend,
            ("uniform-square", 20),
        ),
        Workload(
            "twoopt-n200",
            twoopt_inputs,
            lambda inst, i, pts, out: [
                ["solve", "--points", str(pts), "--local-search", "--init-seed", str(i),
                 "--out", str(out / "matching.json")],
                ["witness", "--points", str(pts), "--matching", str(out / "matching.json"),
                 "--out", str(out / "report.json")],
            ],
            check_twoopt,
            ("uniform-square", 200),
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def verify_reference(ref: dict, instances: list[Instance]) -> None:
    """Each instance must have a reference recorded on exactly these points;
    raises when one is missing or the generator here has drifted."""
    for inst in instances:
        entry = ref.get(inst.key)
        if entry is None:
            raise RuntimeError(f"{inst.key}: no reference recorded")
        if entry["digest"] != inst.digest:
            raise RuntimeError(f"{inst.key}: points differ from the recorded reference")
