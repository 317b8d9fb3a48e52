"""Command line: generate instances, solve matchings, extract witnesses, run
verdict checks, descend, render figures, and batch suites.

Exit codes: 0 success, 1 verdict/descent failure, 2 input error, 3 solver
non-convergence.  Identical command lines (same seeds) produce byte-identical
JSON output.  The tolerance on the ratio bound is resolved here, once per
command, and passed down as a float: the library reads no environment.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import random
import sys
from pathlib import Path
from types import ModuleType
from typing import Any

from .geom import DEFAULT_THEOREM_TOL
from .instances import GENERATORS, InstanceSpec, generate, load_points, save_points
from .matching import Matching, PointSet, SizeCapError, exact_max_sum, local_search
from .report import (
    Report,
    instance_dict,
    matching_dict,
    matching_from_dict,
    trace_list,
    verdict_dict,
    witness_dict,
)
from .witness import minimize_h


def _run_on_first_use(name: str) -> ModuleType:
    """This package's module ``name``, entered in ``sys.modules`` now and
    run on its first attribute access: a command that never uses it
    neither compiles nor runs it.  It is entered, not left out, because the
    benchmark's tracer looks each layer's module up there."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


descent = _run_on_first_use("descent")
svgfig = _run_on_first_use("svgfig")
verify = _run_on_first_use("verify")

# Names this module bound from those three before they ran on first use.
_DEFERRED = frozenset(
    {
        "descend",
        "render_svg",
        "check_fingerhut",
        "check_helly_triples",
        "check_suri",
        "check_theorem",
        "check_tverberg_disks",
    }
)


def __getattr__(name: str) -> Any:
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

CHECK_NAMES = ("fingerhut", "theorem", "helly", "suri", "disks")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ellimatch",
        description="Max-sum matchings of planar point sets, their minimax "
        "witness points, and ratio-bound verdicts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a deterministic instance")
    g.add_argument("--generator", choices=GENERATORS, default="uniform-square")
    g.add_argument("--n", type=int, required=True, help="number of points (even)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="point file, JSON if it ends in .json else CSV")

    sv = sub.add_parser("solve", help="compute a max-sum matching")
    sv.add_argument("--points", required=True)
    mode = sv.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact solver (default)")
    mode.add_argument("--local-search", action="store_true", help="2-opt local search")
    sv.add_argument("--init-seed", type=int, help="seed for the local-search start")
    sv.add_argument("--out")

    w = sub.add_parser("witness", help="minimax witness of a matching")
    w.add_argument("--points", required=True)
    w.add_argument("--matching", help="matching JSON (default: solve exactly)")
    w.add_argument("--out")

    v = sub.add_parser("verify", help="run verdict checks")
    v.add_argument("--points", required=True)
    v.add_argument("--matching", help="matching JSON (default: solve exactly)")
    for name in CHECK_NAMES:
        v.add_argument(f"--{name}", action="store_true", help=f"run the {name} check")
    v.add_argument("--tol", type=float, help="override the theorem tolerance")
    v.add_argument("--out")

    d = sub.add_parser("descend", help="alternating-cycle improvement loop")
    d.add_argument("--points", required=True)
    d.add_argument("--matching", help="initial matching JSON")
    d.add_argument("--init-seed", type=int, help="seed for a random initial matching")
    d.add_argument("--tol", type=float)
    d.add_argument("--max-steps", type=int, default=500)
    d.add_argument("--out")

    r = sub.add_parser("render", help="render an SVG figure")
    r.add_argument("--points", required=True)
    r.add_argument("--matching")
    r.add_argument(
        "--witness",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="draw the witness (computed when a matching is present)",
    )
    r.add_argument("--out", required=True)

    st = sub.add_parser("suite", help="batch experiment over seeded instances")
    st.add_argument("--count", type=int, default=200)
    st.add_argument("--sizes", default="4-12", help='even sizes, "4-12" or "4,6,8"')
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--checks", default="theorem", help="comma list of checks")
    st.add_argument("--generator", choices=GENERATORS, default="uniform-square")
    st.add_argument(
        "--include-doubled",
        action="store_true",
        help="append the doubled-triangle extremal instance",
    )
    st.add_argument("--tol", type=float)
    st.add_argument("--out")

    return p


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _load_matching(path: str, s: PointSet) -> Matching:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except ValueError as e:  # a JSON syntax error, or an integer past the digit limit
        raise ValueError(f"matching: {path}: {e}") from None
    if isinstance(data, dict) and "matching" in data:
        data = data["matching"]
    return matching_from_dict(data, s)


def _start_matching(s: PointSet, seed: int | None) -> Matching:
    """Pair consecutive indices, shuffled first when a seed is given."""
    idx = list(range(len(s)))
    if seed is not None:
        random.Random(seed).shuffle(idx)
    return Matching.from_pairs(s, [(idx[k], idx[k + 1]) for k in range(0, len(idx), 2)])


def _parse_sizes(text: str) -> list[int]:
    try:
        if "-" in text and "," not in text:
            lo, hi = (int(t) for t in text.split("-", 1))
            sizes = [n for n in range(lo, hi + 1) if n % 2 == 0]
        else:
            sizes = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:  # a bound or an entry that is not an integer
        sizes = []
    if not sizes or any(n < 2 or n % 2 for n in sizes):
        raise ValueError(f"sizes must be even and >= 2, got {text!r}")
    return sizes


def _theorem_tol(flag: float | None) -> float:
    """The tolerance on the ratio bound: ``--tol``, else the TVERBERG_TOL
    environment variable, else DEFAULT_THEOREM_TOL.  Either source must
    give a finite positive value."""
    raw = flag if flag is not None else os.environ.get("TVERBERG_TOL")
    if raw is None:
        return DEFAULT_THEOREM_TOL
    try:
        value = float(raw)
    except ValueError:  # TVERBERG_TOL is not a number
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"tolerance (--tol or TVERBERG_TOL) must be finite and positive, got {raw}"
        )
    return value


def _cmd_gen(args: argparse.Namespace) -> int:
    s = generate(InstanceSpec(args.generator, args.n, args.seed))
    save_points(s, args.out)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    s = load_points(args.points)
    if args.local_search:
        m = local_search(s, _start_matching(s, args.init_seed))
    else:
        m = exact_max_sum(s)
    _emit(json.dumps({"matching": matching_dict(m)}, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    s = load_points(args.points)
    m = _load_matching(args.matching, s) if args.matching else exact_max_sum(s)
    w = minimize_h(s, m)
    report = Report(
        instance=instance_dict(s),
        matching=matching_dict(m),
        witness=witness_dict(w),
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK if w.converged else EXIT_SOLVER


def _run_checks(
    s: PointSet, m: Matching | None, names: list[str], tol: float
) -> tuple[dict[str, Any], Matching | None, bool, bool]:
    """Run the named checks; returns (verdict dicts, matching used, all
    passed, any solver trouble).  Theorem and suri judge the exact max-sum
    matching, the others ``m`` (the exact one when None); each matching and
    its witness are solved once."""
    verdicts: dict[str, Any] = {}
    solver_trouble = False
    exact = None
    if m is None and any(n in names for n in ("fingerhut", "helly", "disks")):
        m = exact = exact_max_sum(s)
    elif "theorem" in names or "suri" in names:
        exact = exact_max_sum(s)
    w = minimize_h(s, m) if "fingerhut" in names or "helly" in names else None
    if "fingerhut" in names:
        solver_trouble |= not w.converged
        verdicts["fingerhut"] = verdict_dict(verify.check_fingerhut(s, m, w.o_star, tol=tol))
    if "theorem" in names:
        w_exact = w if w is not None and m is exact else minimize_h(s, exact)
        vd = verify.check_theorem(exact, w_exact, tol=tol)
        solver_trouble |= not vd.details["converged"]
        verdicts["theorem"] = verdict_dict(vd)
    if "helly" in names:
        vd = verify.check_helly_triples(s, m, w, tol=tol)
        solver_trouble |= not vd.details["converged"]
        verdicts["helly"] = verdict_dict(vd)
    if "suri" in names:
        vd = verify.check_suri(s, exact, tol=tol)
        solver_trouble |= not vd.details["converged"]
        verdicts["suri"] = verdict_dict(vd)
    if "disks" in names:
        vd = verify.check_tverberg_disks(s, m)
        solver_trouble |= not vd.details["converged"]
        verdicts["disks"] = verdict_dict(vd)
    all_pass = all(v["passed"] for v in verdicts.values())
    return verdicts, m, all_pass, solver_trouble


def _cmd_verify(args: argparse.Namespace) -> int:
    s = load_points(args.points)
    names = [n for n in CHECK_NAMES if getattr(args, n)]
    if not names:
        names = list(CHECK_NAMES)
    m = _load_matching(args.matching, s) if args.matching else None
    tol = _theorem_tol(args.tol)  # rejected even when no named check reads it
    verdicts, m_used, all_pass, trouble = _run_checks(s, m, names, tol)
    report = Report(
        instance=instance_dict(s),
        matching=matching_dict(m_used) if m_used is not None else None,
        verdicts=verdicts,
    )
    _emit(report.to_json(), args.out)
    if trouble:
        return EXIT_SOLVER
    return EXIT_OK if all_pass else EXIT_VERDICT


def _cmd_descend(args: argparse.Namespace) -> int:
    s = load_points(args.points)
    if args.matching:
        init = _load_matching(args.matching, s)
    else:
        init = _start_matching(s, args.init_seed)
    result = descent.descend(s, init, max_steps=args.max_steps, tol=_theorem_tol(args.tol))
    report = Report(
        instance=instance_dict(s),
        matching=matching_dict(result.matching),
        witness=witness_dict(result.witness) if result.witness else None,
        verdicts={"descent": {"status": result.status, "steps": len(result.trace)}},
        trace=trace_list(result.trace),
    )
    _emit(report.to_json(), args.out)
    if result.ok:
        return EXIT_OK
    return EXIT_SOLVER if result.status == "solver_failure" else EXIT_VERDICT


def _cmd_render(args: argparse.Namespace) -> int:
    s = load_points(args.points)
    m = _load_matching(args.matching, s) if args.matching else None
    w = minimize_h(s, m) if (m is not None and args.witness) else None
    svgfig.render_svg(s, m, w, args.out)
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    """Generate -> solve -> check over seeded instances; the aggregate keeps
    per-instance records ordered by index and the minimum margin seen."""
    sizes = _parse_sizes(args.sizes)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        raise ValueError("no checks given")
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(CHECK_NAMES)}")
    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    tol = _theorem_tol(args.tol)
    specs = [
        InstanceSpec(args.generator, sizes[i % len(sizes)], args.seed + i)
        for i in range(args.count)
    ]
    if args.include_doubled:
        specs.append(InstanceSpec("doubled-polygon", 6, args.seed))
    records = []
    min_margin: float | None = None
    all_pass = True
    trouble = False
    for spec in specs:
        s = generate(spec)
        rec: dict[str, Any] = {
            "generator": spec.generator,
            "seed": spec.seed,
            "count": spec.count,
        }
        try:
            verdicts, _, ok, bad = _run_checks(s, None, checks, tol)
        except SizeCapError as e:
            rec["skipped"] = str(e)
            records.append(rec)
            continue
        rec["verdicts"] = verdicts
        records.append(rec)
        all_pass &= ok
        trouble |= bad
        for v in verdicts.values():
            if min_margin is None or v["margin"] < min_margin:
                min_margin = v["margin"]
    aggregate = {
        "suite": {
            "count": args.count,
            "sizes": sizes,
            "seed": args.seed,
            "generator": args.generator,
            "checks": checks,
            "tolerance": tol,
        },
        "instances": records,
        "min_margin": min_margin,
        "all_passed": all_pass,
    }
    _emit(json.dumps(aggregate, indent=2, sort_keys=True), args.out)
    if trouble:
        return EXIT_SOLVER
    return EXIT_OK if all_pass else EXIT_VERDICT


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "descend": _cmd_descend,
    "render": _cmd_render,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # the point-file, size-cap and JSON decode errors are all ValueErrors
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
