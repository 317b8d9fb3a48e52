"""Command line: generate instances, solve matchings, extract witnesses, run
verdict checks, descend, render figures, and batch suites.

This module only dispatches: :mod:`instances` reads every input file, point
files and matching files alike, and :func:`report.dumps` writes every JSON
byte, as strict JSON.  Exit codes: 0 success, 1 verdict/descent failure, 2
input error, 3 solver non-convergence.  Identical command lines (same seeds)
produce byte-identical JSON output.  The tolerance on the ratio bound is
``--tol``, checked here once per command and passed down as a float: no
command reads the environment.

Each command is one entry of ``_COMMANDS``: its help, its options as
:class:`cmdline.Option` data (flag, kind, default, required, choices, help),
the flags that exclude each other, and its run.  :func:`_parse` reads a
command line against the invoked command's entry alone, with
:func:`cmdline.read`, which takes what argparse would.  ``-h`` prints help
built from the table; a usage error prints the usage line and an ``error:``
line to stderr and exits 2.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from types import SimpleNamespace

from .cmdline import Option, UsageError, help_text, read, usage
from .geom import DEFAULT_THEOREM_TOL, Record
from .instances import GENERATORS, InstanceSpec, generate, save_points
from .instances import load_matching, load_points
from .matching import Matching, PointSet, SizeCapError, exact_max_sum, local_search
from .report import Report, dumps
from .witness import minimize_h

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from types import ModuleType
    from typing import Any


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
def _emit(text: str, out: str | None) -> None:
    if out is not None:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


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


def _theorem_tol(value: float) -> float:
    """``--tol``, which must be finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance (--tol) must be finite and positive, got {value}")
    return value


def _cmd_gen(args: SimpleNamespace) -> int:
    s = generate(InstanceSpec(args.generator, args.n, args.seed))
    save_points(s, args.out)
    return EXIT_OK


def _cmd_solve(args: SimpleNamespace) -> int:
    s = load_points(args.points)
    if args.local_search:
        m = local_search(s, _start_matching(s, args.init_seed))
    else:
        m = exact_max_sum(s)
    _emit(dumps({"matching": m}), args.out)
    return EXIT_OK


def _cmd_witness(args: SimpleNamespace) -> int:
    s = load_points(args.points)
    m = load_matching(args.matching, s) if args.matching is not None else exact_max_sum(s)
    w = minimize_h(s, m)
    _emit(Report(instance=s, matching=m, witness=w).to_json(), args.out)
    return EXIT_OK if w.converged else EXIT_SOLVER


def _run_checks(
    s: PointSet, m: Matching | None, names: list[str], tol: float
) -> tuple[dict[str, verify.Verdict], Matching | None, bool]:
    """Run the named checks; returns (verdicts by name, matching used, any
    solver trouble).  Theorem and suri judge the exact max-sum matching, the
    others ``m`` (the exact one when None); each matching and its witness
    are solved once."""
    verdicts: dict[str, verify.Verdict] = {}
    exact = None
    if m is None and any(n in names for n in ("fingerhut", "helly", "disks")):
        m = exact = exact_max_sum(s)
    elif "theorem" in names or "suri" in names:
        exact = exact_max_sum(s)
    w = minimize_h(s, m) if "fingerhut" in names or "helly" in names else None
    if "fingerhut" in names:
        verdicts["fingerhut"] = verify.check_fingerhut(s, m, w.o_star, tol=tol)
    if "theorem" in names:
        w_exact = w if w is not None and m is exact else minimize_h(s, exact)
        verdicts["theorem"] = verify.check_theorem(exact, w_exact, tol=tol)
    if "helly" in names:
        verdicts["helly"] = verify.check_helly_triples(s, m, w, tol=tol)
    if "suri" in names:
        verdicts["suri"] = verify.check_suri(s, exact, tol=tol)
    if "disks" in names:
        verdicts["disks"] = verify.check_tverberg_disks(s, m)
    # fingerhut judges the point it is given; the solve that found it is w's
    solved = [v.details["converged"] for v in verdicts.values() if v.name != "fingerhut"]
    solver_trouble = ("fingerhut" in names and not w.converged) or not all(solved)
    return verdicts, m, solver_trouble


def _cmd_verify(args: SimpleNamespace) -> int:
    s = load_points(args.points)
    names = [n for n in CHECK_NAMES if getattr(args, n)]
    if not names:
        names = list(CHECK_NAMES)
    m = load_matching(args.matching, s) if args.matching is not None else None
    tol = _theorem_tol(args.tol)  # rejected even when no named check reads it
    verdicts, m_used, trouble = _run_checks(s, m, names, tol)
    _emit(Report(instance=s, matching=m_used, verdicts=verdicts).to_json(), args.out)
    if trouble:
        return EXIT_SOLVER
    return EXIT_OK if all(v.passed for v in verdicts.values()) else EXIT_VERDICT


def _cmd_descend(args: SimpleNamespace) -> int:
    s = load_points(args.points)
    if args.matching is not None:
        init = load_matching(args.matching, s)
    else:
        init = _start_matching(s, args.init_seed)
    result = descent.descend(s, init, max_steps=args.max_steps, tol=_theorem_tol(args.tol))
    report = Report(
        instance=s,
        matching=result.matching,
        witness=result.witness,
        verdicts={"descent": {"status": result.status, "steps": len(result.trace)}},
        trace=result.trace,
    )
    _emit(report.to_json(), args.out)
    if result.ok:
        return EXIT_OK
    return EXIT_SOLVER if result.status == "solver_failure" else EXIT_VERDICT


def _cmd_render(args: SimpleNamespace) -> int:
    s = load_points(args.points)
    m = load_matching(args.matching, s) if args.matching is not None else None
    w = minimize_h(s, m) if m is not None else None
    svgfig.render_svg(s, m, w, args.out)
    return EXIT_OK


def _cmd_suite(args: SimpleNamespace) -> int:
    """Generate -> solve -> check over seeded instances; the aggregate keeps
    per-instance records ordered by index and the minimum margin seen.  An
    instance over the exact solver's cap is recorded as skipped; a suite
    that judged no instance is an input error."""
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
    judged: list[verify.Verdict] = []  # the verdicts on every instance checked
    trouble = False
    for spec in specs:
        rec: dict[str, Any] = {"generator": spec.generator, "seed": spec.seed, "count": spec.count}
        records.append(rec)
        try:
            verdicts, _, bad = _run_checks(generate(spec), None, checks, tol)
        except SizeCapError as e:
            rec["skipped"] = str(e)
            continue
        rec["verdicts"] = verdicts
        judged += verdicts.values()
        trouble |= bad
    if not judged:
        raise ValueError(f"suite judged no instance: each was skipped ({records[0]['skipped']})")
    all_pass = all(v.passed for v in judged)
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
        "min_margin": min(v.margin for v in judged),
        "all_passed": all_pass,
    }
    _emit(dumps(aggregate), args.out)
    if trouble:
        return EXIT_SOLVER
    return EXIT_OK if all_pass else EXIT_VERDICT


class _Command(Record):
    """One command: its help line, its options, the function that runs it,
    and the flags of which at most one may be given."""

    help: str
    options: tuple[Option, ...]
    run: Callable[[SimpleNamespace], int]
    exclusive: tuple[str, ...] = ()


_POINTS = Option("--points", required=True)
_OUT = Option("--out")
_TOL = Option("--tol", float, DEFAULT_THEOREM_TOL, help="tolerance on the ratio bound")

_COMMANDS = {
    "gen": _Command(
        "generate a deterministic instance",
        (
            Option("--generator", choices=GENERATORS, default="uniform-square"),
            Option("--n", int, required=True, help="number of points (even)"),
            Option("--seed", int, 0),
            Option("--out", required=True, help="point file, JSON if it ends in .json else CSV"),
        ),
        _cmd_gen,
    ),
    "solve": _Command(
        "compute a max-sum matching",
        (
            _POINTS,
            Option("--exact", bool, help="exact solver (default)"),
            Option("--local-search", bool, help="2-opt local search"),
            Option("--init-seed", int, help="seed for the local-search start"),
            _OUT,
        ),
        _cmd_solve,
        exclusive=("--exact", "--local-search"),
    ),
    "witness": _Command(
        "minimax witness of a matching",
        (_POINTS, Option("--matching", help="matching JSON (default: solve exactly)"), _OUT),
        _cmd_witness,
    ),
    "verify": _Command(
        "run verdict checks",
        (
            _POINTS,
            Option("--matching", help="matching JSON (default: solve exactly)"),
            *(Option(f"--{name}", bool, help=f"run the {name} check") for name in CHECK_NAMES),
            _TOL,
            _OUT,
        ),
        _cmd_verify,
    ),
    "descend": _Command(
        "alternating-cycle improvement loop",
        (
            _POINTS,
            Option("--matching", help="initial matching JSON"),
            Option("--init-seed", int, help="seed for a random initial matching"),
            _TOL,
            Option("--max-steps", int, 500),
            _OUT,
        ),
        _cmd_descend,
    ),
    "render": _Command(
        "render an SVG figure",
        (
            _POINTS,
            Option("--matching", help="matching JSON, drawn with its witness"),
            Option("--out", required=True),
        ),
        _cmd_render,
    ),
    "suite": _Command(
        "batch experiment over seeded instances",
        (
            Option("--count", int, 200),
            Option("--sizes", default="4-12", help='even sizes, "4-12" or "4,6,8"'),
            Option("--seed", int, 0),
            Option("--checks", default="theorem", help="comma list of checks"),
            Option("--generator", choices=GENERATORS, default="uniform-square"),
            Option(
                "--include-doubled", bool, help="append the doubled-triangle extremal instance"
            ),
            _TOL,
            _OUT,
        ),
        _cmd_suite,
    ),
}


_ABOUT = (
    "Max-sum matchings of planar point sets, their minimax witness points,\n"
    "and ratio-bound verdicts."
)


def _parse(argv: list[str]) -> SimpleNamespace | int:
    """The options of the command that ``argv`` names, as a namespace with
    ``command`` set; or the exit code once help (0) or a usage error (2)
    has been printed.  No command, an unknown one or an option before the
    command is an error under the usage line of all seven."""
    name = argv[0] if argv else ""
    command = _COMMANDS.get(name)
    if command is None:
        prog, about, options = "ellimatch", _ABOUT, ()
        positional = "{" + ",".join(_COMMANDS) + "} ..."
        commands = {n: c.help for n, c in _COMMANDS.items()}
    else:
        prog, about, options = f"ellimatch {name}", command.help, command.options
        positional, commands = "", {}
    try:
        if command is not None:
            values = read(options, argv[1:], command.exclusive)
            if values is not None:
                return SimpleNamespace(command=name, **values)
        elif not (name == "-h" or len(name) > 2 and "--help".startswith(name)):
            if not argv:
                problem = "a command is required"
            elif name.startswith("-"):
                problem = f"a command must come before the option {name!r}"
            else:
                problem = f"unknown command {name!r}"
            raise UsageError(f"{problem} (choose from {', '.join(_COMMANDS)})")
    except UsageError as e:
        print(usage(prog, options, positional), f"{prog}: error: {e}", sep="\n", file=sys.stderr)
        return EXIT_INPUT
    print(help_text(prog, about, options, positional, commands))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):  # help or a usage error, already printed
        return args
    try:
        return _COMMANDS[args.command].run(args)
    # the point-file, size-cap and JSON decode errors are all ValueErrors
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
