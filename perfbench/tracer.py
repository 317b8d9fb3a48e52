"""In-memory spans around the program's layer functions, recorded from the
benchmark's side: each function is rebound, at every module attribute that
holds it, to a wrapper that times the call.  No program file changes.

A span is ``[run, name, start, end, parent, attrs]``: the index of the
traced run of an operation it belongs to, the layer function, perf_counter
times, the index of the enclosing span (-1 at the top) and the counts taken
from the return value or the raised exception.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Counts kept from a return value; every span also records a raised
# exception's type under "error".
_OBSERVERS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "minimax.minimize_max": lambda r: {"evals": r.iterations, "unconverged": not r.converged},
    "witness.minimize_h_over_edges": lambda r: {
        # Every witness result comes from here, minimize_h included.
        "support_missing": r.lambda_star > 1.0 + 1e-9 and r.support is None
    },
    "descent.descend": lambda r: {"steps": len(r.trace), "not_ok": not r.ok},
    "descent.find_alternating_cycle": lambda r: {"found": r is not None},
}

# The layer boundaries: module-level functions of each module, plus the
# report serializer.  Hot leaf helpers (geometry, improvement_threshold)
# are left out: wrapping them would cost more than the work they do.
TARGETS = (
    "cli.main",
    "instances.load_points",
    "report.Report.to_json",
    "matching.exact_max_sum",
    "matching.local_search",
    "minimax.minimize_max",
    "witness.minimize_h",
    "witness.minimize_h_over_edges",
    "witness.steiner_star",
    "witness.caratheodory_support",
    "descent.descend",
    "descent.build_graph",
    "descent.find_alternating_cycle",
    "descent.apply_cycle",
    "verify.check_fingerhut",
    "verify.check_theorem",
    "verify.check_helly_triples",
    "verify.check_suri",
    "verify.check_tverberg_disks",
)

PACKAGE = "ellimatch"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._run = -1  # recording only while a traced run is open
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def begin(self, run: int) -> None:
        self._run = run

    def end(self) -> None:
        self._run = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._run < 0:
                return fn(*args, **kwargs)
            span = [self._run, name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[5]["error"] = type(e).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span[5].update(observe(result))
            return result

        return wrapper

    # ------------------------------------------------------------ rebinding

    def install(self) -> None:
        """Rebind every target at each attribute of the package's modules
        (and the class, for methods) that holds the original function."""
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name in TARGETS:
            module_name, _, attr = name.partition(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original)
            holders = [(owner, leaf)] if outer else []
            holders += [(m, k) for m in modules for k, v in list(vars(m).items()) if v is original]
            for holder, key in holders:
                self._undo.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def layer_metrics(self, runs: int) -> dict[str, float]:
        """Per-layer metrics over the recorded spans; counts and self times
        are per traced run."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        count: dict[str, float] = defaultdict(float)
        evals: list[int] = []
        for span, own in zip(self.spans, self.self_times()):
            name, attrs = span[1], span[5]
            calls[name] += 1
            self_s[name] += own
            for key, value in attrs.items():
                count[f"{name}.{key}"] += value if key != "error" else 1
            if name == "minimax.minimize_max":
                evals.append(attrs["evals"])
            parent = self.spans[span[4]][1] if span[4] >= 0 else None
            if name == "witness.minimize_h_over_edges" and parent == "verify.check_helly_triples":
                count["verify.check_helly_triples.subsolves"] += 1

        per_op = 1.0 / max(runs, 1)
        m: dict[str, float] = {}
        for name in TARGETS:
            m[f"{name}.calls"] = calls[name] * per_op
            m[f"{name}.self_s"] = self_s[name] * per_op
        m["minimax.minimize_max.evals"] = count["minimax.minimize_max.evals"] * per_op
        m["minimax.minimize_max.evals_per_call_p50"] = float(statistics.median(evals)) if evals else 0.0
        m["minimax.minimize_max.unconverged"] = count["minimax.minimize_max.unconverged"] * per_op
        m["witness.caratheodory_support.errors"] = count["witness.caratheodory_support.error"] * per_op
        m["witness.support_missing"] = count["witness.minimize_h_over_edges.support_missing"] * per_op
        m["descent.descend.steps"] = count["descent.descend.steps"] * per_op
        m["descent.descend.not_ok"] = count["descent.descend.not_ok"] * per_op
        m["descent.build_graph.rejected"] = count["descent.build_graph.error"] * per_op
        found = count["descent.find_alternating_cycle.found"]
        searches = calls["descent.find_alternating_cycle"]
        m["descent.find_alternating_cycle.found_ratio"] = found / searches if searches else 0.0
        m["verify.check_helly_triples.subsolves"] = count["verify.check_helly_triples.subsolves"] * per_op
        return m

    def run_self_sums(self) -> dict[int, float]:
        """Summed self time of each traced run's spans."""
        out: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[0]] += own
        return out
