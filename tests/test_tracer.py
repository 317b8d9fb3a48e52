"""The benchmark's use of the package still holds.

``perfbench/tracer.py`` rebinds each function named in ``TARGETS``, and
``perfbench/workloads.py`` checks every reported witness with the
package's ``optimality_certificate``.  A target or certificate field
deleted or renamed in the package would otherwise surface only as a failed
benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from ellimatch import (
    InstanceSpec,
    Matching,
    PointSet,
    exact_max_sum,
    generate,
    minimize_h,
    optimality_certificate,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_package_callable():
    tracer = load("perfbench_tracer", TRACER)
    assert tracer.TARGETS
    for name in tracer.TARGETS:
        module, _, attr = name.partition(".")
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_witness_check_runs_on_the_package_certificate():
    # The namespace the benchmark's loader builds, from the package already
    # imported here.
    workloads = load("perfbench_workloads", WORKLOADS)
    lib = SimpleNamespace(
        PointSet=PointSet, Matching=Matching, optimality_certificate=optimality_certificate
    )
    s = generate(InstanceSpec("uniform-square", 12, 0))
    pts = [tuple(p) for p in s]
    m = exact_max_sum(s)
    pairs = [list(p) for p in m.pairs]
    w = minimize_h(s, m)
    assert w.converged
    error = workloads.witness_error(
        lib, pts, pairs, list(w.o_star), w.lambda_star, True, bounded=True
    )
    assert error is None
    # off the witness, with the true ratio there, only the certificate fails
    o = [w.o_star[0] + 0.05, w.o_star[1]]
    h = workloads.own_ratio(pts, pairs, o)
    error = workloads.witness_error(lib, pts, pairs, o, h, True, bounded=False)
    assert error is not None
    assert error.startswith("optimality certificate fails at o_star")
