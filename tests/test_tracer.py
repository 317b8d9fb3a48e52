"""The benchmark's use of the package still holds.

``perfbench/tracer.py`` rebinds each function named in ``TARGETS``,
``perfbench/workloads.py`` checks every reported witness with the
package's ``optimality_certificate``, and ``perfbench/record_reference.py``
reads the exact and brute-force solvers from ``matching``.  A target,
certificate field or solver deleted or renamed in the package would
otherwise surface only as a failed benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from types import SimpleNamespace

from conftest import PERFBENCH, load_perfbench
from ellimatch import (
    InstanceSpec,
    Matching,
    PointSet,
    exact_max_sum,
    generate,
    minimize_h,
    optimality_certificate,
)


def test_every_trace_target_is_a_package_callable():
    tracer = load_perfbench("tracer")
    assert tracer.TARGETS
    for name in tracer.TARGETS:
        module, _, attr = name.partition(".")
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_matching_name_the_recorder_reads_resolves():
    # record_reference.py binds the package's matching module to the name
    # `matching`; every attribute it reads there must exist.
    tree = ast.parse((PERFBENCH / "record_reference.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "matching"
    }
    assert "exact_max_sum" in names
    module = importlib.import_module(f"{load_perfbench('tracer').PACKAGE}.matching")
    assert [n for n in sorted(names) if not hasattr(module, n)] == []


def test_witness_check_runs_on_the_package_certificate():
    # The namespace the benchmark's loader builds, from the package already
    # imported here.
    workloads = load_perfbench("workloads")
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
