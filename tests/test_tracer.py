"""The benchmark tracer's layer targets exist in the package.

``perfbench/tracer.py`` rebinds each function named in ``TARGETS``; a
target deleted or renamed in the package would otherwise surface only in
the slow benchmark self-test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name in tracer.TARGETS:
        module, _, attr = name.partition(".")
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
