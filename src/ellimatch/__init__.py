"""Max-sum matchings of planar point sets, minimax witness points, and
ellipse-intersection certificates.

The public names below are loaded on first use (PEP 562): ``import
ellimatch`` runs no submodule, and ``from ellimatch import descend`` runs
only the modules that ``descend`` needs.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

# Each defining module and the public names it exports.
_MODULE_EXPORTS = {
    "descent": (
        "AlternatingCycle",
        "BicoloredGraph",
        "DescentResult",
        "DescentStep",
        "apply_cycle",
        "build_graph",
        "descend",
        "find_alternating_cycle",
    ),
    "geom": (
        "DEFAULT_THEOREM_TOL",
        "EPS_GEO",
        "RATIO_BOUND",
        "DegenerateEdgeError",
        "Point",
        "ZeroVectorError",
        "angle_undirected",
        "bisector_point",
        "dist",
        "f_ratio",
        "h_ratio",
        "in_lens",
    ),
    "instances": (
        "GENERATORS",
        "InstanceSpec",
        "OddCountError",
        "PointParseError",
        "generate",
        "load_points",
        "save_points",
    ),
    "matching": (
        "Matching",
        "PointSet",
        "SizeCapError",
        "brute_force_max_sum",
        "exact_max_sum",
        "local_search",
    ),
    "minimax": ("GAP_REL",),
    "report": ("Report",),
    "svgfig": ("render_svg",),
    "verify": (
        "Verdict",
        "check_fingerhut",
        "check_helly_triples",
        "check_suri",
        "check_theorem",
        "check_tverberg_disks",
    ),
    "witness": (
        "CertificateResult",
        "WitnessResult",
        "caratheodory_support",
        "minimize_h",
        "minimize_h_over_edges",
        "optimality_certificate",
        "steiner_star",
    ),
}
_HOME = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
