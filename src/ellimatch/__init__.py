"""Max-sum matchings of planar point sets, minimax witness points, and
ellipse-intersection certificates."""

from .config import DEFAULT_THEOREM_TOL, theorem_tol
from .descent import (
    AlternatingCycle,
    BicoloredGraph,
    DescentResult,
    DescentStep,
    apply_cycle,
    build_graph,
    descend,
    find_alternating_cycle,
)
from .geom import (
    EPS_GEO,
    RATIO_BOUND,
    DegenerateEdgeError,
    FocusError,
    Point,
    ZeroVectorError,
    angle_directed,
    angle_undirected,
    bisector_point,
    dist,
    f_ratio,
    grad_h,
    h_ratio,
    in_ellipse,
    in_lens,
)
from .instances import (
    GENERATORS,
    InstanceSpec,
    OddCountError,
    PointParseError,
    generate,
    load_points,
    save_points,
)
from .matching import (
    Matching,
    PointSet,
    SizeCapError,
    brute_force_max_sum,
    cost,
    exact_max_sum,
    local_search,
)
from .report import Report
from .svgfig import render_svg
from .verify import (
    Verdict,
    check_fingerhut,
    check_helly_triples,
    check_suri,
    check_theorem,
    check_tverberg_disks,
)
from .witness import (
    EPS_CERT,
    CertificateResult,
    WitnessResult,
    caratheodory_support,
    minimize_h,
    minimize_h_over_edges,
    optimality_certificate,
    steiner_star,
)

__version__ = "0.1.0"
