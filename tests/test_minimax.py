"""The minimizer: a golden bank of results recorded bit for bit, the
Newton finish on the support and the stages that follow a declined one, the
underflow screen, which gives the same results as evaluating every piece on
every pass from a fraction of the evaluations, and the benchmark operations
whose solves it once failed to certify."""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

from conftest import (
    DOUBLED_TRIANGLE,
    SQUARE,
    compensated_sum,
    random_perfect_matching,
    square_diagonals,
    triangle_sides,
)
from ellimatch import (
    InstanceSpec,
    PointSet,
    check_tverberg_disks,
    descend,
    exact_max_sum,
    generate,
    local_search,
    minimize_h,
    minimize_h_over_edges,
    optimality_certificate,
)
from ellimatch import cli, minimax, witness


def _two_opt(n: int, seed: int):
    s = generate(InstanceSpec("uniform-square", n, seed))
    return s, local_search(s, random_perfect_matching(s, random.Random(seed)))


def _near_duplicate_pairs(n: int, seed: int) -> PointSet:
    rng = random.Random(seed)
    pts = []
    for _ in range(n // 2):
        p = (rng.random(), rng.random())
        pts += [p, (p[0] + 1e-9, p[1])]
    return PointSet.of(pts)


def _solves(run) -> tuple[list, list]:
    """What every minimize_max call made by run() computes, once screened
    and once with an infinite margin, under which every pass evaluates every
    piece: each Newton direction with its point, tau, weight sum and pieces
    of positive weight with their weights, then the result."""
    record: list = []
    minimize_max, direction = minimax.minimize_max, minimax._direction

    def recorded_solve(*args, **kwargs):
        record.append(minimize_max(*args, **kwargs))
        return record[-1]

    def recorded_direction(pieces, weights, total, x, tau):
        positive = tuple((p, w) for p, w in zip(pieces, weights) if w > 0.0)
        record.append((x, tau, total, positive, direction(pieces, weights, total, x, tau)))
        return record[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "minimize_max", recorded_solve)
        mp.setattr(witness, "minimize_max", recorded_solve)
        mp.setattr(minimax, "_direction", recorded_direction)
        run()
        screened = list(record)
        record.clear()
        mp.setattr(minimax, "_UNDERFLOW_MARGIN", math.inf)
        run()
    return screened, record


def _exact(generator: str, n: int, seed: int):
    s = generate(InstanceSpec(generator, n, seed))
    return s, exact_max_sum(s)


def _cases():
    s, m = _two_opt(200, 3)
    yield pytest.param(lambda: minimize_h(s, m), id="two-opt n=200")
    for generator in ("uniform-square", "gaussian", "clustered"):
        for seed in range(3):
            s_g, m_g = _exact(generator, 12, seed)
            yield pytest.param(
                lambda s=s_g, m=m_g: minimize_h(s, m), id=f"{generator} n=12 seed {seed}"
            )
    s_3, m_3 = _exact("gaussian", 12, 5)
    yield pytest.param(lambda: minimize_h_over_edges(s_3, m_3.pairs[:3]), id="three edges")
    s_d, m_d = _exact("uniform-square", 12, 2)
    yield pytest.param(lambda: check_tverberg_disks(s_d, m_d), id="disks")
    near = _near_duplicate_pairs(12, 1)
    m_near = exact_max_sum(near)
    yield pytest.param(lambda: minimize_h(near, m_near), id="near-duplicate pairs")
    far = PointSet.of([(1e12 + x, 1e12 + y) for x, y in generate(InstanceSpec("clustered", 12, 4))])
    m_far = exact_max_sum(far)
    yield pytest.param(lambda: minimize_h(far, m_far), id="offset 1e12")


@pytest.mark.parametrize(
    "call",
    [
        lambda: minimax.minimize_max([], (0.0, 0.0)),
        lambda: minimax.min_norm_point([], [], 1.0),
        lambda: minimize_h_over_edges(PointSet.of(SQUARE), []),
    ],
    ids=["minimize_max", "min_norm_point", "minimize_h_over_edges"],
)
def test_nothing_to_minimize_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("run", list(_cases()))
def test_screen_changes_no_result(run):
    screened, full = _solves(run)
    assert any(isinstance(r, minimax.MinimaxResult) for r in screened)
    # Every direction and every result field, the floats bit for bit.
    assert screened == full


def test_screen_on_duplicate_edges():
    # Edges 1e-9 long have a Lipschitz constant near 2e9, so the screen
    # spares almost nothing; it must still change nothing.
    s = _near_duplicate_pairs(12, 2)
    pairs = [(2 * k, 2 * k + 1) for k in range(3)] + [(6, 9), (7, 10), (8, 11)]
    screened, full = _solves(lambda: minimize_h_over_edges(s, pairs))
    assert screened == full


def test_screen_keeps_pieces_just_below_the_max():
    # Disk pieces 1e-14 to 3e-7 below the minimax value at the minimizer:
    # in each late stage some of them lie 30 to 745 tau below the max, where
    # their weights are tiny but not 0.0, so a screen with too small a
    # margin would drop them.
    s, m = _two_opt(200, 3)
    pieces, _, _ = witness._frame_pieces(s, m.pairs, witness._ratio_piece)
    x0 = (0.5, 0.5)
    best = minimax.minimize_max(pieces, x0)
    rng = random.Random(0)
    for e in range(-14, -6):
        for mantissa in (1.0, 3.0):
            c = (rng.random(), rng.random())
            gap = mantissa * 10.0**e + math.hypot(best.x[0] - c[0], best.x[1] - c[1])
            pieces.append((c, c, 2.0, best.value - gap))
    screened, full = _solves(lambda: minimax.minimize_max(pieces, x0))
    assert screened == full


def _evaluations(run) -> list[int]:
    """For every minimize_max call made by run(), its number of piece
    evaluations.  Each evaluation takes two distances with ``math.dist``, so
    they are counted from the profiler's ``c_call`` events of it."""
    calls: list[int] = []
    minimize_max = minimax.minimize_max

    def recorded_solve(*args, **kwargs):
        calls.append(0)
        return minimize_max(*args, **kwargs)

    def profile(frame, event, arg):
        if event == "c_call" and arg is math.dist and calls:
            calls[-1] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "minimize_max", recorded_solve)
        mp.setattr(witness, "minimize_max", recorded_solve)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
    assert all(c % 2 == 0 for c in calls), calls
    return [c // 2 for c in calls]


def test_screen_skips_most_evaluations(monkeypatch):
    s, m = _two_opt(200, 3)
    w = minimize_h(s, m)
    [screened] = _evaluations(lambda: minimize_h(s, m))
    # The same solve with every piece evaluated on every pass.
    monkeypatch.setattr(minimax, "_UNDERFLOW_MARGIN", math.inf)
    assert minimize_h(s, m) == w
    [full] = _evaluations(lambda: minimize_h(s, m))
    # Passes are full until half of the weights underflow, a few stages in,
    # and the finish follows stage 8, so about half of the passes are
    # screened: the ratio reads 0.42 to 0.60 on seeds 3 to 5.  The screen
    # must save at least a quarter of the evaluations.
    assert screened <= 0.75 * full, (screened, full)


def test_a_slope_that_underflows_to_zero_ends_the_stage():
    # The disk pieces that the disks check builds, in its frame, for the
    # points 0,0 0,0 0,0.5 0,0.5 0,1 -5e-324,1.  At the start, a minimizer,
    # the gradient is 1e-323 and its product with the step underflows, so
    # the slope is 0.0; dividing by it raised ZeroDivisionError.
    pieces = [
        ((5e-324, 0.25), (5e-324, 0.25), 2.0, -0.25),
        ((5e-324, 0.5), (5e-324, 0.5), 2.0, -0.5),
        ((0.0, 0.75), (0.0, 0.75), 2.0, -0.25),
    ]
    r = minimax.minimize_max(pieces, (5e-324, 0.5))
    assert r.value == 0.0
    assert r.converged


# ---------------------------------------------------------------- golden bank

GOLDEN = Path(__file__).with_name("minimax_golden.json")


def _encode(r: minimax.MinimaxResult) -> list:
    """Every field of a result, the floats as float.hex."""
    return [
        [c.hex() for c in r.x],
        r.value.hex(),
        list(r.active),
        [c.hex() for c in r.coefficients],
        r.residual.hex(),
        r.iterations,
        r.converged,
    ]


def _results(run) -> list:
    """The encoded result of every minimize_max call made by run()."""
    out: list = []
    minimize_max = minimax.minimize_max

    def recorded_solve(*args, **kwargs):
        r = minimize_max(*args, **kwargs)
        out.append(_encode(r))
        return r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "minimize_max", recorded_solve)
        mp.setattr(witness, "minimize_max", recorded_solve)
        run()
    return out


def _golden_runs():
    """(name, run) of the bank.  The inputs are built from seeds as the bank
    runs, so a bank run under a patched sum() builds them under it too."""
    for seed in range(4):
        s = generate(InstanceSpec("uniform-square", 20, seed))
        m = random_perfect_matching(s, random.Random(seed))
        yield f"descend n=20 seed {seed}", lambda s=s, m=m: minimize_h(s, m)
    s, m = _two_opt(200, 3)
    yield "two-opt n=200", lambda: minimize_h(s, m)
    for generator in ("uniform-square", "gaussian", "clustered"):
        for seed in (0, 2):
            s_g, m_g = _exact(generator, 12, seed)
            yield f"{generator} n=12 seed {seed}", lambda s=s_g, m=m_g: minimize_h(s, m)
    s_h, m_h = _exact("gaussian", 12, 5)
    for k in (2, 3):
        yield f"helly {k} edges", lambda k=k: minimize_h_over_edges(s_h, m_h.pairs[:k])
    s_d, m_d = _exact("uniform-square", 12, 2)
    yield "disks", lambda: check_tverberg_disks(s_d, m_d)
    near = _near_duplicate_pairs(12, 1)
    m_near = exact_max_sum(near)
    yield "near-duplicate pairs", lambda: minimize_h(near, m_near)
    cluster = generate(InstanceSpec("clustered", 12, 4))
    far = PointSet.of([(1e12 + x, 1e12 + y) for x, y in cluster])
    m_far = exact_max_sum(far)
    yield "offset 1e12", lambda: minimize_h(far, m_far)
    yield "doubled triangle", lambda: minimize_h(DOUBLED_TRIANGLE, triangle_sides())
    # Both diagonals pass through the center, where the ratio floor 1 ends
    # the solve.
    yield "square at the value floor", lambda: minimize_h(SQUARE, square_diagonals())


def _golden_bank() -> dict[str, list]:
    return {name: _results(run) for name, run in _golden_runs()}


def _golden(part: str) -> dict[str, list]:
    """The bank's "results", or its "fallback": the results of the solver
    before the finish was added, without ``iterations``."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[part]


def test_golden_bank():
    assert _golden_bank() == _golden("results")


@pytest.mark.parametrize(
    "decline",
    [lambda support, mu, x: None, lambda support, mu, x: (x[0] + 1.0, x[1])],
    ids=["no end point", "an end point above x"],
)
def test_a_declined_finish_leaves_the_stages_as_they_were(monkeypatch, decline):
    # The remaining stages go on from the point and screen anchor that the
    # finish left untouched; only ``iterations`` counts its passes.
    monkeypatch.setattr(minimax, "_support_vertex", decline)
    staged = {name: [r[:5] + r[6:] for r in results] for name, results in _golden_bank().items()}
    assert staged == _golden("fallback")


def _calls(run) -> list:
    """(pieces, x0) of every minimize_max call made by run()."""
    calls: list = []
    minimize_max = minimax.minimize_max

    def recorded_solve(pieces, x0):
        calls.append((pieces, x0))
        return minimize_max(pieces, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "minimize_max", recorded_solve)
        mp.setattr(witness, "minimize_max", recorded_solve)
        run()
    return calls


@pytest.mark.parametrize(
    "name, size",
    [("descend n=20 seed 1", 2), ("uniform-square n=12 seed 0", 3), ("disks", 2)],
)
def test_finish_ends_on_the_vertex_of_its_support(monkeypatch, name, size):
    # Newton's method on the support's optimality system closes the bracket
    # to rounding, at a max no higher than the remaining stages reach.  The
    # disks check's pieces (c, c, 2, -r) take the same finish.
    [(pieces, x0)] = _calls(dict(_golden_runs())[name])
    ends = []
    support_vertex = minimax._support_vertex

    def recorded(support, mu, x):
        ends.append(support_vertex(support, mu, x))
        return ends[-1]

    monkeypatch.setattr(minimax, "_support_vertex", recorded)
    r = minimax.minimize_max(pieces, x0)
    assert ends == [r.x]
    _, _, coeffs, _, gap, certified = minimax._certificate(pieces, r.x)
    assert certified and gap <= 1e-15
    assert len([c for c in coeffs if c > 0.0]) == size
    monkeypatch.setattr(minimax, "_support_vertex", lambda support, mu, x: None)
    assert r.value <= minimax.minimize_max(pieces, x0).value


def test_full_pass_values_are_the_piece_formula_bit_for_bit():
    # A full pass evaluates its pieces in one comprehension, _values; it
    # must give _value's floats, and those of the two hypots of coordinate
    # differences that math.dist stands for.
    solves: list = []
    minimize_max = minimax.minimize_max

    def recorded_solve(pieces, x0):
        r = minimize_max(pieces, x0)
        solves.append((pieces, [x0, r.x]))
        return r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "minimize_max", recorded_solve)
        mp.setattr(witness, "minimize_max", recorded_solve)
        for _, run in _golden_runs():
            run()
    rng = random.Random(0)
    for pieces, points in solves:
        points += [c for p in pieces for c in p[:2]]
        points += [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(20)]
        for y in points:
            by_pass = [v.hex() for v in minimax._values(pieces, y)]
            by_piece = [minimax._value(p, y).hex() for p in pieces]
            by_hypot = [
                ((math.hypot(y[0] - a[0], y[1] - a[1]) + math.hypot(y[0] - b[0], y[1] - b[1])) / s + beta).hex()
                for a, b, s, beta in pieces
            ]
            assert by_pass == by_piece == by_hypot, (pieces, y)


def test_golden_bank_under_compensated_sum(monkeypatch):
    # Python 3.12's sum() rounds float totals differently from 3.11's; a
    # package float total written as sum() would change bits here.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ellimatch":
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert _golden_bank() == _golden("results")


# ------------------------------------------------------ benchmark operations


def _benchmark_points(n: int, key: str) -> PointSet:
    """The points of the benchmark's instance ``uniform-square/<n>/<key>``."""
    rng = random.Random(f"uniform-square/{n}/{key}")
    return PointSet.of([(rng.random(), rng.random()) for _ in range(n)])


# twoopt-n200 operations, as (instance key, init seed), whose witness solve
# reached the optimum but was refused there: of four active pieces, three
# lie within 2.2e-14 of the max and one 1.7e-7 to 9.3e-7 below it, and two
# gradient triangles tie near the origin.  The nearer one put weight on the
# low piece, which left the bracket 9.4e-9 to 2.7e-7 wide.
TIED_TRIANGLES = [
    ("458825077.40", 40),
    ("485147340.49", 49),
    ("2356625382.46", 46),
    ("1969700810.73", 73),
    ("2354319937.79", 79),
    ("465855244.18", 18),
]


@pytest.mark.parametrize("key, init_seed", TIED_TRIANGLES)
def test_two_opt_witness_with_tied_triangles_converges(key, init_seed):
    s = _benchmark_points(200, key)
    m = local_search(s, cli._start_matching(s, init_seed))
    w = minimize_h(s, m)
    assert w.converged
    assert optimality_certificate(s, m, w.o_star).ok


def test_certificate_takes_the_tied_triangle_with_the_higher_lower_end():
    # The four active pieces and the end point of the solve of instance
    # 465855244.18 above, in its frame.  Piece 0 lies 7.2e-7 below the max,
    # the others within 1e-14 of it; triangles (0, 1, 2) and (1, 2, 3) both
    # hold the origin within rounding.
    h = float.fromhex
    pieces = [
        ((h("0x1.c1192f182d1dcp-2"), h("0x1.2967a761e5fcbp-1")),
         (h("0x1.43009a450cbd2p-1"), h("0x1.3fb95376ef2a1p-3")), h("0x1.dd7161aa90a14p-2"), 0.0),
        ((h("0x1.0190c9dc86f6cp-1"), h("0x1.31b111dd575cep-1")),
         (h("0x1.157644cf31293p-1"), h("0x1.f72cfb46859e1p-4")), h("0x1.e73797eebc8a1p-2"), 0.0),
        ((h("0x1.1be8bc2ee786fp-1"), h("0x1.1bae589614a6cp-1")),
         (h("0x1.94dd4887c0ac5p-3"), h("0x1.4d199f018b656p-2")), h("0x1.b208be5d7dfc7p-2"), 0.0),
        ((h("0x1.3972aac99dda6p-1"), h("0x1.8f9ad0a02c661p-3")),
         (h("0x1.c521143849638p-2"), h("0x1.2789e01b5068ap-1")), h("0x1.ac1feed87400dp-2"), 0.0),
    ]
    x = (h("0x1.fa25ce9858cc6p-2"), h("0x1.fe187b3188a36p-2"))
    f, active, coeffs, residual, gap, certified = minimax._certificate(pieces, x)
    assert active == [0, 1, 2, 3]
    assert coeffs[0] == 0.0 and min(coeffs[1:]) > 0.0
    assert residual < 1e-15
    assert certified and gap <= minimax.GAP_REL * f


def test_the_bracket_never_rises_above_the_minimum():
    # The lower end f - gap of the bracket is a bound on the minimum of the
    # max at every point, the Helly verdict's sub-value among them.  The
    # minimum is bounded above by the value of a solve certified to
    # rounding; points are drawn around its end point at distances 1e-6 to
    # 1 of the frame, on exact and on random matchings.  With the ellipse
    # axis of the bound halved, 18 of these points rise above it.
    for generator in ("uniform-square", "gaussian", "clustered"):
        for n in range(6, 17, 2):
            for seed in range(10):
                s = generate(InstanceSpec(generator, n, seed))
                rng = random.Random(f"{generator}/{n}/{seed}")
                for m in (exact_max_sum(s), random_perfect_matching(s, rng)):
                    res, _ = witness.solve_in_frame(s, m.pairs, witness._ratio_piece)
                    pieces, _, _ = witness._frame_pieces(s, m.pairs, witness._ratio_piece)
                    f_min, _, _, _, gap, _ = minimax._certificate(pieces, res.x)
                    assert gap <= 1e-12 * max(1.0, f_min)
                    for _ in range(30):
                        r, angle = 10.0 ** -rng.uniform(0.0, 6.0), rng.uniform(0.0, 2.0 * math.pi)
                        x = (res.x[0] + r * math.cos(angle), res.x[1] + r * math.sin(angle))
                        f, _, _, _, gap, _ = minimax._certificate(pieces, x)
                        assert f - gap <= f_min + 1e-15 * max(1.0, f_min), (generator, n, seed, x)


def test_descend_benchmark_operation_converges():
    # descend-n20, seed 27, operation 30.  Its first witness solve has a
    # 2-edge support; the stages alone end within 3.1e-14 of the minimum but
    # with a residual of 9.7e-7, which left the bracket 3.5e-8 wide.
    s = _benchmark_points(20, "2785274337.30")
    assert descend(s, cli._start_matching(s, 30)).ok
