"""The minimizer's underflow screen: the same results as evaluating every
piece on every pass, from a fraction of the evaluations."""

from __future__ import annotations

import math
import random

import pytest

from conftest import count_calls, random_perfect_matching
from ellimatch import (
    InstanceSpec,
    PointSet,
    check_tverberg_disks,
    exact_max_sum,
    generate,
    local_search,
    minimize_h,
    minimize_h_over_edges,
)
from ellimatch import minimax, witness


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
    piece: each Newton direction with its point, tau and pieces of positive
    weight with their weights, then the result."""
    record: list = []
    minimize_max, direction = minimax.minimize_max, minimax._direction

    def recorded_solve(*args, **kwargs):
        record.append(minimize_max(*args, **kwargs))
        return record[-1]

    def recorded_direction(pieces, weights, x, tau):
        positive = tuple((p, w) for p, w in zip(pieces, weights) if w > 0.0)
        record.append((x, tau, positive, direction(pieces, weights, x, tau)))
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
    best = minimax.minimize_max(pieces, x0, value_floor=1.0)
    rng = random.Random(0)
    for e in range(-14, -6):
        for mantissa in (1.0, 3.0):
            c = (rng.random(), rng.random())
            gap = mantissa * 10.0**e + math.hypot(best.x[0] - c[0], best.x[1] - c[1])
            pieces.append((c, c, 2.0, best.value - gap))
    screened, full = _solves(lambda: minimax.minimize_max(pieces, x0, value_floor=1.0))
    assert screened == full


def test_screen_skips_most_evaluations(monkeypatch):
    s, m = _two_opt(200, 3)
    counts = count_calls(monkeypatch, minimax._piece_value)
    w = minimize_h(s, m)
    k = len(m.pairs)
    # Every piece on every pass would be k * iterations evaluations.
    assert counts["_piece_value"] <= 0.4 * k * w.iterations, (counts, w.iterations)
