"""Acceptance criteria for the whole artifact.

Each test covers one numbered criterion at its stated tolerance and prints a
single PASS line when it holds (run with ``pytest -v -s`` to see them).
"""

from __future__ import annotations

import math
import random
import time

from conftest import (
    DOUBLED_TRIANGLE,
    TRIANGLE_CENTROID,
    max_ratio,
    piece_derivatives,
    random_perfect_matching,
    triangle_sides,
)
from ellimatch import (
    RATIO_BOUND,
    BicoloredGraph,
    InstanceSpec,
    brute_force_max_sum,
    check_fingerhut,
    check_helly_triples,
    check_suri,
    descend,
    dist,
    exact_max_sum,
    find_alternating_cycle,
    generate,
    h_ratio,
    in_lens,
    f_ratio,
    minimize_h,
    steiner_star,
)
from ellimatch.minimax import _values

SIZES = (4, 6, 8, 10, 12)


def test_criterion_1_theorem_reproduction():
    start = time.perf_counter()
    worst = -math.inf
    for seed in range(200):
        s = generate(InstanceSpec("uniform-square", SIZES[seed % 5], seed))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        assert w.converged, f"solver failed on seed {seed}"
        assert w.lambda_star <= RATIO_BOUND + 1e-6, (seed, w.lambda_star)
        worst = max(worst, w.lambda_star)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s exceeds the 60s budget"
    print(
        f"PASS criterion 1: 200 max-sum witnesses below 2/sqrt(3)+1e-6 "
        f"(worst lambda*={worst:.9f}, {elapsed:.1f}s)"
    )


def test_criterion_2_tightness():
    w = minimize_h(DOUBLED_TRIANGLE, triangle_sides())
    assert abs(w.lambda_star - RATIO_BOUND) <= 1e-7
    assert dist(w.o_star, TRIANGLE_CENTROID) <= 1e-6
    v = check_fingerhut(DOUBLED_TRIANGLE, triangle_sides(), w.o_star)
    assert abs(v.margin) <= 1e-7
    print(
        f"PASS criterion 2: doubled triangle tight "
        f"(lambda*-bound={w.lambda_star - RATIO_BOUND:.2e}, margin={v.margin:.2e})"
    )


def test_criterion_3_oracle_equivalence():
    for seed in range(50):
        s = generate(InstanceSpec("uniform-square", (4, 6, 8, 10)[seed % 4], seed))
        assert exact_max_sum(s).cost == brute_force_max_sum(s).cost, seed
    print("PASS criterion 3: DP cost equals brute-force cost exactly on 50 instances")


def _central_differences(f, x, step):
    """Central differences along x and along y at x of f, a map from points
    to tuples of floats."""
    return [
        tuple(
            (hi - lo) / (2 * step)
            for hi, lo in zip(f((x[0] + ex, x[1] + ey)), f((x[0] - ex, x[1] - ey)))
        )
        for ex, ey in ((step, 0.0), (0.0, step))
    ]


def test_criterion_4_gradient_correctness():
    # The ratio of edge ab is the minimizer's piece (a, b, |ab|, 0): the
    # gradient and Hessian checked here come from the code its Newton steps
    # and its certificate run, against differences of its value code.
    rng = random.Random(12345)
    step = 1e-6
    checked = 0
    worst_g = worst_h = 0.0
    while checked < 100:
        a = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        x = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if dist(a, b) < 0.1 or dist(x, a) < 0.1 or dist(x, b) < 0.1:
            continue
        s = dist(a, b)
        piece = (a, b, s, 0.0)
        g, (hxx, hxy, hyy), ball = piece_derivatives(piece, x)
        assert ball == 0.0
        (fx,), (fy,) = _central_differences(lambda y: _values([piece], y), x, step)
        rel = math.hypot(g[0] - fx, g[1] - fy) / max(1e-12, math.hypot(*g))
        assert rel <= 1e-6, (a, b, x, rel)
        # The gradient's differences along x and along y are the Hessian's rows.
        (dxx, dxy), (dyx, dyy) = _central_differences(
            lambda y: piece_derivatives(piece, y)[0], x, step
        )
        err = math.hypot(hxx - dxx, hxy - dxy, hxy - dyx, hyy - dyy)
        rel_h = err / max(1e-12, math.hypot(hxx, hxy, hxy, hyy))
        assert rel_h <= 1e-6, (a, b, x, rel_h)
        # At a focus c the other term alone is a subgradient: the unit vector
        # from the other focus to c, over s.  The focus adds a ball of
        # radius 1/s.
        for c, other in ((a, b), (b, a)):
            gc, _, ball = piece_derivatives(piece, c)
            expected = ((c[0] - other[0]) / s / s, (c[1] - other[1]) / s / s)
            assert math.hypot(gc[0] - expected[0], gc[1] - expected[1]) <= 1e-12 / s
            assert ball == 1.0 / s
        worst_g, worst_h = max(worst_g, rel), max(worst_h, rel_h)
        checked += 1
    print(
        f"PASS criterion 4: the solver's gradient and Hessian match FD on 100 configs "
        f"(worst rel {worst_g:.2e} and {worst_h:.2e}), and the focus subgradient holds"
    )


def test_criterion_5_certificate_soundness():
    rng = random.Random(777)
    probed = 0
    for seed in range(20):
        s = generate(InstanceSpec("uniform-square", SIZES[seed % 5], seed + 50))
        m = exact_max_sum(s)
        w = minimize_h(s, m)
        assert w.residual <= 1e-7, (seed, w.residual)
        for _ in range(100):
            weights = [rng.random() for _ in range(len(s))]
            tot = sum(weights)
            p = (
                sum(wt * q[0] for wt, q in zip(weights, s)) / tot,
                sum(wt * q[1] for wt, q in zip(weights, s)) / tot,
            )
            assert max_ratio(s, m.pairs, p) >= w.lambda_star - 1e-5, (seed, p)
            probed += 1
    print(f"PASS criterion 5: {probed} hull probes never beat a certified witness")


def test_criterion_6_descent_monotone_and_successful():
    rng = random.Random(2024)
    total_steps = 0
    for seed in range(50):
        s = generate(InstanceSpec("uniform-square", SIZES[seed % 5], seed + 900))
        init = random_perfect_matching(s, rng)
        result = descend(s, init)
        assert result.ok, (seed, result.status)
        assert result.witness.lambda_star <= RATIO_BOUND + 1e-6
        costs = [init.cost] + [st.cost for st in result.trace]
        for before, after in zip(costs, costs[1:]):
            assert after > before + 1e-12, (seed, before, after)
        total_steps += len(result.trace)
    print(
        f"PASS criterion 6: 50 descents terminated unflagged "
        f"({total_steps} strictly improving swaps)"
    )


def test_criterion_7_lens_contained_in_ellipse():
    rng = random.Random(31)
    alpha = 2 * math.pi / 3
    hits = 0
    while hits < 1000:
        x = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if dist(x, y) < 0.05:
            continue
        mx, my = (x[0] + y[0]) / 2, (x[1] + y[1]) / 2
        r = 0.75 * dist(x, y)
        z = (mx + rng.uniform(-r, r), my + rng.uniform(-r, r))
        if not in_lens(x, y, alpha, z):
            continue
        assert h_ratio(x, y, z) <= RATIO_BOUND + 1e-9, (x, y, z)
        hits += 1
    print("PASS criterion 7: 1000 lens members all inside the 2/sqrt(3) ellipse")


def test_criterion_8_interior_point_monotonicity():
    rng = random.Random(47)
    checked = 0
    while checked < 1000:
        x = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        cross = x[0] * y[1] - x[1] * y[0]
        if math.hypot(*x) < 1e-2 or math.hypot(*y) < 1e-2 or abs(cross) < 1e-3:
            continue
        t = rng.uniform(1e-3, 1 - 1e-3)
        z = (x[0] + t * (y[0] - x[0]), x[1] + t * (y[1] - x[1]))
        assert f_ratio(x, z) > f_ratio(x, y) - 1e-12, (x, y, z)
        checked += 1
    print("PASS criterion 8: 1000 interior points strictly increase the ratio")


def test_criterion_9_steiner_star_bound():
    for seed in range(100):
        s = generate(InstanceSpec("uniform-square", SIZES[seed % 5], seed + 400))
        m = exact_max_sum(s)
        _, t, _ = steiner_star(s)
        scale = max(1.0, m.cost)
        assert t <= RATIO_BOUND * m.cost + 1e-6 * scale, (seed, t, m.cost)
    v = check_suri(DOUBLED_TRIANGLE, exact_max_sum(DOUBLED_TRIANGLE))
    assert abs(v.margin) <= 1e-7
    print(
        f"PASS criterion 9: star bound holds on 100 instances, "
        f"doubled-triangle equality margin={v.margin:.2e}"
    )


def test_criterion_10_helly_triple_consistency():
    for seed in range(50):
        s = generate(InstanceSpec("uniform-square", SIZES[seed % 5], seed + 150))
        m = exact_max_sum(s)
        v = check_helly_triples(s, m, minimize_h(s, m))
        assert v.passed, (seed, v.details["support"], v.details["support_lambda"])
    print("PASS criterion 10: support-triple verdict agrees with the global verdict on 50 instances")


def test_criterion_11_no_alternating_cycle_negative_control():
    # 6 vertices a1 b1 a2 b2 a3 b3 (indices 0..5), blue matching pairs
    # {a1b1, a2b2, a3b3}, red {a1a2, a1b2, b1a3, b1b3}: no alternating cycle
    g = BicoloredGraph(
        point_ids=(0, 1, 2, 3, 4, 5),
        blue_edges=((0, 1), (2, 3), (4, 5)),
        red_edges=((0, 2), (0, 3), (1, 4), (1, 5)),
    )
    assert find_alternating_cycle(g) is None
    print("PASS criterion 11: blocking graph structure yields no alternating cycle")
