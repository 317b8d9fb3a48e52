"""Outcomes do not change under similarity transforms that are exact in floats.

The ratios |a-x| + |b-x| / |a-b| depend only on ratios of distances, so
translating, scaling or rotating an instance must leave descent statuses,
step counts, pairs and verdicts unchanged.  Points lie on the 1/8 grid of
[0, 64)^2, where a translation by 2^49, scaling by a power of two and a
quarter turn are all exact.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import certificate_edges, max_ratio
from ellimatch import (
    DegenerateEdgeError,
    InstanceSpec,
    Matching,
    PointSet,
    check_fingerhut,
    check_helly_triples,
    check_suri,
    check_theorem,
    check_tverberg_disks,
    descend,
    exact_max_sum,
    generate,
    minimize_h,
    optimality_certificate,
)

TRANSFORMS = {
    "translate 2^49": lambda p: (p[0] + 2.0**49, p[1] + 2.0**49),
    "scale 2^-60": lambda p: (p[0] * 2.0**-60, p[1] * 2.0**-60),
    "scale 2^40": lambda p: (p[0] * 2.0**40, p[1] * 2.0**40),
    "rotate 90": lambda p: (-p[1], p[0]),
}

grid = st.integers(0, 511).map(lambda k: k / 8.0)
grid_sets = st.lists(st.tuples(grid, grid), min_size=12, max_size=12).map(PointSet.of)


def sequential(s: PointSet) -> Matching:
    return Matching.from_pairs(s, [(k, k + 1) for k in range(0, len(s), 2)])


def descent_outcome(s: PointSet) -> tuple:
    r = descend(s, sequential(s))
    return r.status, len(r.trace), r.matching.pairs


def verify_outcome(s: PointSet) -> tuple[tuple, list[float]]:
    """(pairs and pass flags, ratio values) of all five checks, or the error
    raised on a degenerate matching."""
    m = exact_max_sum(s)
    try:
        w = minimize_h(s, m)
        fingerhut = check_fingerhut(s, m, w.o_star)
    except DegenerateEdgeError:
        return (m.pairs, "degenerate"), []
    theorem = check_theorem(m, w)
    helly = check_helly_triples(s, m, w)
    flags = [v.passed for v in (fingerhut, theorem, helly, check_suri(s, m), check_tverberg_disks(s, m))]
    lambdas = [theorem.details["lambda_star"], helly.details["support_lambda"]]
    return (m.pairs, flags), lambdas


@settings(max_examples=25, deadline=None)
@given(grid_sets)
def test_descent_invariant_under_exact_similarity(s):
    expected = descent_outcome(s)
    for name, f in TRANSFORMS.items():
        assert descent_outcome(PointSet.of([f(p) for p in s])) == expected, name


@settings(max_examples=10, deadline=None)
@given(grid_sets)
def test_verdicts_invariant_under_exact_similarity(s):
    expected, lambdas = verify_outcome(s)
    for name, f in TRANSFORMS.items():
        got, got_lambdas = verify_outcome(PointSet.of([f(p) for p in s]))
        assert got == expected, name
        for a, b in zip(got_lambdas, lambdas):
            assert a == pytest.approx(b, rel=1e-12), name


def test_descent_at_huge_offset():
    # Ten points of spread 64 at offset 1e15, where floats step by 1/8:
    # subtracting the offset is exact, so both sets must descend alike.
    rng = random.Random(0)
    far = PointSet.of([(1e15 + 64 * rng.random(), 1e15 + 64 * rng.random()) for _ in range(10)])
    near = PointSet.of([(x - 1e15, y - 1e15) for x, y in far])
    outcome = descent_outcome(near)
    assert outcome[:2] == ("ok", 1)
    assert descent_outcome(far) == outcome


def test_descent_at_tiny_scale():
    # A zero-edge floor at absolute scale once flagged this valid instance
    # as degenerate_edges.
    s = generate(InstanceSpec("uniform-square", 10, 3))
    k = 2.0**-40
    tiny = PointSet.of([(k * x, k * y) for x, y in s])
    r, rt = descend(s, sequential(s)), descend(tiny, sequential(tiny))
    assert r.status == rt.status == "ok"
    assert rt.matching.pairs == r.matching.pairs
    assert [step.cost for step in rt.trace] == [k * step.cost for step in r.trace]
    assert rt.witness.o_star == (k * r.witness.o_star[0], k * r.witness.o_star[1])
    assert rt.witness.lambda_star == r.witness.lambda_star


def test_witness_queries_at_tiny_scale():
    # An absolute floor on the edge length once made the point queries
    # raise DegenerateEdgeError here, though the witness itself solves.
    s = generate(InstanceSpec("uniform-square", 10, 3))
    k = 2.0**-40
    tiny = PointSet.of([(k * x, k * y) for x, y in s])
    m = exact_max_sum(s)
    mt = Matching.from_pairs(tiny, m.pairs)
    w, wt = minimize_h(s, m), minimize_h(tiny, mt)
    cert = optimality_certificate(tiny, mt, wt.o_star)
    assert certificate_edges(cert) == (1, 2, 3)
    assert cert.lambda_at == pytest.approx(max_ratio(s, m.pairs, w.o_star), rel=1e-12)
    assert max_ratio(tiny, mt.pairs, wt.o_star) == pytest.approx(
        max_ratio(s, m.pairs, w.o_star), rel=1e-12
    )
