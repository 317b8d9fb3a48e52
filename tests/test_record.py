"""Record, the base of every value type of the package, behaves as the frozen
dataclass each type used to be: every behaviour is compared with a dataclass
twin that has the same name, fields and defaults."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle

import pytest

import ellimatch
from ellimatch.descent import (
    AlternatingCycle,
    BicoloredGraph,
    DescentResult,
    DescentStep,
    descend,
)
from ellimatch.geom import Frame, FrozenRecordError, Record
from ellimatch.instances import InstanceSpec, generate
from ellimatch.matching import Matching, PointSet, exact_max_sum
from ellimatch.minimax import MinimaxResult
from ellimatch.report import Report
from ellimatch.verify import Verdict, check_theorem
from ellimatch.witness import (
    CertificateResult,
    WitnessResult,
    minimize_h,
    optimality_certificate,
)

RECORD_TYPES = {
    AlternatingCycle,
    BicoloredGraph,
    CertificateResult,
    DescentResult,
    DescentStep,
    Frame,
    InstanceSpec,
    Matching,
    MinimaxResult,
    PointSet,
    Report,
    Verdict,
    WitnessResult,
}


def _samples() -> list[Record]:
    s = generate(InstanceSpec("uniform-square", 8, 1))
    m = exact_max_sum(s)
    w = minimize_h(s, m)
    start = Matching.from_pairs(s, [(0, 1), (2, 3), (4, 5), (6, 7)])
    return [
        AlternatingCycle((0, 1, 2, 3)),
        BicoloredGraph((4, 5, 6, 7), ((0, 1), (2, 3)), ((1, 2),)),
        optimality_certificate(s, m, w.o_star),
        descend(s, start),
        DescentStep(1.25, 3.5, 4),
        Frame.of(s.points),
        InstanceSpec("gaussian", 6),
        m,
        MinimaxResult((0.5, 0.25), 1.1, (0, 2), (0.5, 0.5), 0.0, 7, True),
        s,
        Report(instance=s, matching=m, witness=w),
        check_theorem(m, w),
        w,
    ]


SAMPLES = _samples()


def fields(r: Record) -> dict[str, object]:
    return {name: getattr(r, name) for name in r._fields}


def twin(cls: type[Record]) -> type:
    """A frozen dataclass with cls's qualified name, fields and defaults;
    Report's verdicts get a fresh dict, as they did as a dataclass."""
    spec = []
    for name in cls._fields:
        if cls is Report and name == "verdicts":
            spec.append((name, object, dataclasses.field(default_factory=dict)))
        elif name in cls._defaults:
            spec.append((name, object, dataclasses.field(default=cls._defaults[name])))
        else:
            spec.append((name, object))
    dc = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    dc.__qualname__ = cls.__qualname__
    return dc


def test_every_value_type_is_a_record():
    found = set()
    for module in {ellimatch._HOME[name] for name in ellimatch.__all__}:
        for obj in vars(importlib.import_module(f"ellimatch.{module}")).values():
            if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record:
                found.add(obj)
    assert found == RECORD_TYPES == {type(r) for r in SAMPLES}
    assert not any(dataclasses.is_dataclass(cls) for cls in found)


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_repr_eq_and_hash_match_a_dataclass_twin(r):
    dc = twin(type(r))(**fields(r))
    assert repr(r) == repr(dc)
    assert r == type(r)(**fields(r)) and r.replace() == r
    assert r != dc and dc != r  # another class is never equal, as between dataclasses
    try:
        expected = hash(dc)
    except TypeError:  # a dict or list field: the dataclass is unhashable too
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_are_frozen(r):
    dc = twin(type(r))(**fields(r))
    name = r._fields[0]
    for target, error in ((r, FrozenRecordError), (dc, dataclasses.FrozenInstanceError)):
        with pytest.raises(error, match=f"cannot assign to field '{name}'"):
            setattr(target, name, None)
        with pytest.raises(error, match=f"cannot delete field '{name}'"):
            delattr(target, name)
    assert issubclass(FrozenRecordError, AttributeError)
    with pytest.raises(AttributeError):
        r.not_a_field = 1
    assert fields(r) == {f.name: getattr(dc, f.name) for f in dataclasses.fields(dc)}


def test_defaults_and_a_fresh_verdicts_dict():
    assert InstanceSpec("gaussian", 4) == InstanceSpec("gaussian", 4, seed=0)
    assert repr(InstanceSpec("gaussian", 4)) == repr(twin(InstanceSpec)("gaussian", 4))
    s = PointSet.of([(0.0, 0.0), (1.0, 0.0)])
    a, b = Report(instance=s), Report(instance=s)
    assert a.verdicts == {} and a.verdicts is not b.verdicts
    assert repr(a) == repr(twin(Report)(instance=s))
    assert '"verdicts": {}' in a.to_json()
    assert a.replace(verdicts={"x": 1}).verdicts == {"x": 1}


def test_construction_errors_as_a_dataclass():
    dc = twin(DescentStep)
    for make in (DescentStep, dc):
        with pytest.raises(TypeError):
            make(1.0, 2.0, 3, 4)  # a positional argument too many
        with pytest.raises(TypeError):
            make(1.0, 2.0)  # a field missing
        with pytest.raises(TypeError):
            make(1.0, 2.0, 3, steps=1)  # not a field
        with pytest.raises(TypeError):
            make(1.0, 2.0, 3, cost=2.0)  # a field given twice
    assert DescentStep(cycle_length=4, cost=2.0, lambda_star=1.0) == DescentStep(1.0, 2.0, 4)
    with pytest.raises(TypeError):
        DescentStep(1.0, 2.0, 4).replace(steps=1)


def test_replace_runs_the_normalization_again():
    s = PointSet(((0, 1), (2, 3)))
    moved = s.replace(points=((1, 2), (3, 4)))
    assert moved.points == ((1.0, 2.0), (3.0, 4.0))
    assert all(type(c) is float for p in moved.points for c in p)
    with pytest.raises(ValueError, match="non-finite"):
        s.replace(points=((float("nan"), 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="count must be even"):
        InstanceSpec("gaussian", 4).replace(count=5)


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_copy_and_pickle_round_trip(r):
    copies = [copy.copy(r), copy.deepcopy(r)]
    copies += [pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(r) and c == r and repr(c) == repr(r)
        with pytest.raises(FrozenRecordError):
            setattr(c, r._fields[0], None)
