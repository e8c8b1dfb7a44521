import dataclasses
import json

import numpy as np
import pytest

import semidim as sd
from semidim.borel import BorelSetSpec, cantor, interval, union
from semidim.errors import InvalidInputs
from semidim.estimators import Schedule
from semidim.fitting import ScalingFit
from semidim.harness import Scenario, SweepConfig, VerificationReport
from semidim.laws import BlockLaw, LawKind
from semidim.paths import KSReport

FIT = sd.fit_loglog([1.0, 2.0, 4.0], [1.0, 3.0, 5.0])
SEMISTABLE = BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0, k_min=-20)
SPEC = sd.validate_exponent(np.array([[0.5, 0.0], [0.0, 1.0]]), 2.0)
DEC = sd.decompose(SPEC)
PATH = sd.simulate_path(
    sd.validate_exponent(np.array([[0.5]]), 2.0), (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),), 12, 1
)
RADII = np.array([0.25, 0.125, 0.0625])


def records():
    """One instance of every record type."""
    return [
        FIT,
        sd.graph_dimension(2.0, 1.0, 1, 1.0),
        SEMISTABLE,
        union(cantor(2, 1 / 3), interval(0.0, 0.5)),
        SPEC,
        DEC.blocks[0],
        DEC,
        sd.box_count_graph(PATH, interval().mask(PATH.n), sd.dyadic_scales(1, 10)),
        sd.covering_count(PATH, sd.dyadic_intervals(3), Schedule.A1, 1.5, [2.0]),
        sd.SojournEstimate("graph", RADII, 1.0, RADII**1.5, RADII / 10, FIT, 0.01, "iv", 1.5),
        sd.EnergyEstimate(RADII, RADII, RADII, np.array([True, True, False]), 1.1, (1000, 4000), (0.1, 0.05)),
        KSReport((0.01, 0.02), 0.03, True, 0.25, 2.0, 10000),
        VerificationReport("x", 5, {"graph_dim": 1.5}, {"box": {"verdict": "PASS"}}, "PASS", 1.0),
        SweepConfig(time_sets=("cantor", interval(0.0, 0.5), None), cover_level=3),
        *sd.builtin_scenarios().values(),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_round_trip(record):
    again = type(record).from_json(json.dumps(record.as_dict()))
    assert json.dumps(again.as_dict()) == json.dumps(record.as_dict())
    if not any(isinstance(getattr(record, f.name), np.ndarray) for f in dataclasses.fields(record)):
        assert again == record


def test_kind_dependent_fields():
    assert BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.5).as_dict() == {
        "kind": "STABLE_SYMMETRIC",
        "alpha": 1.5,
        "scale": 1.0,
    }
    assert list(SEMISTABLE.as_dict()) == ["kind", "alpha", "scale", "c", "k_min"]
    assert interval(0.1, 0.9).to_json() == '{"kind": "INTERVAL", "a": 0.1, "b": 0.9}'
    assert cantor(3, 0.2).to_json() == '{"kind": "SELF_SIMILAR_CANTOR", "m": 3, "r": 0.2}'


def test_exponent_and_decomposition_shapes():
    assert sd.validate_exponent(np.array([[0.5]]), 2).to_json() == '{"c": 2.0, "matrix": [[0.5]]}'
    out = json.loads(DEC.to_json())
    assert list(out) == ["p", "blocks", "change_of_basis"]
    assert list(out["blocks"][0]) == ["a", "alpha", "d", "basis", "matrix"]
    assert np.array_equal(sd.SpectralDecomposition.from_dict(out).change_of_basis_inv, DEC.change_of_basis_inv)


def test_ints_read_as_floats():
    law = BlockLaw.from_dict({"kind": "STABLE_SYMMETRIC", "alpha": 2})
    assert type(law.alpha) is float and law.scale == 1.0 and law.c is None


@pytest.mark.parametrize(
    "cls, obj, message",
    [
        (ScalingFit, FIT.as_dict() | {"extra": 1}, "unknown key"),
        (ScalingFit, {k: v for k, v in FIT.as_dict().items() if k != "slope"}, "missing key 'slope'"),
        (ScalingFit, FIT.as_dict() | {"n_points": True}, "ScalingFit.n_points"),
        (ScalingFit, FIT.as_dict() | {"n_points": 3.0}, "ScalingFit.n_points"),
        (ScalingFit, FIT.as_dict() | {"scale_range": [1.0]}, "expected 2 items"),
        (ScalingFit, [1.0], "expected dict"),
        (BlockLaw, {"kind": "NOPE", "alpha": 1.0}, "BlockLaw.kind"),
        (BlockLaw, {"kind": "STABLE_SYMMETRIC", "alpha": None}, "BlockLaw.alpha"),
        (BorelSetSpec, {"kind": "FINITE_UNION", "members": [{"kind": "INTERVAL", "a": "0"}]}, r"members\[0\]\.a"),
        (sd.ExponentSpec, {"c": 2.0, "matrix": [["a"]]}, "expected numbers"),
        (sd.ExponentSpec, {"c": 2.0, "matrix": [[0.5], [0.5, 1.0]]}, "ragged"),
        (sd.ExponentSpec, {"c": 2.0, "matrix": 0.5}, "expected list"),
        (Scenario, {"name": "x"}, "missing key"),
    ],
)
def test_malformed_input_rejected(cls, obj, message):
    with pytest.raises(InvalidInputs, match=message):
        cls.from_dict(obj)
