"""Self-test of the benchmark on a shrunken scenario (about 10 s).

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
from semidim import harness  # noqa: E402
from semidim.harness import Scenario, builtin_scenarios  # noqa: E402

SEED = 20260809


def declared(kind: str) -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in config[kind]}


def shrunken() -> Scenario:
    """isotropic-12-interval on a 2^12 grid with two box paths."""
    obj = builtin_scenarios()["isotropic-12-interval"].as_dict()
    obj.update(
        name="isotropic-12-small",
        n=12,
        n_seeds=2,
        box_sides=[2.0**-k for k in range(1, 11)],
        sojourn_n=10,
        sojourn_ensemble=200,
        sojourn_radii=[2.0**-k for k in range(2, 6)],
        energy_ratio=4,
    )
    return Scenario.from_dict(obj)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    layers, records = run.measure(shrunken(), SEED, 0.0, 1.2, True, spans_path=path)
    return layers, records, path


def test_every_metric_is_emitted_with_its_unit(traced):
    layers, records, _ = traced
    end_to_end, untraced = run.measure(shrunken(), SEED, 0.0, 1.2, False)
    assert run.END_TO_END_UNITS == declared("end_to_end")
    assert set(end_to_end) | {"setup_s"} == set(run.END_TO_END_UNITS)
    assert spans.PER_LAYER_UNITS == declared("per_layer")
    assert set(layers) == set(spans.PER_LAYER_UNITS)
    assert all(isinstance(v, (int, float)) for v in [*layers.values(), *end_to_end.values()])
    for record in records + untraced:
        assert not record["problems"]
        assert record["digest"] == untraced[0]["digest"]


def test_harness_children_fit_inside_the_verdict(traced):
    layers, _, path = traced
    recorded = spans.read_spans(path)
    runs = [i for i, s in enumerate(recorded) if s.name == spans.RUN_SPAN]
    children_s = sum(s.seconds for s in recorded if s.parent in runs)
    assert len(runs) == 1 and children_s <= layers["trace.verdict_s"]
    assert layers["harness.self_s"] >= 0.0
    assert layers["estimators.box.calls"] == 4
    assert layers["estimators.sojourn.paths"] == 200
    assert layers["paths.simulate.calls"] == 2 + 200 + 1
    assert layers["laws.STABLE_ISOTROPIC_2D.increments"] > 0
    assert layers["laws.SEMISTABLE_DISCRETE.increments"] == 0


def test_per_layer_metrics_recompute_from_the_spans_file(traced):
    layers, _, path = traced
    assert spans.per_layer(spans.read_spans(path)) == layers
    assert 0.0 < layers["trace.overhead_s"] < layers["trace.verdict_s"]


def test_tracer_restores_the_package(traced):
    assert harness.run_scenario.__module__ == "semidim.harness"
    assert not hasattr(harness.run_scenario, "__wrapped__")


def test_setup_is_timed():
    assert run.probe_setup_seconds("isotropic-12-interval") > 0.0
    assert run.process_age() > 0.0


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cantor-mask"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
