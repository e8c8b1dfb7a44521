"""The benchmark's tracer (``perfbench/spans.py``) still fits the package.

The tracer rebinds entry points of every layer from outside the package,
by name and by argument name.  A rename or reshape of one of them breaks the
benchmark, and this test, which traces one run of the mini scenario.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
from test_harness import mini_scenario

from semidim import estimators, harness

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_layer():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        harness.run_scenario(mini_scenario(), 5)
        # the cube kernel's counter reads its ``points`` argument
        estimators.count_occupied_cubes(np.zeros((4, 2)), [0.5, 0.25])
    finally:
        tracer.uninstall()
    layers = spans.per_layer(tracer.spans)
    assert list(layers) == list(spans.PER_LAYER_UNITS)
    assert layers["estimators.box.calls"] == mini_scenario().n_seeds
