"""One chunk size for every pass: ``laws.CHUNK`` scratch values a pass.

A pass whose scratch takes ``width`` values a row runs over
max(CHUNK // width, 1) rows at a time.  Where the chunks are cut changes no
bit of a path, a marginal draw or a report, so the chunk size is free; and
every pass reads the one module attribute at call time, so that patching it
bounds the scratch of them all.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from test_harness import mini_scenario

import semidim as sd
from semidim.harness import Scenario, builtin_scenarios, run_scenario
from semidim.laws import BlockLaw, LawKind, PathBuffers

# not a power of two, so that chunk edges fall where no default edge does
SMALL_CHUNK = 1000
SIZES = [sd.laws.CHUNK, SMALL_CHUNK]

STABLE = sd.validate_exponent(np.array([[1 / 1.2]]), 2.0), (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.2),)
BROWNIAN = sd.validate_exponent(np.array([[0.5]]), 2.0), (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]])
ISOTROPIC = {
    alpha: (sd.validate_exponent(ROTATION / alpha, 2.0), (BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=alpha),))
    for alpha in (1.2, 2.0)
}
SEMISTABLE = sd.validate_exponent(np.array([[1.0]]), 2.0), (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),)
JORDAN = sd.validate_exponent(np.array([[0.5, 1.0], [0.0, 0.5]]), 2.0), (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
# E = I / 2 with one alpha = 2 law: one Gaussian-operator block of d columns
GAUSSIAN = {d: (sd.validate_exponent(0.5 * np.eye(d), 2.0), (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)) for d in (4, 6)}
PATHS = {
    "stable": STABLE,
    "isotropic-1.2": ISOTROPIC[1.2],
    "isotropic-2": ISOTROPIC[2.0],
    "semistable": SEMISTABLE,
    "jordan": JORDAN,
    "gaussian-4": GAUSSIAN[4],
}


def at_each_size(call):
    """``call()`` with ``laws.CHUNK`` at each of ``SIZES``."""
    out = []
    for size in SIZES:
        with mock.patch.object(sd.laws, "CHUNK", size):
            out.append(call())
    return out


def digest(report) -> str:
    out = report.as_dict()
    out.pop("runtime_seconds")
    return hashlib.sha256(json.dumps(out, indent=2, sort_keys=True).encode()).hexdigest()


def restricted_cantor() -> Scenario:
    # brownian-cantor shrunk: its path holds the rows of the Cantor mask
    obj = builtin_scenarios()["brownian-cantor"].as_dict()
    obj.update(n=18, n_seeds=2, sojourn_n=10, sojourn_radii=[2.0**-k for k in range(2, 6)], energy_ratio=2)
    return Scenario.from_dict(obj | {"sojourn_ensemble": 200})


class TestChunkInvariance:
    @pytest.mark.parametrize("scenario", [mini_scenario, restricted_cantor], ids=["whole-grid", "cantor"])
    def test_report_digests(self, scenario):
        sc = scenario()
        first, second = at_each_size(lambda: digest(run_scenario(sc, 5)))
        assert first == second

    @pytest.mark.parametrize("case", sorted(PATHS))
    @pytest.mark.parametrize("restricted", [False, True], ids=["one-step", "step-per-row"])
    def test_path_values(self, case, restricted):
        # a mask that drops row 1 gives the draw a step per row
        n = 14
        mask = None
        if restricted:
            mask = np.ones(2**n + 1, dtype=bool)
            mask[1] = False
        first, second = at_each_size(lambda: sd.simulate_path(*PATHS[case], n, seed=3, mask=mask).values.tobytes())
        assert first == second

    def test_box_counts(self):
        # the box kernel's pass over the 5 columns of a d = 4 graph
        n = 14
        path = sd.simulate_path(*GAUSSIAN[4], n, seed=3)
        mask = np.ones(2**n + 1, dtype=bool)

        def counts():
            est = sd.box_count_graph(path, mask, sd.dyadic_scales(1, 10))
            return est.counts.tobytes() + est.range.counts.tobytes()

        first, second = at_each_size(counts)
        assert first == second

    @pytest.mark.parametrize("case", ["jordan", "stable"])
    def test_marginal_values(self, case):
        # one time per row: the Gaussian-operator block forms one factor a row
        times = np.linspace(0.01, 1.0, 5000)
        first, second = at_each_size(lambda: sd.paths.sample_marginal(*PATHS[case], times, times.size, seed=4).tobytes())
        assert first == second


@pytest.mark.parametrize("spec, laws", [BROWNIAN, ISOTROPIC[1.2]], ids=["d=1", "d=2"])
@pytest.mark.parametrize("restricted", [False, True])
def test_every_pass_reads_the_one_chunk(spec, laws, restricted):
    # with CHUNK patched small, the slot 1 that holds every pass's chunk
    # scratch ends at a chunk and the grain a slot grows by; a pass that
    # still took a size bound at import would grow it past that
    n = 14
    mask = np.ones(2**n + 1, dtype=bool)
    mask[1] = not restricted
    buffers = PathBuffers()
    with mock.patch.object(sd.laws, "CHUNK", 2**10):
        path = sd.simulate_path(spec, laws, n, seed=1, mask=mask, _buffers=buffers)
        sd.box_count_graph(path, mask, sd.dyadic_scales(1, 10), _buffers=buffers)
        assert buffers._slots[1].size <= sd.laws.CHUNK + sd.laws.CHUNK // 8


@pytest.mark.parametrize("d", [4, 6])
def test_a_box_pass_over_many_columns_holds_one_chunk(d):
    # the box kernel's float cells take D = d + 1 values a row, so its
    # chunks of CHUNK // D rows leave the slot 1 at a chunk and a grain
    n = 16
    buffers = PathBuffers()
    path = sd.simulate_path(*GAUSSIAN[d], n, seed=1, _buffers=buffers)
    sd.box_count_graph(path, np.ones(2**n + 1, dtype=bool), sd.dyadic_scales(1, 10), _buffers=buffers)
    assert buffers._slots[1].size <= sd.laws.CHUNK + sd.laws.CHUNK // 8
