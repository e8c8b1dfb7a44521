import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import semidim as sd
from semidim.borel import cantor, interval
from semidim.errors import BlockLawMismatch, BudgetExceeded, DegenerateSample, EmptyRestriction, EnsembleTooSmall
from semidim.laws import CHUNK, BlockLaw, LawKind, PathBuffers
from semidim.paths import KS_THRESHOLD_SLACK, sample_marginal

BROWNIAN = sd.validate_exponent(np.array([[0.5]]), 2.0)
BM_LAWS = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
SEMI = sd.validate_exponent(np.array([[1.0]]), 2.0)
SEMI_LAWS = (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),)


class TestSimulatePath:
    def test_starts_at_zero_and_grid(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 8, seed=1)
        assert p.values[0, 0] == 0.0
        assert p.times[0] == 0.0 and p.times[-1] == 1.0
        assert len(p.times) == 2**8 + 1
        assert np.array_equal(p.graph_points()[:, 0], p.times)

    def test_degenerate_depth(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 0, seed=1)
        assert p.values.shape == (2, 1)
        assert p.values[0, 0] == 0.0

    def test_float64_overflow_raises(self):
        # near alpha = 0 the stable increments leave the float64 range
        alpha = 0.0126
        spec = sd.validate_exponent(np.array([[1.0 / alpha]]), 2.0)
        with pytest.raises(DegenerateSample):
            sd.simulate_path(spec, (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=alpha),), 12, seed=0)

    def test_marginal_float64_overflow_raises(self):
        # the fullness draw of X(1) overflows at seed 19; its direction
        # cloud would otherwise be judged on inf samples
        alpha = 0.0126
        spec = sd.validate_exponent(np.array([[1.0 / alpha]]), 2.0)
        with pytest.raises(DegenerateSample):
            sd.empirical_fullness(spec, (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=alpha),), seed=19)

    def test_determinism(self):
        a = sd.simulate_path(BROWNIAN, BM_LAWS, 12, seed=42)
        b = sd.simulate_path(BROWNIAN, BM_LAWS, 12, seed=42)
        assert a.values.tobytes() == b.values.tobytes()
        c = sd.simulate_path(BROWNIAN, BM_LAWS, 12, seed=43)
        assert a.values.tobytes() != c.values.tobytes()

    def test_quadratic_variation(self):
        # oracle: variance-2t Gaussian increments give QV -> 2 over [0, 1]
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 20, seed=7)
        qv = float(np.sum(np.diff(p.values[:, 0]) ** 2))
        assert 1.9 <= qv <= 2.1

    def test_two_block_embedding(self):
        spec = sd.validate_exponent(np.diag([0.5, 2.0]), 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0), BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=0.5))
        p = sd.simulate_path(spec, laws, 10, seed=3)
        assert p.values.shape == (2**10 + 1, 2)

    def test_law_mismatch_errors(self):
        spec = sd.validate_exponent(np.diag([0.5, 2.0]), 2.0)
        with pytest.raises(BlockLawMismatch):
            sd.simulate_path(spec, (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),), 4, seed=0)
        with pytest.raises(BlockLawMismatch):
            sd.simulate_path(
                spec,
                (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.9), BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=0.5)),
                4,
                seed=0,
            )
        with pytest.raises(BlockLawMismatch):
            sd.simulate_path(SEMI, (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=3.0),), 4, seed=0)
        with pytest.raises(BlockLawMismatch):
            sd.simulate_path(BROWNIAN, (BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=2.0),), 4, seed=0)

    def test_non_gaussian_multidim_block_rejected(self):
        jordan = sd.validate_exponent(np.array([[1.0, 1.0], [0.0, 1.0]]), 2.0)
        with pytest.raises(BlockLawMismatch):
            sd.simulate_path(jordan, (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.0),), 4, seed=0)

    def test_increment_stationarity(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=5)
        h = 2**10
        spans = p.values[h::h, 0] - p.values[:-h:h, 0]
        mid = len(spans) // 2
        ks = scipy.stats.ks_2samp(spans[:mid], spans[mid:]).statistic
        crit = 1.36 * np.sqrt(len(spans) / (mid * (len(spans) - mid)))
        assert ks < crit

    def test_disjoint_increment_independence_proxy(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=6)
        inc = np.diff(p.values[:, 0])
        corr = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(inc.size - 1)


# SHA-256 of unmasked paths at n = 10, seed 3, name "pin"; a mask that keeps
# every row must draw them byte for byte.
FULL_MASK_PINS = {
    "stable-2": (
        [[0.5]],
        BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),
        "7f914789711a5cb4ae6495017ce070cdfb2bc24235f43570b5340abc5a6c3725",
    ),
    "stable-1.2": (
        [[1 / 1.2]],
        BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.2),
        "dfc20aa9cfd5a947228a78203fca9d6c199e4c586414197c6e62ac0d0ce1e94d",
    ),
    "isotropic-1.2": (
        [[1 / 1.2, -1.0], [1.0, 1 / 1.2]],
        BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=1.2),
        "b40a1baac2f7ee4d42b213c8f077803fd4ca93ca64738a098baacd0e3d350237",
    ),
    "semistable": (
        [[1.0]],
        BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),
        "c17ba9e92f1c74d2f75df0f769a2eb86002b755c3f9d94ddb39a54eac1fdfce2",
    ),
    "jordan": (
        [[0.5, 1.0], [0.0, 0.5]],
        BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),
        "f458046d3d5d23ed937d77b5690ab6bce23f02e13999bd889fe83d32d612d3a0",
    ),
}
# SHA-256 of the whole-grid semistable path at n = 16, seed 3, name "pin":
# draws of 2^16 at dt = 2^-16, which invert the net jump sum of every group
# of frequent atoms on its CDF table.
SEMISTABLE_TABLE_PIN = "a65163ffde3a4af11432fb58ef6f2e2ef49acd84783f3e93a4e0fa506f56031f"
STABLE12 = (sd.validate_exponent(np.array([[1 / 1.2]]), 2.0), (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.2),))
JORDAN = (sd.validate_exponent(np.array([[0.5, 1.0], [0.0, 0.5]]), 2.0), BM_LAWS)
KS_PATHS = 1500


def ks_threshold(size: int) -> float:
    """The semi-selfsimilarity test's threshold for two samples of ``size``."""
    return 1.36 * np.sqrt(2.0 / size) * KS_THRESHOLD_SLACK


class TestMaskedDraw:
    @pytest.mark.parametrize("case", sorted(FULL_MASK_PINS))
    def test_full_mask_draws_the_unmasked_bytes(self, case):
        matrix, law, digest = FULL_MASK_PINS[case]
        spec = sd.validate_exponent(np.array(matrix), 2.0)
        for mask in (None, np.ones(2**10 + 1, dtype=bool)):
            p = sd.simulate_path(spec, (law,), 10, seed=3, name="pin", mask=mask)
            assert p.rows is None and p.times.size == 2**10 + 1
            assert hashlib.sha256(p.values.tobytes()).hexdigest() == digest

    def test_semistable_table_draws_pinned(self):
        matrix, law, _ = FULL_MASK_PINS["semistable"]
        p = sd.simulate_path(sd.validate_exponent(np.array(matrix), 2.0), (law,), 16, seed=3, name="pin")
        assert hashlib.sha256(p.values.tobytes()).hexdigest() == SEMISTABLE_TABLE_PIN

    def test_holds_the_kept_rows(self):
        mask = cantor().mask(12, level=4)
        p = sd.simulate_path(*JORDAN, 12, seed=1, mask=mask)
        assert np.array_equal(p.rows, np.flatnonzero(mask))
        assert np.array_equal(p.times, sd.paths.grid_times(12)[mask])
        assert p.values.shape == (mask.sum(), 2) and not np.any(p.values[0])

    def test_mask_of_another_grid_or_of_no_row_rejected(self):
        with pytest.raises(ValueError):
            sd.simulate_path(BROWNIAN, BM_LAWS, 8, seed=0, mask=np.ones(2**9 + 1, dtype=bool))
        with pytest.raises(EmptyRestriction):
            sd.simulate_path(BROWNIAN, BM_LAWS, 8, seed=0, mask=np.zeros(2**8 + 1, dtype=bool))

    @pytest.mark.parametrize("spec, laws", [STABLE12, (SEMI, SEMI_LAWS)], ids=["stable", "semistable"])
    def test_law_over_a_gap(self, spec, laws):
        # the middle-third gap of the level-1 cover: X(t_j) - X(t_i) is one
        # draw of X((j - i) 2^-n), by stationary independent increments
        mask = cantor().mask(10, level=1)
        rows = np.flatnonzero(mask)
        k = int(np.flatnonzero(np.diff(rows) > 1)[0])
        i, j = rows[k], rows[k + 1]
        spans = np.array(
            [np.diff(sd.simulate_path(spec, laws, 10, seed=s, name="gap", mask=mask).values[k : k + 2, 0])[0] for s in range(KS_PATHS)]
        )
        reference = sample_marginal(spec, laws, (j - i) * 2.0**-10, KS_PATHS, seed=0, name="gap/reference")[:, 0]
        assert scipy.stats.ks_2samp(spans, reference).statistic < ks_threshold(KS_PATHS)

    @pytest.mark.parametrize("spec, laws", [STABLE12, JORDAN], ids=["stable", "jordan"])
    def test_first_kept_row_after_zero(self, spec, laws):
        # on [0.25, 0.75] the first value is one draw of X(0.25)
        mask = interval(0.25, 0.75).mask(10)
        first = np.array([sd.simulate_path(spec, laws, 10, seed=s, name="late", mask=mask).values[0] for s in range(KS_PATHS)])
        reference = sample_marginal(spec, laws, 0.25, KS_PATHS, seed=0, name="late/reference")
        for col in range(spec.d):
            assert scipy.stats.ks_2samp(first[:, col], reference[:, col]).statistic < ks_threshold(KS_PATHS)

    @pytest.mark.parametrize("spec, laws", [STABLE12, (SEMI, SEMI_LAWS), JORDAN], ids=["stable", "semistable", "jordan"])
    def test_marginal_with_a_time_per_row(self, spec, laws):
        # rows at 0.25 and 0.5, interleaved, each drawn as X(t) at its own time
        times = np.where(np.arange(2 * KS_PATHS) % 2, 0.5, 0.25)
        per_row = sample_marginal(spec, laws, times, times.size, seed=0, name="rows")
        for t in (0.25, 0.5):
            reference = sample_marginal(spec, laws, t, KS_PATHS, seed=0, name=f"scalar/{t}")
            for col in range(spec.d):
                ks = scipy.stats.ks_2samp(per_row[times == t, col], reference[:, col]).statistic
                assert ks < ks_threshold(KS_PATHS), (t, col)

    @pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), np.array([0.5, np.nan]), np.array([0.5, 0.5, 0.5])])
    def test_marginal_times_rejected(self, t):
        # each time must be positive, and one per row when there are several
        with pytest.raises(ValueError):
            sample_marginal(*STABLE12, t, 2, seed=0)

    def test_box_and_energy_covers_that_do_not_nest(self, monkeypatch):
        # the energy stage thins 1000 * 2 points at level 11, above the box
        # cover's level 12: the paths hold the level-11 cover, which holds both
        from semidim import harness

        obj = harness.builtin_scenarios()["brownian-cantor"].as_dict()
        obj.update(n_seeds=2, sojourn_n=10, sojourn_radii=[2.0**-k for k in range(2, 6)], sojourn_ensemble=200)
        obj.update(cover_level=12, energy_subsample=1000, energy_ratio=2)
        sc = harness.Scenario.from_dict(obj)
        held = []

        def simulated(*args, **kwargs):
            path = sd.simulate_path(*args, **kwargs)
            held.append(path.rows)
            return path

        monkeypatch.setattr(harness, "simulate_path", simulated)
        report = harness.run_scenario(sc, 5)
        assert set(report.stages) == {"box_graph", "box_range", "sojourn", "energy"}
        rows = np.flatnonzero(sc.borel.mask(20, 11))
        assert rows.size > sc.borel.mask(20, 12).sum()
        assert len(held) == 2 and all(np.array_equal(r, rows) for r in held)


ISOTROPIC12 = (sd.validate_exponent(np.array([[1 / 1.2, -1.0], [1.0, 1 / 1.2]]), 2.0), (BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=1.2),))
DIAGONAL = (sd.validate_exponent(np.array([[0.5, 0.0], [0.0, 1 / 1.2]]), 2.0), (BM_LAWS[0], STABLE12[1][0]))


class TestReusedBuffers:
    """Paths drawn one after another on one set of buffers equal fresh paths
    byte for byte, whatever the buffers held before."""

    @pytest.mark.parametrize(
        "spec, laws",
        [(BROWNIAN, BM_LAWS), STABLE12, ISOTROPIC12, JORDAN, DIAGONAL, (SEMI, SEMI_LAWS)],
        ids=["brownian", "stable-1.2", "isotropic", "jordan", "two-blocks", "semistable"],
    )
    def test_paths_on_one_set_equal_fresh_paths(self, spec, laws):
        buffers = PathBuffers()
        masks = [None, cantor().mask(12, level=5), np.ones(2**12 + 1, dtype=bool), interval(0.25, 0.75).mask(12), None]
        for k, mask in enumerate(masks):
            fresh = sd.simulate_path(spec, laws, 12, seed=k, name="reuse", mask=mask)
            lent = sd.simulate_path(spec, laws, 12, seed=k, name="reuse", mask=mask, _buffers=buffers)
            assert lent.times.tobytes() == fresh.times.tobytes()
            assert lent.values.tobytes() == fresh.values.tobytes()
            assert (lent.rows is None and fresh.rows is None) or np.array_equal(lent.rows, fresh.rows)
            counts = sd.box_count_graph(fresh, cantor().mask(12, level=5), sd.dyadic_scales(1, 10)).counts
            lent_counts = sd.box_count_graph(lent, cantor().mask(12, level=5), sd.dyadic_scales(1, 10), _buffers=buffers)
            assert np.array_equal(lent_counts.counts, counts)

    def test_public_path_is_the_callers(self):
        # a later path, fresh or on buffers, leaves an earlier public path as it was
        first = sd.simulate_path(*ISOTROPIC12, 12, seed=1)
        times, values = first.times.copy(), first.values.copy()
        sd.simulate_path(*ISOTROPIC12, 12, seed=2)
        buffers = PathBuffers()
        sd.simulate_path(*ISOTROPIC12, 12, seed=3, _buffers=buffers)
        sd.box_count_graph(first, interval().mask(12), sd.dyadic_scales(1, 10), _buffers=buffers)
        assert first.times.tobytes() == times.tobytes() and first.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("spec, laws", [(BROWNIAN, BM_LAWS), ISOTROPIC12, DIAGONAL], ids=["brownian", "isotropic", "two-blocks"])
    def test_a_shrinking_path_reads_no_stale_slot(self, spec, laws):
        # the second path holds fewer rows than the first; every slot is
        # poisoned in between (NaN floats, int64 -1), so a count or an energy
        # that read past the live rows would differ from the fresh one
        n, sides, gammas = 17, sd.dyadic_scales(1, 12), np.arange(0.5, 2.5, 0.25)
        narrow = interval(0.2, 0.4).mask(n)  # counted on a part of the rows held
        buffers = PathBuffers()
        for k, borel in enumerate((interval(0.0, 0.9), interval(0.1, 0.5))):
            mask = borel.mask(n)
            fresh = sd.simulate_path(spec, laws, n, seed=k, mask=mask)
            lent = sd.simulate_path(spec, laws, n, seed=k, mask=mask, _buffers=buffers)
            for counted in (mask, narrow):
                want = sd.box_count_graph(fresh, counted, sides)
                got = sd.box_count_graph(lent, counted, sides, _buffers=buffers)
                assert np.array_equal(got.counts, want.counts)
                assert np.array_equal(got.range.counts, want.range.counts)
            want = sd.energy_dimension(fresh, borel, gammas, 1000, 3, ratio=4)
            got = sd.energy_dimension(lent, borel, gammas, 1000, 3, ratio=4, _buffers=buffers)
            assert got.as_dict() == want.as_dict()
            for store in buffers._slots.values():
                store.fill(0xFF)


def grid_budget(monkeypatch, n, d, laws=()):
    """Bytes that check_grid budgets for a grid of depth n in d dimensions
    and a path drawn by ``laws``."""
    budget = []
    monkeypatch.setattr(sd.paths, "check_memory", lambda floats, what: budget.append(8 * floats))
    sd.paths.check_grid(n, d, laws)
    monkeypatch.undo()
    return budget[0]


def traced_peak(call):
    """tracemalloc's peak over the second of two calls of ``call``, counting
    what the first left allocated (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        call()
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridBudget:
    @pytest.mark.parametrize("spec, laws", [(BROWNIAN, BM_LAWS), ISOTROPIC12], ids=["d=1", "d=2"])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_slots_of_a_path_and_its_box_count_fit_the_preflight(self, monkeypatch, spec, laws, restricted):
        # check_grid budgets the PathBuffers slots that one path and its box
        # count hold: the path's values (it holds no times), a block's
        # increments and then the keys on slot 0, the steps of a path
        # restricted to all but one row, and the chunk scratch on slot 1,
        # which a path of four CHUNKs of rows does not fill
        n = 18
        budget = grid_budget(monkeypatch, n, spec.d)
        mask = np.ones(2**n + 1, dtype=bool)
        mask[1] = not restricted
        buffers = PathBuffers()
        path = sd.simulate_path(spec, laws, n, seed=1, mask=mask, _buffers=buffers)
        sd.box_count_graph(path, mask, sd.dyadic_scales(1, 10), _buffers=buffers)
        slots = buffers._slots
        assert set(slots) == {"values", 0, 1} | ({"steps"} if restricted else set())
        # a chunk, less than a value a row, and the grain a slot grows by
        assert slots[1].size <= CHUNK + CHUNK // 8
        assert sum(store.nbytes for store in slots.values()) <= budget

    def test_a_gaussian_operator_path_fits_the_preflight(self, monkeypatch):
        # the covariances and Cholesky factors of the Jordan block are formed
        # a chunk of rows at a time, so one path at n = 16 stays in budget
        n = 16
        budget = grid_budget(monkeypatch, n, JORDAN[0].d)
        buffers = PathBuffers()
        assert traced_peak(lambda: sd.simulate_path(*JORDAN, n, seed=1, _buffers=buffers)) <= budget

    @pytest.mark.parametrize("spec, laws", [(BROWNIAN, BM_LAWS), ISOTROPIC12], ids=["d=1", "d=2"])
    def test_a_restricted_stable_path_fits_the_preflight(self, monkeypatch, spec, laws):
        # a stable law's draw with a step per row forms each increment's
        # scale a chunk at a time, so that a path restricted to all grid rows
        # but one and its box count stay in budget, as on the whole grid
        n = 18
        budget = grid_budget(monkeypatch, n, spec.d)
        mask = np.ones(2**n + 1, dtype=bool)
        mask[1] = False
        buffers = PathBuffers()

        def call():
            path = sd.simulate_path(spec, laws, n, seed=1, mask=mask, _buffers=buffers)
            sd.box_count_graph(path, mask, sd.dyadic_scales(1, 10), _buffers=buffers)

        assert traced_peak(call) <= budget

    def test_a_restricted_semistable_draw_holds_one_group_of_counts(self):
        # each frequent atom's two Poisson count vectors are released before
        # the next atom draws its own: the draw with a step per row (on a
        # path restricted to all grid rows but one) peaks at most 4.5 values
        # a row above the whole-grid draw, which takes its atoms from
        # tables; each draw's plan is built, and counted, inside its trace
        n = 18
        peaks = []
        for restricted in (False, True):
            mask = np.ones(2**n + 1, dtype=bool)
            mask[1] = not restricted
            buffers = PathBuffers()
            sd.laws._step_plan.cache_clear()

            def call():
                path = sd.simulate_path(SEMI, SEMI_LAWS, n, seed=1, mask=mask, _buffers=buffers)
                sd.box_count_graph(path, mask, sd.dyadic_scales(1, 10), _buffers=buffers)

            peaks.append(traced_peak(call))
        assert peaks[1] - peaks[0] <= 4.5 * 8 * 2**n, (peaks[1] - peaks[0]) / (8 * 2**n)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_a_semistable_path_fits_the_preflight(self, monkeypatch, restricted):
        # the semistable draw holds its uniforms, rare jumps and Poisson
        # counts beside the slot 0, a value or more a row, and check_grid
        # counts them for a semistable law: the stpetersburg-interval law on
        # a path of four CHUNKs of rows, with one grid step or a step per row
        n = 18
        budget = grid_budget(monkeypatch, n, SEMI.d, SEMI_LAWS)
        mask = np.ones(2**n + 1, dtype=bool)
        mask[1] = not restricted
        buffers = PathBuffers()

        def call():
            path = sd.simulate_path(SEMI, SEMI_LAWS, n, seed=1, mask=mask, _buffers=buffers)
            sd.box_count_graph(path, mask, sd.dyadic_scales(1, 10), _buffers=buffers)

        assert traced_peak(call) <= budget

    def test_a_box_path_holds_its_rows_and_a_chunk_allowance(self):
        # simulating, box counting and the energy estimate of one
        # isotropic-12-interval path hold the values and the increments'
        # slot, plus the chunk scratch that check_grid allows beside them; a
        # times column, or cell columns or keys of a value a row, would pass
        # it.  At n = 18 a path spans four CHUNKs of rows, so that they can be
        # told apart.
        sc = sd.get_scenario("isotropic-12-interval")
        n = 18
        mask = sc.borel.mask(n)
        buffers = PathBuffers()

        def call():
            path = sd.simulate_path(sc.spec, sc.laws, n, seed=1, _buffers=buffers)
            sd.box_count_graph(path, mask, sc.box_sides, _buffers=buffers)
            sd.energy_dimension(path, sc.borel, sc.energy_gammas, sc.energy_subsample, 1, ratio=sc.energy_ratio, _buffers=buffers)

        peak = traced_peak(call)
        held = sum(buffers._slots[slot].nbytes for slot in ("values", 0))
        assert peak <= held + 8 * 8 * CHUNK

    def test_the_energy_estimate_peaks_no_higher_than_the_box_count(self):
        # on warm buffers, the energy estimate of an isotropic-12-interval
        # path keeps its candidates' mask, its chunks' times and its radii's
        # steps on the slots the box count left free, so that the path's
        # peak is its box count's
        sc = sd.get_scenario("isotropic-12-interval")
        n = 18
        mask = sc.borel.mask(n)
        buffers = PathBuffers()
        path = sd.simulate_path(sc.spec, sc.laws, n, seed=1, _buffers=buffers)
        box = traced_peak(lambda: sd.box_count_graph(path, mask, sc.box_sides, _buffers=buffers))
        energy = traced_peak(
            lambda: sd.energy_dimension(path, sc.borel, sc.energy_gammas, sc.energy_subsample, 1, ratio=sc.energy_ratio, _buffers=buffers)
        )
        assert energy <= box


def reference_embed(out, block_values, basis):
    """The former embedding: every basis entry multiplied and added."""
    for i in range(basis.shape[0]):
        for k in range(basis.shape[1]):
            out[:, i] += block_values[:, k] * basis[i, k]


class TestEmbed:
    """``_embed`` skips basis entries of 0 and adds a column for an entry of
    1, and equals the multiply-add of every entry byte for byte."""

    BASES = {
        "identity": [np.eye(2)],
        "unit-columns": [np.array([[1.0], [0.0]]), np.array([[-0.0], [1.0]])],
        "general": [np.array([[0.6, -0.8], [0.8, 0.6]])],
        "mixed": [np.array([[1.0, -0.0], [0.25, 1.0]]), np.array([[0.0], [-2.5]])],
    }

    @staticmethod
    def blocks(bases, poison=None):
        rng = sd.derive_rng(1, "test/embed")
        out = []
        for basis in bases:
            values = rng.standard_cauchy((64, basis.shape[1]))
            values[::7] = 0.0
            values[3::7] = -0.0
            values[5::11] *= 1e300
            if poison is not None:
                values[9::13, 0] = poison
            out.append((values, basis))
        return out

    @pytest.mark.parametrize("case", sorted(BASES))
    def test_equals_every_multiply_add(self, case):
        from semidim.paths import _embed

        got, want = np.zeros((64, 2)), np.zeros((64, 2))
        with np.errstate(over="ignore"):
            for values, basis in self.blocks(self.BASES[case]):
                _embed(got, values, basis, PathBuffers())
                reference_embed(want, values, basis)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(BASES))
    @pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
    def test_non_finite_rows_stay_non_finite(self, case, poison):
        # a skipped 0 * inf would have made a NaN; the row is non-finite in
        # another column all the same, and the finite rows are equal
        from semidim.paths import _embed

        got, want = np.zeros((64, 2)), np.zeros((64, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for values, basis in self.blocks(self.BASES[case], poison):
                _embed(got, values, basis, PathBuffers())
                reference_embed(want, values, basis)
        finite = np.isfinite(want).all(axis=1)
        assert np.array_equal(np.isfinite(got).all(axis=1), finite) and not finite.all()
        assert got[finite].tobytes() == want[finite].tobytes()


class TestGaussianOperatorBlock:
    def test_jordan_marginal_scaling(self):
        # X(ct) =d c^E X(t): compare sample covariances of both sides
        spec = sd.validate_exponent(np.array([[0.5, 1.0], [0.0, 0.5]]), 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
        m1 = sample_marginal(spec, laws, 0.25, 10**5, seed=9, name="a")
        m2 = sample_marginal(spec, laws, 0.5, 10**5, seed=10, name="b")
        op = sd.scaling_operator(spec, 2.0)
        lhs = np.cov(m2.T)
        rhs = op @ np.cov(m1.T) @ op.T
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 0.02

    def test_scalar_block_matches_brownian_variance(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 12, seed=11)
        iso = sd.validate_exponent(np.eye(2) * 0.5, 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
        q = sd.simulate_path(iso, laws, 12, seed=11)
        # operator-Gaussian block at E = I/2 must reproduce variance 2t
        assert abs(np.var(np.diff(q.values[:, 0])) * 2**12 - 2.0) < 0.1
        assert abs(np.var(np.diff(p.values[:, 0])) * 2**12 - 2.0) < 0.1


class TestEmpiricalFullness:
    def test_full_two_block_law(self):
        from semidim.paths import empirical_fullness

        spec = sd.validate_exponent(np.diag([0.5, 2.0]), 2.0)
        laws = (
            BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),
            BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=0.5),
        )
        full, ratio = empirical_fullness(spec, laws, seed=1)
        assert full and ratio > 0.1

    def test_near_degenerate_flagged(self):
        from semidim.paths import empirical_fullness

        spec = sd.validate_exponent(np.diag([0.5, 2.0]), 2.0)
        laws = (
            BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),
            BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=0.5, scale=1e-12),
        )
        full, ratio = empirical_fullness(spec, laws, seed=1)
        assert not full and ratio < 1e-3


def test_import_leaves_scipy_stats_unloaded():
    # no call needs scipy.stats: the semi-selfsimilarity test forms its KS
    # statistic in numpy
    code = (
        "import sys, numpy, semidim\n"
        "spec = semidim.validate_exponent(numpy.array([[0.5]]), 2.0)\n"
        "law = semidim.BlockLaw(semidim.LawKind.STABLE_SYMMETRIC, alpha=2.0)\n"
        "semidim.semiselfsimilarity_test(spec, (law,), t=0.25, ensemble=10**4, seed=13)\n"
        "print('scipy.stats' in sys.modules)"
    )
    env = os.environ | {"PYTHONPATH": str(Path(sd.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestSemiselfsimilarity:
    def test_brownian_exact(self):
        rep = sd.semiselfsimilarity_test(BROWNIAN, BM_LAWS, t=0.25, ensemble=10**4, seed=13)
        assert rep.passed

    def test_semistable_passes(self):
        rep = sd.semiselfsimilarity_test(SEMI, SEMI_LAWS, t=0.25, ensemble=10**4, seed=14)
        assert rep.passed

    def test_negative_control_fails(self):
        rep = sd.semiselfsimilarity_test(
            SEMI, SEMI_LAWS, t=0.25, ensemble=3 * 10**4, seed=15, perturb_a1=0.3
        )
        assert not rep.passed

    def test_ks_statistic_is_scipys(self, monkeypatch):
        # on the ensembles of the two tests above, and on samples with ties,
        # the statistic equals scipy's bit for bit: at up to 10^4 points
        # scipy rounds its statistic to the nearest multiple of
        # 1 / lcm(n1, n2), which is the exact count difference over n1 n2
        pairs = []
        ks = sd.paths._ks_statistic

        def recorded(x, y):
            pairs.append((x, y))
            return ks(x, y)

        monkeypatch.setattr(sd.paths, "_ks_statistic", recorded)
        sd.semiselfsimilarity_test(BROWNIAN, BM_LAWS, t=0.25, ensemble=10**4, seed=13)
        sd.semiselfsimilarity_test(SEMI, SEMI_LAWS, t=0.25, ensemble=10**4, seed=14)
        assert len(pairs) == 2
        rng = np.random.default_rng(1)
        ties = rng.integers(0, 40, 700).astype(float), rng.integers(5, 45, 500).astype(float)
        for x, y in [*pairs, ties, (ties[0], np.repeat(ties[1][:350], 2))]:
            got = ks(x, y)
            assert got > 0.0 and got == scipy.stats.ks_2samp(x, y).statistic

    def test_ensemble_too_small(self):
        with pytest.raises(EnsembleTooSmall):
            sd.semiselfsimilarity_test(BROWNIAN, BM_LAWS, t=0.25, ensemble=100, seed=0)

    def test_ensemble_beyond_memory_rejected_before_sampling(self):
        with pytest.raises(BudgetExceeded):
            sd.semiselfsimilarity_test(BROWNIAN, BM_LAWS, t=0.25, ensemble=10**15, seed=0)
