import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import semidim as sd
from semidim import estimators
from semidim.borel import cantor, interval
from semidim.errors import (
    DegenerateSample,
    EmptyRestriction,
    EnsembleTooSmall,
    NonMonotoneCounts,
    RadiiOutOfRange,
    ResolutionTooCoarse,
    ScheduleMismatch,
)
from semidim.estimators import (
    Schedule,
    _column_coders,
    _high_parts,
    _near_pair_energies,
    _zorder_keys,
    classify_sojourn_case,
    count_occupied_cubes,
    covering_count,
    dyadic_intervals,
)
from semidim.laws import BlockLaw, LawKind, PathBuffers
from semidim.paths import LevyPath

BROWNIAN = sd.validate_exponent(np.array([[0.5]]), 2.0)
BM_LAWS = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)


def line_path(n: int = 16) -> LevyPath:
    return LevyPath(
        values=np.zeros((2**n + 1, 1)),
        seed=0,
        n=n,
        spec=BROWNIAN,
        laws=BM_LAWS,
    )


class TestBoxCounting:
    def test_line_graph(self):
        est = sd.box_count_graph(line_path(), interval(0, 1).mask(16), sd.dyadic_scales(2, 12))
        assert abs(est.estimate - 1.0) < 0.02

    def test_counts_monotone(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=1)
        est = sd.box_count_graph(p, interval(0, 1).mask(p.n), sd.dyadic_scales(2, 11))
        assert np.all(np.diff(est.counts) >= 0)  # sides sorted descending
        assert 0.0 <= est.estimate <= p.d + 1

    def test_non_monotone_counts_raise(self, monkeypatch):
        # a graph count that falls as the nested cubes shrink breaks an invariant
        def shrinking(columns, sides, targets, *rest):
            return np.tile(np.arange(sides.size, 0, -1), (len(targets), 1))

        monkeypatch.setattr(sd.estimators, "_cube_counts", shrinking)
        with pytest.raises(NonMonotoneCounts):
            sd.box_count_graph(line_path(), interval(0, 1).mask(16), sd.dyadic_scales(1, 10))

    @pytest.mark.parametrize(
        "sides",
        [
            sd.dyadic_scales(0, 10),
            np.array([1.0, 1.0, 0.5, 0.25]),  # a repeated side
            np.array([1.0, 1.0 - 1e-12, 0.5]),  # a side within RATIO_TOL of another
            3.0 ** (-np.arange(0, 12) / 2.0),
            np.array([1.0 / 6.0, 1.0 / 12.0, 1.0 / 36.0]),
            np.array([1.0, 0.4, 0.2]),
            np.array([0.5]),
        ],
    )
    def test_one_chain_is_a_nested_ladder(self, sides):
        # the linker makes one chain of a ladder exactly where each side is
        # an integer multiple of the next, repeated sides included, and only
        # there do counts that rise as the side shrinks raise
        s = np.sort(sides)[::-1]
        nested = all(estimators._multiple(a / b) for a, b in zip(s[:-1], s[1:]))
        assert (len(estimators._link(sides)) == 1) == nested
        if nested and s.size > 1:
            with pytest.raises(NonMonotoneCounts):
                estimators._fit_counts(s, np.arange(s.size, 0, -1))

    def test_restriction(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=2)
        full = sd.box_count_graph(p, interval(0, 1).mask(p.n), sd.dyadic_scales(2, 11))
        half = sd.box_count_graph(p, interval(0, 0.5).mask(p.n), sd.dyadic_scales(2, 11))
        assert np.all(half.counts <= full.counts)

    def test_resolution_too_coarse(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 8, seed=1)
        with pytest.raises(ResolutionTooCoarse):
            sd.box_count_graph(p, interval(0, 1).mask(p.n), sd.dyadic_scales(2, 11))

    def test_empty_restriction(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=1)
        gap = interval(0.5 + 2.0**-18, 0.5 + 2.0**-17)  # between grid points
        with pytest.raises(EmptyRestriction):
            sd.box_count_graph(p, gap.mask(p.n), sd.dyadic_scales(2, 11))

    def test_needs_enough_scales(self):
        with pytest.raises(ValueError):
            sd.box_count_graph(line_path(), interval(0, 1).mask(16), sd.dyadic_scales(2, 8))

    def test_projection_bound(self):
        # Lipschitz projections: graph estimate >= range estimate - 0.05
        for seed in (3, 4, 5):
            p = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=seed)
            est = sd.box_count_graph(p, interval(0, 1).mask(p.n), sd.dyadic_scales(2, 11))
            assert est.estimate >= est.range.estimate - 0.05

    @pytest.mark.parametrize("ladder", ["dyadic", "base3", "sqrt3"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("time_set", ["interval", "cantor"])
    def test_range_counts_are_the_range_cloud_counts(self, ladder, d, time_set):
        # the projected graph cells count what quantising X alone counts
        sides = {
            "dyadic": sd.dyadic_scales(1, 10),
            "base3": sd.geometric_scales(3.0, -2, 7),
            "sqrt3": 3.0 ** (-np.arange(0, 12) / 2.0),
        }[ladder]
        spec, laws = BROWNIAN, BM_LAWS
        if d == 2:
            spec = sd.validate_exponent(np.array([[0.5, 0.0], [0.0, 1.0]]), 2.0)
            laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0), BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.0))
        p = sd.simulate_path(spec, laws, 14, seed=8)
        mask = (interval(0.1, 0.9) if time_set == "interval" else cantor(2, 1 / 3)).mask(p.n)
        est = sd.box_count_graph(p, mask, sides)
        order = np.argsort(sides)[::-1]
        assert np.array_equal(est.range.counts, count_occupied_cubes(p.values[mask], sides[order]))
        assert np.array_equal(est.counts, count_occupied_cubes(p.graph_points()[mask], sides[order]))
        assert est.range.range is None

    def test_heavy_tailed_path(self):
        # an alpha = 0.3 isotropic path whose graph needs a key over 63 bits:
        # seed 8 is the smallest whose key does (81.7 bits)
        alpha = 0.3
        spec = sd.validate_exponent(np.array([[1 / alpha, -1.0], [1.0, 1 / alpha]]), 2.0)
        p = sd.simulate_path(spec, (BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=alpha),), 14, seed=8)
        sides = sd.dyadic_scales(-6, 12)
        mask = interval(0, 1).mask(p.n)
        assert offset_key_bits(p.graph_points(), sides) > 63
        est = sd.box_count_graph(p, mask, sides)
        assert np.array_equal(est.counts, reference_cube_counts(p.graph_points()[mask], sides))
        assert np.array_equal(est.range.counts, reference_cube_counts(p.values[mask], sides))

    @pytest.mark.parametrize("ladder", ["sqrt3", "base3"])
    @pytest.mark.parametrize("drawn", [False, True], ids=["whole-grid", "cantor-rows"])
    def test_cantor_rows_through_t1(self, ladder, drawn):
        # the time column t / b at t = 1 lies within ulps of the integer
        # 3^j, where a nested count of the chain 3^-j would floor one cell
        # higher than the float 1 / fl(3^-j) (242.99... at j = 5); such rows
        # count by their own floor at every side
        sides = {"sqrt3": 3.0 ** (-np.arange(1, 13) / 2.0), "base3": sd.geometric_scales(3.0, -2, 7)}[ladder]
        mask = cantor(2, 1 / 3).mask(14, 8)
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 14, seed=9, mask=mask if drawn else None)
        assert mask[-1] and (p.rows is not None) == drawn
        est = sd.box_count_graph(p, mask, sides)
        points = p.graph_points() if drawn else p.graph_points()[mask]
        assert np.array_equal(est.counts, reference_cube_counts(points, sides))
        assert np.array_equal(est.range.counts, reference_cube_counts(points[:, 1:], sides))

    def test_refinement_stability(self):
        # refining n -> n+2 never drops the estimate by more than 0.05
        scales = sd.dyadic_scales(2, 11)
        for seed in (6, 7):
            coarse = sd.simulate_path(BROWNIAN, BM_LAWS, 14, seed=seed)
            fine = sd.simulate_path(BROWNIAN, BM_LAWS, 16, seed=seed)
            e_coarse = sd.box_count_graph(coarse, interval(0, 1).mask(coarse.n), scales).estimate
            e_fine = sd.box_count_graph(fine, interval(0, 1).mask(fine.n), scales).estimate
            assert e_fine >= e_coarse - 0.05


def reference_cube_counts(points, sides):
    """One np.unique over floor(points / b) per side b."""
    return np.array([np.unique(np.floor(points / b), axis=0).shape[0] for b in sides])


def offset_key_bits(points, sides):
    """Bits of a Z-order key over the bounding box: D columns times M octaves
    of interleaved bits, plus each column's range of cells at the largest side."""
    m = round(np.log2(max(sides) / min(sides)))
    high = np.floor(points / min(sides)).astype(np.int64) >> m
    return points.shape[1] * m + sum(np.log2(int(c.max()) - int(c.min()) + 1) for c in high.T)


def walk_cloud(rng, n, dim):
    """A time-ordered walk straddling the origin, plus a scatter of far points."""
    walk = np.cumsum(rng.normal(scale=0.01, size=(n, dim)), axis=0) - 0.3
    return np.concatenate([walk, rng.uniform(-3.0, 3.0, size=(n // 10, dim))])


class TestCubeKernel:
    LADDERS = {
        "dyadic": sd.dyadic_scales(0, 10),
        "base3": sd.geometric_scales(3.0, 0, 6),
        "sqrt3": 3.0 ** (-np.arange(0, 12) / 2.0),
    }

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_per_side_unique(self, ladder, dim):
        rng = np.random.default_rng(10 * dim + len(ladder))
        points = walk_cloud(rng, 4000, dim)
        sides = rng.permutation(self.LADDERS[ladder])  # counts follow the given order
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_across_chunks(self, dim):
        # more than two chunks of rows: the consecutive-row and sorted-key
        # dedups carry each chunk's last row into the next
        rng = np.random.default_rng(20 + dim)
        points = walk_cloud(rng, 2 * sd.laws.CHUNK, dim)
        sides = sd.dyadic_scales(6, 12)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_skipped_octaves(self, dim):
        # neighbouring sides 3, 1 and 5 octaves apart, in any order
        rng = np.random.default_rng(13 + dim)
        points = walk_cloud(rng, 4000, dim)
        sides = rng.permutation(2.0 ** -np.array([0.0, 3.0, 4.0, 9.0]))
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    @staticmethod
    def group_calls(monkeypatch, kernel="_ladder_counts"):
        """The sides of each call of ``kernel``, splits included."""
        calls = []
        counts = getattr(sd.estimators, kernel)

        def spy(columns, sides, *rest):
            calls.append(sides.size)
            return counts(columns, sides, *rest)

        monkeypatch.setattr(sd.estimators, kernel, spy)
        return calls

    @pytest.mark.parametrize("octaves", [13, 17])
    def test_ladder_wider_than_one_digit_table(self, monkeypatch, octaves):
        # a graph over [0, 1) on sides 1 .. 2^-octaves: the digits of
        # 13 and 17 octaves take two tables of at most 2^12 entries
        # (_spread), and the time column's cells, all in the high part 0,
        # one whole-column table at 2^13; the ladder is still one pass
        calls = self.group_calls(monkeypatch)
        rng = np.random.default_rng(octaves)
        rows = 2**14
        points = np.column_stack([np.arange(rows) / rows, np.cumsum(rng.normal(scale=0.01, size=rows)) - 0.3])
        sides = sd.dyadic_scales(0, octaves)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))
        assert calls == [octaves + 1]

    def test_jump_beyond_a_63_bit_key(self, monkeypatch):
        # one jump of 1e5 widens the bounding-box key past 63 bits; ranking
        # the high parts still counts the ladder in one group pass, unsplit
        rng = np.random.default_rng(14)
        points = walk_cloud(rng, 4000, 3)
        points[2000:4000] += [1e5, -1e5, 1e5]
        sides = sd.dyadic_scales(0, 10)
        assert offset_key_bits(points, sides) > 63
        # every high part, less its offset or as its rank among the
        # column's distinct high parts, lies below its radix, and the
        # radices fit the key; so too over the walk's first 3000 rows, which
        # hold fewer distinct high parts
        for rows in (slice(None), slice(0, 3000)):
            columns = list(points[rows].T)
            lows, highs = [c.min() for c in columns], [c.max() for c in columns]
            radices, offsets = _high_parts(columns, sides.min(), 2**10, lows, highs, PathBuffers())
            assert any(isinstance(o, np.ndarray) for o in offsets)
            for c, r, o in zip(columns, radices, offsets):
                high = np.floor(c / sides.min()).astype(np.int64) >> 10
                if isinstance(o, np.ndarray):
                    assert np.array_equal(o, np.unique(high))
                else:
                    assert high.min() == o
                part = np.searchsorted(o, high) if isinstance(o, np.ndarray) else high - o
                assert part.min() >= 0 and part.max() < r
            assert np.prod(radices, dtype=float) <= 2.0 ** (63 - 3 * 10)
        calls = self.group_calls(monkeypatch)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))
        assert calls == [sides.size]

    def test_too_many_columns_for_one_key(self, monkeypatch):
        # 5 columns of 13 octaves need 65 interleaved bits: the ladder is
        # counted as a finer and a coarser half of 7 sides each, and the
        # finer half, whose ranks are wide too, splits again
        rng = np.random.default_rng(15)
        points = walk_cloud(rng, 4000, 5)
        sides = sd.dyadic_scales(0, 13)
        calls = self.group_calls(monkeypatch)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))
        assert calls[:2] == [14, 7] and calls[-1] == 7 and len(calls) > 3

    def test_one_side_beyond_a_63_bit_key(self, monkeypatch):
        # 4 columns of ~7e4 distinct cells each: even their ranks need more
        # than 63 bits, so the one side is counted by comparing whole rows
        rng = np.random.default_rng(16)
        points = rng.uniform(-1e6, 1e6, size=(70000, 4))
        side = 3.0**-3
        columns = list(points.T)
        assert _high_parts(columns, side, 1, [c.min() for c in columns], [c.max() for c in columns], PathBuffers()) is None
        calls = self.group_calls(monkeypatch)
        assert np.array_equal(count_occupied_cubes(points, [side]), reference_cube_counts(points, [side]))
        assert calls == [1]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_mixed_ladder(self, monkeypatch, dim):
        # dyadic and sqrt-3 sides shuffled together (1.0 sits in both): the
        # powers of two link into one chain of steps 2, the repeated 1.0 in
        # it as a step of 1; the other sides link into the chains
        # 3^-1/2 .. 3^-11/2 and 3^-1 .. 3^-5 of steps 3
        rng = np.random.default_rng(17 + dim)
        points = walk_cloud(rng, 4000, dim)
        sides = rng.permutation(np.concatenate([sd.dyadic_scales(0, 10), self.LADDERS["sqrt3"]]))
        calls = self.group_calls(monkeypatch)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))
        assert calls == [11 + 1, 6, 5]

    def test_chain_beyond_a_62_bit_key(self, monkeypatch):
        # 4 columns of ~1.6e8 cells each at side 3^-4: the chain's offset
        # keys do not fit, but its ranks do, so the chain is one call
        rng = np.random.default_rng(16)
        points = rng.uniform(-1e6, 1e6, size=(5000, 4))
        sides = np.array([3.0**-3, 3.0**-4])
        groups = self.group_calls(monkeypatch)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))
        assert groups == [2]

    def test_ranked_chain_with_a_row_near_an_integer(self):
        # the chain of test_chain_beyond_a_62_bit_key, its high parts ranked,
        # and a row at c = 1008 * 3^-3, whose quotients lie within rounding
        # of an integer: it is counted apart by its own cell at 3^-3,
        # floor(fl(c / 3^-3)) = 1007, one high part below its cell at 3^-4
        # divided by 3, 3024 // 3, where the row after it lies; so the ranks
        # take in the high part 1007, which no row's cell at 3^-4 has
        rng = np.random.default_rng(16)
        points = rng.uniform(-1e6, 1e6, size=(5000, 4))
        near = 1008 * 3.0**-3
        points[:2] = [near, 0.5, 0.5, 0.5], [near + 0.01, 0.5, 0.5, 0.5]
        sides = np.array([3.0**-3, 3.0**-4])
        assert np.floor(near / sides[1]) // 3 == 1008 and np.floor(near / sides[0]) == 1007
        columns = list(points.T)
        lows, highs = [c.min() for c in columns], [c.max() for c in columns]
        _, offsets = _high_parts(columns, sides[-1], 3, lows, highs, PathBuffers(), 1)
        assert all(isinstance(o, np.ndarray) for o in offsets)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    @pytest.mark.parametrize("scale", [1.0, 1e7])
    def test_chain_of_a_near_integer_ratio(self, monkeypatch, scale):
        # sides 3.0000000003 apart still nest; the band of quotients within
        # |y| (3e-10 + ulps) of an integer, counted apart, is narrow at
        # coordinates near 1 and not at 1e7 (about 0.02), where the chain is
        # split into its two sides
        rng = np.random.default_rng(18)
        points = walk_cloud(rng, 4000, 2) * scale
        sides = np.array([1.0 / 3.0, 1.0 / 9.0 / (1.0 + 1e-10)])
        groups = self.group_calls(monkeypatch)
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))
        assert groups == ([2] if scale == 1.0 else [2, 1, 1])

    @pytest.mark.parametrize("chunk", [7, sd.laws.CHUNK])
    def test_chain_keeps_the_row_after_a_left_out_row(self, chunk):
        # x an ulp below 5N where x / fl(3^-6) rounds up to 3645 N, the
        # cell of x + b / 3 too; but floor(x) = 5N - 1 at side 1, where
        # x + b / 3 lies in 5N; so that row is kept, though its cells equal
        # the row's before it, within a chunk and across its edges
        b = 3.0**-6
        multiples = 5.0 * np.arange(1.0, 301.0)
        x = np.nextafter(multiples, -np.inf)
        x = x[np.floor(x / b) == multiples / 5.0 * 3645.0]
        assert x.size > 50
        points = np.column_stack([x, x + b / 3.0]).reshape(-1, 1)
        sides = sd.geometric_scales(3.0, 0, 6)
        with mock.patch.object(sd.laws, "CHUNK", chunk):
            assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    @pytest.mark.xfail(strict=True, reason="a chain of power-of-two steps divides the cell -1 of -2^-1074 at side 0.25 by 8 to -1 at side 2, where the float floor of -2^-1074 / 2 = -0.0 is 0")
    def test_octaves_at_an_underflowing_quotient(self):
        # the per-side count reads [2, 2, 2, 1]; the one chain of the four
        # sides reads [2, 2, 2, 2] (the module docstring's exception)
        points = np.array([[-(2.0**-1074)], [0.00745]])
        sides = np.array([0.25, 1.0, 0.5, 2.0])
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    def test_chain_at_an_underflowing_quotient(self):
        # -2^-1074 / 3 rounds to -0.0: its float cell is -1 at side 1 and 0
        # at sides 3 and 9, so a chain counts that row apart
        points = np.array([[-(2.0**-1074)], [2.0**-1074], [0.7]])
        sides = np.array([9.0, 3.0, 1.0])
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    def test_chain_of_rows_all_near_an_integer(self):
        # every quotient an integer: no row keeps its nested cells, and each
        # side counts the rows' own cells alone
        points = np.array([[0.0, 1.0], [1.0, 3.0], [3.0, 3.0], [27.0, 2.0]])
        sides = np.array([9.0, 3.0, 1.0])
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    def test_wide_key_range(self):
        # cell indices spanning ~2^31 per column overflow a packed int64 key
        rng = np.random.default_rng(11)
        points = walk_cloud(rng, 2000, 3) * 1e6
        sides = sd.dyadic_scales(0, 10)
        span = np.floor(points.max(axis=0) / sides[-1]) - np.floor(points.min(axis=0) / sides[-1])
        assert np.prod(span + 1) > 2.0**62
        assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))

    @pytest.mark.parametrize("far", [2.0**62, -(2.0**62), np.inf, np.nan])
    def test_points_beyond_int64_cells_raise(self, far):
        # the side-2^-10 cell of 2^62 would not fit int64; the cast gives garbage
        points = np.array([[0.0, 0.5], [1.0, far * 2.0**-10]])
        with pytest.raises(DegenerateSample):
            count_occupied_cubes(points, sd.dyadic_scales(1, 10))

    def test_empty_and_single_side(self):
        assert count_occupied_cubes(np.zeros((0, 2)), [0.5, 0.25]).tolist() == [0, 0]
        points = np.array([[0.1, -0.1], [0.2, -0.2], [0.9, 0.9]])
        assert count_occupied_cubes(points, [0.5]).tolist() == [2]


# group bases with distinct float mantissas: 1, 3^-1/2, 3^-1, 0.1, 0.7
GROUP_BASES = (1.0, 3.0**-0.5, 1.0 / 3.0, 0.1, 0.7)
# ladders of sides that are integer, not power-of-two, multiples of each
# other: base 3, base 5, and 1/6 with 1/12 (one power-of-two group) and 1/36
CHAINS = (
    tuple(3.0**-k for k in range(-2, 8)),
    tuple(5.0**-k for k in range(-1, 6)),
    (1.0 / 6.0, 1.0 / 12.0, 1.0 / 36.0),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    ladder=st.lists(
        st.tuples(st.sampled_from(GROUP_BASES), st.sets(st.integers(-3, 14), min_size=1, max_size=6)),
        min_size=1,
        max_size=3,
        unique_by=lambda group: group[0],
    ),
    dim=st.integers(1, 5),
    rows=st.integers(1, 600),
    chain=st.sampled_from(CHAINS).flatmap(lambda sides: st.lists(st.sampled_from(sides), unique=True, max_size=7)),
    jump=st.sampled_from([0.0, 1.0, 1e3, 1e5]),
    snap=st.sampled_from([None, -1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cube_kernel_matches_per_side_unique(ladder, dim, rows, chain, jump, snap, seed):
    # sides from 1-3 mantissa groups, each a few octaves with gaps, and some
    # sides of an integer chain, in any order; a walk whose second half
    # jumps far away; with ``snap``, every third coordinate moved onto a
    # multiple of a side, then, if not 0, ``snap`` ulps up or down.  Not at
    # 0: a power-of-two group floors -2^-1074 / 2^k, which rounds to -0.0,
    # as the cell -1, where the per-side float floor reads 0; a chain
    # matches it there (test_chain_at_an_underflowing_quotient)
    rng = np.random.default_rng(seed)
    sides = rng.permutation([base * 2.0**-k for base, octaves in ladder for k in octaves] + chain)
    points = np.cumsum(rng.normal(scale=0.01, size=(rows, dim)), axis=0)
    points[rows // 2 :] += jump * rng.choice([-1.0, 1.0], size=dim)
    if snap is not None:
        side = rng.choice(sides, size=points[::3].shape)
        snapped = np.rint(points[::3] / side) * side
        points[::3] = np.where(snapped == 0.0, snapped, np.nextafter(snapped, np.inf * snap) if snap else snapped)
    assert np.array_equal(count_occupied_cubes(points, sides), reference_cube_counts(points, sides))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    steps=st.one_of(
        st.integers(1, 16).map(lambda k: (2,) * k),
        st.integers(1, 9).map(lambda k: (3,) * k),
        st.integers(1, 5).map(lambda k: (5,) * k),
        # 2 then 3 from the largest side, listed from the finest
        st.tuples(st.integers(1, 4), st.integers(1, 5)).map(lambda ab: (3,) * ab[0] + (2,) * ab[1]),
    ),
    dim=st.integers(1, 3),
    ranked=st.lists(st.booleans(), min_size=3, max_size=3),
    tables=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_zorder_key_coarsens_by_integer_division(steps, dim, ranked, tables, seed):
    # cells of either sign, with offset or ranked high parts, keyed through
    # a table or not, with digits in one piece or, past a product of 2^12,
    # in two (_spread): at each level the key of the coarser cells
    # floor(cell / P), P the product of the steps below it, is the key
    # floor-divided by P^D, so sorted keys stay sorted as they coarsen, and
    # two rows share a coarsened key exactly where they share those cells
    rng = np.random.default_rng(seed)
    multiple = math.prod(steps)
    cells = rng.integers(-50 * multiple, 50 * multiple, size=(dim, 300))
    high = np.floor_divide(cells, multiple)
    offsets = [np.unique(h) if r else int(h.min()) for h, r in zip(high, ranked)]
    radices = [o.size if r else int(h.max()) - o + 1 for h, o, r in zip(high, offsets, ranked)]
    assume(multiple**dim * math.prod(radices) < 2**63)

    def keys(cells, steps):
        coders = _column_coders(list(steps), (radices, offsets), math.prod(steps), list(range(dim)), 2**16 if tables else 0)
        key = np.empty(cells.shape[1], dtype=np.int64)
        _zorder_keys(cells, coders, key, np.empty((2, key.size), dtype=np.int64))
        return key

    key = keys(cells, steps)
    assert key.min() >= 0
    order = np.argsort(key)
    for level in range(len(steps) + 1):
        below = math.prod(steps[:level])
        coarse = np.floor_divide(cells, below)
        coarsened = key // below**dim
        assert np.array_equal(coarsened, keys(coarse, steps[level:]))
        assert np.all(np.diff(coarsened[order]) >= 0)
        assert np.unique(coarsened).size == np.unique(coarse, axis=1).shape[1]


def dense_near_pair_energies(points, gammas, r_cut):
    """The O(n^2) sum over ordered pairs i != j at distance <= r_cut, row by row."""
    sums = np.zeros(gammas.size)
    for i, p in enumerate(points):
        d2 = np.sum((points - p) ** 2, axis=1)
        d2[i] = np.inf
        near = d2[d2 <= r_cut**2]
        sums += [np.sum(near ** (-g / 2.0)) for g in gammas]
    return sums / points.shape[0] ** 2


class TestNearPairEnergies:
    GAMMAS = np.array([0.5, 1.0, 1.5, 2.0, 2.5])

    def brownian_graph(self, seed, n=12):
        return sd.simulate_path(BROWNIAN, BM_LAWS, n, seed=seed).graph_points()

    def test_matches_dense_in_time_order(self):
        # every other row of a path, as the energy blocks decimate it
        points = self.brownian_graph(12)[1::2]
        r_cut = 0.05
        got = _near_pair_energies(points, self.GAMMAS, r_cut)
        want = dense_near_pair_energies(points, self.GAMMAS, r_cut)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_pairs_at_the_cut_off_count(self):
        # a lattice line: many pairs sit exactly at distance r_cut
        points = np.column_stack([np.arange(3000) / 2.0**12, np.zeros(3000)])
        r_cut = 16 / 2.0**12
        got = _near_pair_energies(points, self.GAMMAS, r_cut)
        want = dense_near_pair_energies(points, self.GAMMAS, r_cut)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_duplicate_point_raises(self):
        # the repeated row stays in time order, beside its twin
        points = self.brownian_graph(13, n=11)
        points = np.insert(points, 1500, points[1500], axis=0)
        with pytest.raises(DegenerateSample):
            _near_pair_energies(points, self.GAMMAS, 0.05)


# gamma grids: evenly spaced; a builtin's, whose rounded steps differ in
# their last bits (3 distinct gaps); uneven; one gamma; a repeated gamma (a
# gap of 0); and, in one example only, as it takes the near pairs one at a
# time there, 80 uneven gammas, more rows than a chunk of 61 pairs holds
GAMMA_GRIDS = {
    "even": TestNearPairEnergies.GAMMAS,
    "builtin": np.round(np.arange(0.5, 1.85, 0.05), 10),
    "uneven": np.array([0.3, 0.55, 1.2, 1.25, 2.9]),
    "one": np.array([1.3]),
    "repeated": np.array([0.8, 0.8, 1.5, 1.5, 1.5, 2.0]),
    "many": np.sort(np.random.default_rng(7).uniform(0.2, 2.5, 80)),
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(2, 400),
    cantor_times=st.booleans(),
    cut=st.sampled_from(["below-gap", "between", "above-diameter"]),
    chunk=st.sampled_from([61, 2**10, estimators._ENERGY_CANDIDATES]),
    grid=st.sampled_from(sorted(set(GAMMA_GRIDS) - {"many"})),
    seed=st.integers(0, 2**32 - 1),
)
# K = n - 1 lags over several chunks of the default size, and within one
@example(dim=3, n=400, cantor_times=True, cut="above-diameter", chunk=estimators._ENERGY_CANDIDATES, grid="even", seed=1)
@example(dim=2, n=300, cantor_times=False, cut="above-diameter", chunk=estimators._ENERGY_CANDIDATES, grid="even", seed=2)
@example(dim=2, n=2, cantor_times=False, cut="above-diameter", chunk=estimators._ENERGY_CANDIDATES, grid="even", seed=3)
# every grid over several pieces of the near pairs of a chunk
@example(dim=2, n=400, cantor_times=False, cut="above-diameter", chunk=2**10, grid="builtin", seed=4)
@example(dim=3, n=400, cantor_times=True, cut="above-diameter", chunk=2**10, grid="uneven", seed=5)
@example(dim=2, n=60, cantor_times=False, cut="above-diameter", chunk=61, grid="many", seed=6)
@example(dim=2, n=300, cantor_times=False, cut="between", chunk=2**10, grid="one", seed=7)
@example(dim=3, n=300, cantor_times=False, cut="between", chunk=2**10, grid="repeated", seed=8)
def test_near_pair_kernel_matches_dense(dim, n, cantor_times, cut, chunk, grid, seed):
    # time-ordered walks over uniform or clustered Cantor-like times (8
    # ternary digits, so above 256 points times tie), in time order; the cut
    # below the smallest distance, between two distances, or above them all
    rng = np.random.default_rng(seed)
    if cantor_times:
        times = np.sort(2.0 * rng.integers(0, 2, size=(n, 8)) @ 3.0 ** -np.arange(1, 9))
    else:
        times = np.sort(rng.random(n))
    space = np.cumsum(rng.normal(scale=n**-0.5, size=(n, dim - 1)), axis=0)
    points = np.column_stack([times, space])
    gaps = np.unique(np.linalg.norm(points[:, None] - points[None], axis=2)[np.triu_indices(n, 1)])
    if cut == "below-gap":
        r_cut = gaps[0] / 2.0
    elif cut == "above-diameter":
        r_cut = 2.0 * gaps[-1]
    else:
        i = rng.integers(0, gaps.size)
        r_cut = (gaps[i] + np.append(gaps[1:], 2.0 * gaps[-1])[i]) / 2.0
    gammas = GAMMA_GRIDS[grid]
    with mock.patch.object(estimators, "_ENERGY_CANDIDATES", chunk):
        got = _near_pair_energies(points, gammas, r_cut)
    want = dense_near_pair_energies(points, gammas, r_cut)
    assert np.all(want > 0.0) == (cut != "below-gap")
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_near_pair_kernel_allocates_no_rows_of_powers():
    # brownian-cantor's 27 gammas (3 distinct gaps) on a lattice line whose
    # 16 lags are all near: a chunk of 2^16 near pairs, whose powers take
    # the slot 0.  Beyond the slots the kernel allocates the near pairs of a
    # chunk once (its one boolean index) and small arrays; 3 rows of ratios
    # of a chunk allocated afresh would add 1.5 MiB
    gammas = np.array(sd.get_scenario("brownian-cantor").energy_gammas)
    n = 2**12
    points = np.column_stack([np.arange(n) / n, np.zeros(n)])
    buffers = PathBuffers()
    _near_pair_energies(points, gammas, 16 / n, buffers)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _near_pair_energies(points, gammas, 16 / n, buffers)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * estimators._ENERGY_CANDIDATES + 2**18


def test_a_run_loads_no_scipy():
    # set-up, decompositions included, and a whole run through the energy
    # stage are numpy-only; scaling operators and the semi-selfsimilarity
    # test load scipy themselves.  Set-up loads neither numpy.ma nor
    # concurrent.futures, which it never uses
    code = (
        "import dataclasses, sys, semidim\n"
        "for sc in semidim.builtin_scenarios().values(): sc.validate_expected(); sc.spec.decomposition\n"
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules))\n"
        "sc = dataclasses.replace(semidim.get_scenario('brownian-interval'), n=12, n_seeds=2,\n"
        "    box_sides=tuple(2.0 ** -k for k in range(1, 11)), sojourn_n=10, sojourn_ensemble=200,\n"
        "    sojourn_radii=tuple(2.0 ** -k for k in range(2, 6)), energy_ratio=4)\n"
        "assert semidim.run_scenario(sc, 1).stages['energy']['estimate'] > 0.0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = os.environ | {"PYTHONPATH": str(Path(sd.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["[]", "[]"]


class TestCoveringCount:
    def test_trivial_schedule_id_supdimension(self):
        # kappa = d+2 beats the volume bound: sums shrink to nothing as the
        # mesh refines
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 14, seed=8)
        sums = []
        for m in range(2, 9):
            cc = covering_count(p, dyadic_intervals(m), Schedule.ID, 3.0, (2.0,))
            sums.append(cc.weighted_sum)
        assert all(b < a for a, b in zip(sums, sums[1:]))
        assert sums[-1] < 0.01 * sums[0]

    @pytest.mark.parametrize("alpha_2", [1.0, 1.5])
    def test_schedule_a2_sides_and_counts(self, alpha_2):
        # diag-2-1-interval's exponent diag(1/2, 1/alpha_2) with alpha_2 = 1,
        # and alpha_2 = 1.5, at which the A2 side |I|^(1/alpha_2) is neither
        # the A1 side |I|^(1/2) nor the ID side |I|
        spec = sd.validate_exponent(np.diag([0.5, 1.0 / alpha_2]), 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0), BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=alpha_2))
        p = sd.simulate_path(spec, laws, 12, seed=5)
        intervals = dyadic_intervals(2) + [(0.1, 0.35)]
        cc = covering_count(p, intervals, Schedule.A2, 1.0, (2.0, alpha_2))
        for i, (lo, hi) in enumerate(intervals):
            side = (hi - lo) ** (1.0 / alpha_2)
            inside = (p.times >= lo) & (p.times <= hi)
            assert cc.sides[i] == side
            assert cc.counts[i] == count_occupied_cubes(p.graph_points()[inside], side)[0]

    def test_schedule_mismatch(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 10, seed=8)
        with pytest.raises(ScheduleMismatch):
            covering_count(p, dyadic_intervals(3), Schedule.A2, 1.0, (2.0,))

    def test_interval_validation(self):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 10, seed=8)
        with pytest.raises(ValueError):
            covering_count(p, [(0.5, 1.5)], Schedule.ID, 1.0, (2.0,))


class TestSojournClassification:
    def test_cases(self):
        assert classify_sojourn_case([1.5], [2])[0:2] == ("i", 1.5)
        assert classify_sojourn_case([0.8], [2])[0:2] == ("ii", 1.0)
        assert classify_sojourn_case([2.0, 1.0], [1, 1])[0:2] == ("iii", 1.5)
        assert classify_sojourn_case([2.0, 0.5], [1, 1])[0:2] == ("iv", 1.5)
        assert classify_sojourn_case([2.0], [1])[0:2] == ("iv", 1.5)
        assert classify_sojourn_case([1.0], [1])[0:2] == ("i", 1.0)


def reference_sojourn_paths(spec, laws, radii, horizon, ensemble, seed, n, name="sojourn"):
    """Sojourn means and stderrs per target over whole paths, radii ascending:
    per path, the grid step times the grid points t_k < s within radius a.
    The Riemann sum counts t = 0 as a whole step, a bias of up to 2^-n."""
    dt = 2.0 ** (-n)
    r2 = np.sort(np.asarray(radii, dtype=float)) ** 2
    t_a = {"graph": [], "range": []}
    for i in range(ensemble):
        path = sd.simulate_path(spec, laws, n, seed, name=f"{name}/path/{i}")
        keep = path.times < horizon
        x2 = np.sum(path.values[keep] ** 2, axis=1)
        for target, norms in (("graph", x2 + path.times[keep] ** 2), ("range", x2)):
            t_a[target].append(dt * np.array([np.count_nonzero(norms <= a2) for a2 in r2]))
    return {target: (np.mean(v, axis=0), np.std(v, axis=0) / np.sqrt(ensemble)) for target, v in t_a.items()}


class TestSojournMC:
    SEMISTABLE = sd.validate_exponent(np.array([[1.0]]), 2.0)
    SEMISTABLE_LAWS = (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),)

    @pytest.mark.parametrize(
        "spec, laws, n, radii",
        [
            # T(a) ~ a^2 for Brownian motion: a^2 >= 2^-8 keeps the oracle's
            # 2^-14 Riemann bias well below its stderr
            (BROWNIAN, BM_LAWS, 14, sd.geometric_scales(2.0, 2, 4)),
            # T(a) ~ a for alpha = 1
            (SEMISTABLE, SEMISTABLE_LAWS, 12, sd.geometric_scales(2.0, 2, 5)),
        ],
        ids=["brownian", "semistable"],
    )
    def test_matches_path_oracle(self, spec, laws, n, radii):
        estimates = sd.sojourn_mc(spec, laws, radii, 1.0, 300, 1, n)
        oracle = reference_sojourn_paths(spec, laws, radii, 1.0, 300, 1, n)
        for est in estimates:
            mean, stderr = oracle[est.target]
            assert np.all(np.abs(est.means - mean) <= 4.0 * np.hypot(est.stderrs, stderr)), est.target

    def test_one_marginal_draw_per_run(self, monkeypatch):
        from semidim import estimators

        calls = []

        def counted(spec, laws, t, size, seed, name):
            calls.append((np.shape(t), size, name))
            return sd.sample_marginal(spec, laws, t, size, seed, name)

        monkeypatch.setattr(estimators, "sample_marginal", counted)
        sd.sojourn_mc(BROWNIAN, BM_LAWS, sd.geometric_scales(2.0, 2, 6), 1.0, 205, 1, 12, name="run")
        # 8 * 12 + 1 strata, each drawn 205 times over the 10 batches
        assert calls == [((97 * 205,), 97 * 205, "run/draws")]

    def test_monotone_and_bounded(self):
        radii = sd.geometric_scales(2.0, 2, 6)
        graph_est, range_est = sd.sojourn_mc(BROWNIAN, BM_LAWS, radii, 1.0, 200, 1, 12)
        for est in (graph_est, range_est):
            assert np.all(np.diff(est.means) >= 0)  # nondecreasing in a
            assert np.all(est.means <= 1.0)
        assert np.all(graph_est.means <= range_est.means + 1e-12)

    def test_errors(self):
        radii = sd.geometric_scales(2.0, 2, 6)
        with pytest.raises(EnsembleTooSmall):
            sd.sojourn_mc(BROWNIAN, BM_LAWS, radii, 1.0, 50, 1, 12)
        with pytest.raises(RadiiOutOfRange):
            sd.sojourn_mc(BROWNIAN, BM_LAWS, np.array([0.7]), 1.0, 200, 1, 12)
        with pytest.raises(RadiiOutOfRange):
            sd.sojourn_mc(BROWNIAN, BM_LAWS, np.array([2.0**-8]), 1.0, 200, 1, 12)


class TestEnergyDimension:
    GAMMAS = np.round(np.arange(0.5, 2.05, 0.05), 10)

    def test_line_graph(self):
        est = sd.energy_dimension(line_path(20), interval(0, 1), self.GAMMAS, 1000, 3, ratio=16)
        assert 0.9 <= est.estimate <= 1.05

    def test_gamma_above_ambient_dimension_diverges(self):
        # no subset of R^2 has dimension > 2
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 18, seed=9)
        est = sd.energy_dimension(
            p, interval(0, 1), np.array([1.0, 2.5, 3.0]), 1000, 3, ratio=16
        )
        assert not est.stable[-1]
        assert not est.stable[-2]

    def test_needs_thousand_points(self):
        with pytest.raises(DegenerateSample):
            sd.energy_dimension(line_path(12), interval(0, 1), self.GAMMAS, 500, 3)

    def test_too_few_candidates(self):
        with pytest.raises(DegenerateSample):
            sd.energy_dimension(line_path(10), interval(0, 1), self.GAMMAS, 1000, 3, ratio=16)

    def test_cantor_thinning_guard(self):
        # grid too coarse to thin ratio*subsample points to distinct pieces
        with pytest.raises(DegenerateSample):
            sd.energy_dimension(line_path(14), cantor(2, 1 / 3), self.GAMMAS, 1024, 3, ratio=4)

    @pytest.mark.parametrize(
        "borel, cover_level, n_needed",
        [(interval(0.1, 0.9), None, 8000), (cantor(), 8, 2048), (cantor(3, 0.2), None, 2000), (sd.union(interval(0.0, 0.1), cantor()), 7, 8000)],
    )
    def test_candidates_match_the_whole_path_index(self, borel, cover_level, n_needed):
        # the candidates, found a chunk of rows at a time, equal the former
        # index of every qualifying row, thinned to each piece's first row on
        # a self-similar set, as ascending int64 rows
        path = line_path(18)
        level = estimators.energy_cover_level(borel, n_needed)
        want = np.flatnonzero(borel.contains(path.times, path.n, cover_level if level is None else level))
        if level is not None:
            cell = np.floor(path.times[want] / borel.r**level).astype(np.int64)
            want = want[np.unique(cell, return_index=True)[1]]
        rows = estimators._energy_candidates(path, borel, cover_level, n_needed)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, want)
