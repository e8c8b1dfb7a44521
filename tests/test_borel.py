import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semidim import BorelSetSpec, cantor, interval, simulate_path, time_set, union, validate_exponent
from semidim.borel import SetKind, check_cover_level
from semidim.errors import InvalidInputs, ResolutionTooCoarse
from semidim.laws import CHUNK, BlockLaw, LawKind
from semidim.paths import grid_times

BM_LAWS = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)


def reference_contains(spec, t, n, level):
    """Whether time t lies in the set, level by level in plain floats."""
    if spec.kind is SetKind.FINITE_UNION:
        return any(reference_contains(member, t, n, level) for member in spec.members)
    if spec.kind is SetKind.INTERVAL:
        return spec.a <= t <= spec.b
    pitch = (1.0 - spec.r) / (spec.m - 1)
    for _ in range(spec.cover_level(n) if level is None else level):
        t -= min(max(math.floor(t / pitch), 0), spec.m - 1) * pitch
        if not -1e-12 <= t <= spec.r + 1e-12:
            return False
        t /= spec.r
    return True


class TestDimensions:
    def test_interval(self):
        assert interval(0.0, 1.0).hausdorff_dim == 1.0
        assert interval(0.2, 0.7).hausdorff_dim == 1.0
        assert interval(0.3, 0.3).hausdorff_dim == 0.0

    def test_cantor_self_similarity_oracle(self):
        # oracle: m pieces of ratio r have dimension log m / log(1/r)
        assert cantor(2, 1 / 3).hausdorff_dim == pytest.approx(math.log(2) / math.log(3))
        assert cantor(3, 1 / 5).hausdorff_dim == pytest.approx(math.log(3) / math.log(5))
        assert cantor(2, 0.5).hausdorff_dim == pytest.approx(1.0)

    def test_union_max(self):
        u = union(cantor(2, 1 / 3), interval(0.0, 0.1))
        assert u.hausdorff_dim == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            interval(-0.1, 0.5)
        with pytest.raises(ValueError):
            interval(0.5, 0.2)
        with pytest.raises(ValueError):
            cantor(2, 0.6)  # m*r > 1
        with pytest.raises(ValueError):
            cantor(1, 0.3)
        for m in (2**53 + 1, 2**63, 10**30, 10**400):  # piece indices past exact floats
            with pytest.raises(ValueError):
                cantor(m, 1e-320)


class TestMask:
    def test_interval_mask(self):
        mask = interval(0.25, 0.75).mask(3)
        assert mask.sum() == 5  # 0.25, 0.375, 0.5, 0.625, 0.75

    def test_middle_thirds_level_one(self):
        mask = cantor(2, 1 / 3).mask(2, level=1)
        # level-1 pieces are [0, 1/3] and [2/3, 1]
        assert mask.tolist() == [True, True, False, True, True]

    def test_cover_point_counts(self):
        n = 16
        for level in (3, 5, 7):
            got = cantor(2, 1 / 3).mask(n, level=level).sum()
            want = 2**level * (3.0**-level) * 2**n  # pieces x points per piece
            assert abs(got - want) / want < 0.05

    def test_union_mask(self):
        u = union(interval(0.0, 0.3), interval(0.7, 1.0))
        assert u.mask(5).sum() == 20

    @pytest.mark.parametrize(
        "spec, n, level",
        [
            (cantor(), 16, 8),
            (cantor(), 20, None),
            (cantor(3, 0.2), 14, 5),
            (cantor(2, 0.5), 12, 10),
            (cantor(10**5, 1e-6), 14, 2),
        ],
    )
    def test_matches_the_copying_reference(self, spec, n, level):
        # the mask carries only the times still alive; the reference carries
        # every time through every level, with the mask's slack: 1e-12, or an
        # ulp of 1 grown by 1/r a level where that is larger
        t = np.arange(2**n + 1) / 2**n
        offsets = np.arange(spec.m) * (1.0 - spec.r) / (spec.m - 1)
        x, alive, growth = t.copy(), np.ones(t.size, dtype=bool), 1.0
        for _ in range(spec.cover_level(n) if level is None else level):
            rel = x - offsets[np.clip(np.floor(x / offsets[1]).astype(int), 0, spec.m - 1)]
            slack = max(1e-12, np.finfo(float).eps * growth)
            inside = (rel >= -slack) & (rel <= spec.r + slack)
            alive &= inside
            x = np.where(inside, rel / spec.r, 0.0)
            growth /= spec.r
        assert np.array_equal(spec.mask(n, level), alive)

    @pytest.mark.parametrize(
        "spec",
        [cantor(2, 1 / 3), cantor(3, 0.2), cantor(2, 0.5), cantor(4, 0.25), union(cantor(3, 0.2), interval(0.45, 0.55), cantor())],
    )
    @pytest.mark.parametrize("level", [None, 4])
    def test_matches_a_per_time_reference(self, spec, level):
        n = 12
        want = [reference_contains(spec, t, n, level) for t in grid_times(n).tolist()]
        assert spec.mask(n, level).tolist() == want

    @pytest.mark.parametrize(
        "spec, level",
        [(cantor(), 8), (cantor(), None), (cantor(3, 0.2), 5), (union(interval(0.0, 0.2), cantor()), 6), (interval(0.3, 0.6), None)],
    )
    def test_contains_is_the_mask_on_any_rows(self, spec, level):
        # the test of a grid time does not depend on which other times come with it
        n = 16
        rows = np.sort(np.random.default_rng(1).choice(2**n + 1, 5000, replace=False))
        mask = spec.mask(n, level)
        assert np.array_equal(spec.contains(grid_times(n)[rows], n, level), mask[rows])
        kept = np.flatnonzero(mask)
        assert spec.contains(kept * 2.0**-n, n, level).all()

    # the mask's chunks: its temporaries take 4 values a grid time
    CHUNK_BITS = (CHUNK // 4).bit_length() - 1

    @pytest.mark.parametrize("n", range(CHUNK_BITS - 1, CHUNK_BITS + 4))
    @pytest.mark.parametrize(
        "spec, level",
        [(cantor(), 8), (cantor(3, 0.2), 5), (union(interval(0.0, 0.2), cantor()), 6), (interval(0.3, 0.6), None)],
    )
    def test_chunked_mask_is_contains_on_the_whole_grid(self, spec, level, n):
        # grids of less than one chunk, one chunk and a row, two, four and
        # eight chunks and a row
        assert CHUNK // 4 == 2**self.CHUNK_BITS
        assert np.array_equal(spec.mask(n, level), spec.contains(grid_times(n), n, level))

    def test_mask_scratch_is_bounded_by_the_chunk(self):
        # 2^20 + 1 grid times: a 1 MiB answer, where one contains call on the
        # whole grid would peak at 33 MiB of float copies and masks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cantor().mask(20, 8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "spec, level", [(cantor(10**12, 1e-13), None), (cantor(2**53, 2.0**-53), None), (cantor(2**53, 2.0**-53), 2)]
    )
    def test_many_pieces(self, spec, level):
        # each live time's piece offset comes from its index: no array of m offsets
        n = 12
        want = [reference_contains(spec, t, n, level) for t in grid_times(n).tolist()]
        assert spec.mask(n, level).tolist() == want

    @pytest.mark.parametrize("spec, n", [(cantor(10**12, 1e-13), 12), (cantor(10**5, 1e-6), 14)])
    @pytest.mark.parametrize("level", [2, 3])
    def test_keeps_the_right_end_at_extreme_ratios(self, spec, n, level):
        # t = 1 ends the last piece at every level; the rounding of its offset
        # in that piece grows by 1/r a level, past a fixed slack of 1e-12
        assert spec.mask(n, level)[-1] and spec.contains(np.array([1.0]), n, level)[0]

    def test_extreme_ratio_matches_a_per_time_reference(self):
        spec, n = cantor(10**12, 1e-13), 12
        want = [reference_contains(spec, t, n, 2) for t in grid_times(n).tolist()]
        assert spec.mask(n, 2).tolist() == want and want[-1]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(2, 6),
        # r = share / m: touching pieces (m r = 1), common fractions, any ratio
        share=st.one_of(st.just(1.0), st.sampled_from([0.5, 0.75, 2 / 3, 0.6]), st.floats(0.01, 1.0)),
        n=st.integers(4, 18),
        beyond=st.integers(0, 3),
    )
    @example(m=2, share=2 / 3, n=18, beyond=0)  # the middle-thirds set
    @example(m=5, share=1.0, n=12, beyond=1)  # t = 1 ends the last piece in rounding
    @example(m=4, share=0.4, n=16, beyond=0)
    @example(m=2, share=0.02, n=10, beyond=3)  # pieces far shorter than a grid step
    # r = 1/4 - 1e-13: grid points 1e-13 outside piece ends, inside the slack
    @example(m=2, share=0.5 - 2e-13, n=12, beyond=0)
    def test_built_from_pieces_is_contains_on_every_grid_point(self, m, share, n, beyond):
        # every level up to the automatic cover, and up to ``beyond`` deeper
        # ones, whose pieces may be shorter than a grid step, while the m^L
        # pieces do not outnumber the grid's 2^n + 1 points: built from the
        # pieces up to (2^n + 1) / 8 of them, and time by time beyond
        spec = cantor(m, share / m)
        times = grid_times(n)
        for level in range(1, spec.cover_level(n) + beyond + 1):
            if m**level > 2**n + 1:
                break
            assert np.array_equal(spec.mask(n, level), spec.contains(times, n, level)), level
        assert np.array_equal(spec.mask(n), spec.contains(times, n))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        m=st.integers(2, 6),
        share=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        ends=st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 2**14).map(lambda k: k / 2**14)), min_size=2, max_size=6),
        n=st.integers(4, 14),
        level=st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_union_is_contains_on_every_grid_point(self, m, share, ends, n, level):
        # a Cantor set with intervals, some of whose ends lie on the grid
        ends = sorted(ends)
        spec = union(cantor(m, share / m), *(interval(a, b) for a, b in zip(ends[::2], ends[1::2])))
        assert np.array_equal(spec.mask(n, level), spec.contains(grid_times(n), n, level))

    @pytest.mark.parametrize("level", [8, 9, 11, 12])
    def test_builtin_covers_are_contains(self, level):
        # the box and energy covers of the Cantor builtins on their 2^20 grid
        assert np.array_equal(cantor().mask(20, level), cantor().contains(grid_times(20), 20, level))

    def test_more_pieces_than_grid_points(self):
        # 3^5 = 243 pieces on 2^6 + 1 = 65 points: the grid is tested time by time
        want = [reference_contains(cantor(3, 0.2), t, 6, 5) for t in grid_times(6).tolist()]
        assert cantor(3, 0.2).mask(6, 5).tolist() == want

    def test_mask_lies_on_the_path_grid(self):
        path = simulate_path(validate_exponent(np.array([[0.5]]), 2.0), BM_LAWS, 10, seed=1)
        assert np.array_equal(grid_times(10), path.times)
        assert cantor().mask(10).shape == path.times.shape

    def test_automatic_cover_level(self):
        # pieces of 3^-L hold >= 2 points of step 2^-n: L = floor((n - 1) log 2 / log 3)
        assert [cantor().cover_level(n) for n in (1, 4, 12, 20)] == [1, 1, 6, 11]
        assert interval().cover_level(20) == 0


class TestCoverLevelGuard:
    def test_accepted(self):
        check_cover_level(cantor(), None, 2)
        check_cover_level(cantor(), 12, 20)  # 3^-12 >= 2^-20
        check_cover_level(union(interval(0.0, 0.1), cantor(3, 0.2)), 8, 20)
        check_cover_level(interval(), 10**9, 2)  # no Cantor member to resolve

    @pytest.mark.parametrize("level", [0, -1])
    def test_below_one(self, level):
        with pytest.raises(InvalidInputs):
            check_cover_level(interval(), level, 20)

    @pytest.mark.parametrize(
        "borel, level", [(cantor(), 13), (cantor(), 10**9), (union(interval(), cantor(3, 0.2)), 9)]
    )
    def test_finer_than_the_grid(self, borel, level):
        with pytest.raises(ResolutionTooCoarse):
            check_cover_level(borel, level, 20)


class TestTimeSet:
    def test_every_form(self, tmp_path):
        spec = interval(0.0, 0.5)
        path = tmp_path / "b.json"
        path.write_text(spec.to_json())
        assert time_set(None) == interval(0.0, 1.0)
        assert time_set("cantor") == cantor(2, 1 / 3)
        assert time_set(spec) is spec
        assert time_set(str(path)) == spec
        assert time_set(spec.to_json()) == spec
        # inline JSON too long to name a file
        spec = union(*(interval(0.1 * k, 0.1 * k + 0.05) for k in range(5)))
        assert len(spec.to_json().encode()) > 255
        assert time_set(spec.to_json()) == spec


class TestSerialization:
    def test_round_trip(self):
        for spec in (interval(0.1, 0.9), cantor(3, 0.2), union(cantor(2, 1 / 3), interval(0, 0.5))):
            again = BorelSetSpec.from_json(spec.to_json())
            assert again == spec
