import math

import numpy as np
import pytest

from semidim import (
    Branch,
    classify_sojourn_case,
    dimensions_from_spectrum,
    graph_dimension,
    range_dimension,
)
from semidim.errors import InvalidInputs, ScheduleMismatch


def cantor_dim(m: int, ratio: float) -> float:
    # self-similarity oracle: m pieces scaled by ratio
    return math.log(m) / math.log(1.0 / ratio)


class TestGraphDimension:
    def test_fast_branch_reference_value(self):
        res = graph_dimension(2.0, 1.0, 1, 1.0)
        assert res.value == pytest.approx(1.5, abs=1e-15)
        assert res.branch is Branch.FAST

    def test_slow_branch_reference_value(self):
        res = graph_dimension(0.8, 0.5, 2, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.branch is Branch.SLOW

    def test_zero_time_set(self):
        res = graph_dimension(1.7, 0.9, 1, 0.0)
        assert res.value == 0.0
        assert res.branch is Branch.SLOW

    def test_value_zero_iff_s_zero(self):
        for s in (0.01, 0.35, 1.0):
            assert graph_dimension(1.5, 1.1, 1, s).value > 0.0

    def test_single_block_default(self):
        # p = 1: alpha_2 counts as 0; with d >= 2 FAST is unreachable, and
        # with d = 1 FAST is the one-dimensional 1 + s - 1/alpha
        res = graph_dimension(1.5, None, 2, 1.0)
        assert res.branch is Branch.SLOW
        res = graph_dimension(2.0, None, 1, 1.0)
        assert res.value == 1.5
        assert res.branch is Branch.FAST

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputs):
            graph_dimension(2.5, 1.0, 1, 0.5)
        with pytest.raises(InvalidInputs):
            graph_dimension(2.0, 1.0, 1, 1.5)
        with pytest.raises(InvalidInputs):
            graph_dimension(1.0, 1.5, 1, 0.5)  # alpha ordering violated
        with pytest.raises(InvalidInputs):
            graph_dimension(2.0, 1.0, 0, 0.5)


class TestGraphDimension1d:
    # a one-dimensional process: a single index and d_1 = 1
    def test_brownian_interval(self):
        res = graph_dimension(2.0, None, 1, 1.0)
        assert res.value == pytest.approx(1.5, abs=1e-15)

    def test_slow_branch(self):
        res = graph_dimension(0.5, None, 1, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.branch is Branch.SLOW

    def test_brownian_over_cantor(self):
        s = cantor_dim(2, 1.0 / 3.0)
        res = graph_dimension(2.0, None, 1, s)
        assert res.value == pytest.approx(1.0 + s - 0.5, abs=1e-15)
        assert res.value == pytest.approx(1.13093, abs=1e-5)


class TestRangeDimension:
    def test_fast_branch_reference_value(self):
        res = range_dimension(2.0, 0.5, 1, 1.0)
        assert res.value == pytest.approx(1.25, abs=1e-15)
        assert res.branch is Branch.FAST

    def test_slow_branch_reference_value(self):
        res = range_dimension(1.5, 0.8, 1, 0.5)
        assert res.value == pytest.approx(0.75, abs=1e-15)
        assert res.branch is Branch.SLOW

    def test_zero(self):
        assert range_dimension(1.5, 0.8, 1, 0.0).value == 0.0


class TestProperties:
    def test_boundary_continuity_d1(self):
        # branches agree at s = 1/alpha1 when d1 = 1
        rng = np.random.default_rng(0)
        for _ in range(500):
            a1 = rng.uniform(1.0, 2.0)
            a2 = rng.uniform(0.2, a1)
            s_star = 1.0 / a1
            slow = s_star * max(a1, 1.0)
            fast = 1.0 + max(a2, 1.0) * (s_star - 1.0 / a1)
            assert abs(slow - fast) < 1e-12

    def test_branch_reachability_d1_2_alpha_2(self):
        # alpha_1 = 2, d_1 = 2: the SLOW branch reaches s = 1 and FAST never fires
        res = graph_dimension(2.0, None, 2, 1.0)
        assert res.branch is Branch.SLOW
        assert res.value == pytest.approx(2.0)

    def test_domination_and_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(3000):
            a1 = rng.uniform(0.05, 2.0)
            a2 = rng.uniform(0.02, a1)
            d1 = int(rng.integers(1, 4))
            s = rng.uniform(0.0, 1.0)
            g = graph_dimension(a1, a2, d1, s).value
            r = range_dimension(a1, a2, d1, s).value
            assert g >= r - 1e-12
            assert g >= s - 1e-12
            assert g <= s + 1.0 + 1e-12

    def test_monotonicity_in_s(self):
        for a1, a2, d1 in [(2.0, 1.0, 1), (1.5, 0.5, 1), (0.8, 0.5, 2), (2.0, 1.9, 1)]:
            s_grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
            vals = [graph_dimension(a1, a2, d1, s).value for s in s_grid]
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotonicity_in_alphas(self):
        s, d1 = 0.9, 1
        a1_grid = np.arange(1.2, 2.0, 1e-3)
        vals = [graph_dimension(a1, 1.0, d1, s).value for a1 in a1_grid]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        a2_grid = np.arange(0.2, 1.8, 1e-3)
        vals = [graph_dimension(1.9, a2, d1, s).value for a2 in a2_grid]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class TestFromSpectrum:
    def test_one_dimensional_dispatch(self):
        out = dimensions_from_spectrum([2.0], [1], 1.0)
        assert out["graph"].value == pytest.approx(1.5)
        assert out["range"].value == pytest.approx(1.0)

    def test_two_block(self):
        out = dimensions_from_spectrum([2.0, 0.5], [1, 1], 1.0)
        assert out["graph"].value == pytest.approx(1.5)
        assert out["range"].value == pytest.approx(1.25)


# Oracles: the literal one-dimensional formulas and the one-block sojourn
# branch that the two-index formulas replace (alpha_2 = 0 for one block).
def graph_1d_oracle(alpha, s):
    if alpha * s <= 1.0:
        return s * max(alpha, 1.0), Branch.SLOW
    return 1.0 + s - 1.0 / alpha, Branch.FAST


def range_1d_oracle(alpha, s):
    return min(1.0, alpha * s), Branch.SLOW if alpha * s <= 1.0 else Branch.FAST


def sojourn_one_block_oracle(alpha, d):
    if alpha <= d:
        return ("i", alpha, alpha) if alpha >= 1.0 else ("ii", 1.0, alpha)
    if d == 1:
        return "iv", 2.0 - 1.0 / alpha, 1.0
    raise ScheduleMismatch("alpha_1 > d_1 needs a second spectral index")


class TestOneBlockOracle:
    ALPHAS = np.concatenate([np.linspace(0.01, 2.0, 400), [0.5, 1.0, 1.5, 2.0]])
    SS = np.concatenate([np.linspace(0.0, 1.0, 301), [math.log(2) / math.log(3)]])

    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_graph_and_range(self, d1):
        for alpha in self.ALPHAS:
            for s in self.SS:
                out = dimensions_from_spectrum([alpha], [d1], s)
                g, r = out["graph"], out["range"]
                if d1 == 1:
                    g_want, g_branch = graph_1d_oracle(alpha, s)
                    r_want, r_branch = range_1d_oracle(alpha, s)
                else:
                    # one block in d >= 2: alpha * s <= 2 <= d_1 keeps SLOW
                    g_want, g_branch = s * max(alpha, 1.0), Branch.SLOW
                    r_want, r_branch = alpha * s, Branch.SLOW
                assert g.branch is g_branch and r.branch is r_branch
                assert abs(g.value - g_want) <= 2.3e-16
                assert r.value == r_want

    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_sojourn(self, d1):
        for alpha in self.ALPHAS:
            assert classify_sojourn_case([alpha], [d1]) == sojourn_one_block_oracle(alpha, d1)
