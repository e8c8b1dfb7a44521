import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import semidim as sd
from semidim.errors import BlockLawMismatch, BudgetExceeded, DegenerateSample, EnsembleTooSmall
from semidim.laws import BlockLaw, LawKind
from semidim.paths import sample_marginal

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
    # only the semi-selfsimilarity test needs scipy.stats, and it loads it
    code = "import sys, semidim; print('scipy.stats' in sys.modules)"
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

    def test_ensemble_too_small(self):
        with pytest.raises(EnsembleTooSmall):
            sd.semiselfsimilarity_test(BROWNIAN, BM_LAWS, t=0.25, ensemble=100, seed=0)

    def test_ensemble_beyond_memory_rejected_before_sampling(self):
        with pytest.raises(BudgetExceeded):
            sd.semiselfsimilarity_test(BROWNIAN, BM_LAWS, t=0.25, ensemble=10**15, seed=0)
