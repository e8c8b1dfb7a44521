"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every quantity is
derived from the documented master seed, so the whole suite is
byte-reproducible; the final criterion re-executes key stages to prove it.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

import semidim as sd
from semidim.estimators import Schedule, covering_count, dyadic_intervals
from semidim.harness import INCONCLUSIVE, PASS, builtin_scenarios, run_scenario
from semidim.laws import BlockLaw, LawKind

MASTER_SEED = 20260809
THREADS = 4


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name, sc in builtin_scenarios().items():
        started = time.perf_counter()
        out[name] = (run_scenario(sc, MASTER_SEED, threads=THREADS), time.perf_counter() - started)
    return out


class TestCriterion1Formulas:
    def test_formula_suite(self):
        started = time.perf_counter()
        cantor_s = math.log(2) / math.log(3)
        cases = [
            (sd.graph_dimension(2.0, 1.0, 1, 1.0).value, 1.5),
            (sd.graph_dimension(0.8, 0.5, 2, 1.0).value, 1.0),
            (sd.graph_dimension(1.3, 0.7, 1, 0.0).value, 0.0),
            (sd.graph_dimension(2.0, None, 1, 1.0).value, 1.5),
            (sd.graph_dimension(0.5, None, 1, 1.0).value, 1.0),
            (sd.graph_dimension(2.0, None, 1, cantor_s).value, 1.0 + cantor_s - 0.5),
            (sd.range_dimension(2.0, 0.5, 1, 1.0).value, 1.25),
            (sd.range_dimension(1.5, 0.8, 1, 0.5).value, 0.75),
            (sd.range_dimension(1.1, 0.6, 1, 0.0).value, 0.0),
        ]
        worst = max(abs(got - want) for got, want in cases)
        assert worst < 1e-12

        rng = np.random.default_rng(MASTER_SEED)
        n_sweep = 10**5
        a1 = rng.uniform(0.05, 2.0, n_sweep)
        a2 = a1 * rng.uniform(0.01, 1.0, n_sweep)
        d1 = rng.integers(1, 4, n_sweep)
        s = rng.uniform(0.0, 1.0, n_sweep)
        for i in range(n_sweep):
            g = sd.graph_dimension(a1[i], a2[i], int(d1[i]), s[i]).value
            r = sd.range_dimension(a1[i], a2[i], int(d1[i]), s[i]).value
            assert g >= r - 1e-12 and g >= s[i] - 1e-12 and g <= s[i] + 1.0 + 1e-12
        # boundary continuity at s = 1/alpha_1 for d_1 = 1
        for i in range(2 * 10**4):
            b1 = 1.0 + (a1[i] % 1.0)
            b2 = b1 * (0.05 + 0.9 * (a2[i] % 1.0))
            s_star = 1.0 / b1
            slow = s_star * max(b1, 1.0)
            fast = 1.0 + max(b2, 1.0) * (s_star - 1.0 / b1)
            assert abs(slow - fast) < 1e-12
        elapsed = time.perf_counter() - started
        _line(
            1,
            worst < 1e-12 and elapsed < 5.0,
            f"formulas exact to {worst:.1e}; domination/continuity sweep of "
            f"{n_sweep + 2 * 10**4} points in {elapsed:.2f}s (< 5s)",
        )


class TestCriterion2Spectral:
    def test_random_exponent_suite(self):
        from test_spectral import random_valid_exponent

        started = time.perf_counter()
        rng = np.random.default_rng(MASTER_SEED + 2)
        worst_rec = worst_semi = worst_inv = 0.0
        for trial in range(500):
            e = random_valid_exponent(rng, d_max=6)
            spec = sd.validate_exponent(e, 2.0)
            dec = sd.decompose(spec)
            alphas = dec.alphas
            assert all(x > y for x, y in zip(alphas, alphas[1:]))
            assert sum(dec.block_dims) == spec.d
            block = scipy.linalg.block_diag(*[b.matrix for b in dec.blocks])
            recon = dec.change_of_basis @ block @ dec.change_of_basis_inv
            worst_rec = max(worst_rec, float(np.max(np.abs(recon - e))))
            if trial % 5 == 0:
                s_, t_ = rng.uniform(1e-3, 1e3, size=2)
                lhs = sd.scaling_operator(spec, s_) @ sd.scaling_operator(spec, t_)
                rhs = sd.scaling_operator(spec, s_ * t_)
                worst_semi = max(
                    worst_semi,
                    float(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs)))),
                )
                op = sd.scaling_operator(spec, 3.7)
                scale = max(1.0, float(np.max(np.abs(op))))
                for j in range(dec.p):
                    proj = dec.projector(j)
                    leak = (np.eye(spec.d) - proj) @ op @ proj
                    worst_inv = max(worst_inv, float(np.max(np.abs(leak)) / scale))
        elapsed = time.perf_counter() - started
        ok = worst_rec < 1e-10 and worst_semi < 1e-9 and worst_inv < 1e-9 and elapsed < 30.0
        _line(
            2,
            ok,
            f"500 exponents (d <= 6): reconstruction {worst_rec:.1e} (<1e-10), "
            f"semigroup {worst_semi:.1e} (<1e-9), invariance {worst_inv:.1e} "
            f"(<1e-9) in {elapsed:.1f}s (< 30s)",
        )


class TestCriterion3NormGrowth:
    def test_norm_growth_slopes(self):
        started = time.perf_counter()
        grid = np.geomspace(1e-6, 1.0, 40)
        suite = [
            (np.array([[0.5]]), 0.5),
            (np.array([[0.9]]), 0.9),
            (np.array([[1.7]]), 1.7),
            (np.array([[0.75, -1.0], [1.0, 0.75]]), 0.75),
            (np.array([[0.6, -0.5], [0.5, 0.6]]), 0.6),
            (np.array([[1.2, -2.0], [2.0, 1.2]]), 1.2),
            (np.eye(2) * 0.8, 0.8),
            (np.eye(3) * 1.4, 1.4),
        ]
        worst = 0.0
        for block, a in suite:
            fit = sd.norm_growth_fit(block, grid)
            worst = max(worst, abs(fit.slope - a))
        jordan = sd.norm_growth_fit(np.array([[0.5, 1.0], [0.0, 0.5]]), grid)
        elapsed = time.perf_counter() - started
        ok = worst <= 0.02 and 0.4 <= jordan.slope <= 0.52 and elapsed < 5.0
        _line(
            3,
            ok,
            f"diagonalizable slope error {worst:.2e} (<= 0.02); Jordan slope "
            f"{jordan.slope:.3f} in [0.4, 0.52]; {elapsed:.2f}s (< 5s)",
        )


class TestCriterion4BrownianGraph:
    def test_brownian_box_dimension(self, reports):
        report, seconds = reports["brownian-interval"]
        est = report.stages["box_graph"]["estimate"]
        err = abs(est - 1.5)
        ok = err <= 0.08 and seconds < 120.0
        _line(
            4,
            ok,
            f"brownian-interval box median {est:.4f} vs 1.5 (err {err:.4f} <= 0.08), "
            f"scenario ran in {seconds:.0f}s (< 120s)",
        )


class TestCriterion5TwoBlock:
    def test_two_block_box_dimension(self, reports):
        report, seconds = reports["diag-2-05-interval"]
        est = report.stages["box_graph"]["estimate"]
        err = abs(est - 1.5)
        ok = err <= 0.12 and seconds < 300.0
        _line(
            5,
            ok,
            f"diag-2-05 box median {est:.4f} vs 1.5 (err {err:.4f} <= 0.12), "
            f"{seconds:.0f}s (< 300s)",
        )


class TestCriterion6CantorTimeSet:
    def test_cantor_box_dimension(self, reports):
        report, seconds = reports["brownian-cantor"]
        theory = 1.0 + math.log(2) / math.log(3) - 0.5
        est = report.stages["box_graph"]["estimate"]
        err = abs(est - theory)
        ok = err <= 0.12 and seconds < 180.0
        _line(
            6,
            ok,
            f"brownian-cantor box median {est:.4f} vs {theory:.4f} "
            f"(err {err:.4f} <= 0.12), {seconds:.0f}s (< 180s)",
        )


class TestCriterion7Sojourn:
    CASE_SCENARIOS = {
        "i": "isotropic-12-interval",
        "ii": "isotropic-08-interval",
        "iii": "diag-2-1-interval",
        "iv": "diag-2-05-interval",
    }

    def test_all_four_cases(self, reports):
        details = []
        ok = True
        total = 0.0
        for case, name in self.CASE_SCENARIOS.items():
            report, seconds = reports[name]
            total += seconds
            stage = report.stages["sojourn"]
            assert stage["case"] == case
            err = stage["estimate"] - stage["theory"]
            within = abs(err) <= 0.15
            overshoot_ok = err > 0.15 and stage["verdict"] == INCONCLUSIVE
            ok = ok and (within or overshoot_ok)
            details.append(f"case {case}: slope {stage['estimate']:.3f} vs {stage['theory']:.3f}")
        ok = ok and total < 600.0
        _line(7, ok, "; ".join(details) + f"; total {total:.0f}s (< 600s)")


class TestCriterion8Semiselfsimilarity:
    def test_ks_and_negative_control(self):
        started = time.perf_counter()
        spec = sd.validate_exponent(np.array([[1.0]]), 2.0)
        laws = (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),)
        positive = sd.semiselfsimilarity_test(spec, laws, t=0.25, ensemble=10**4, seed=MASTER_SEED)
        negative = sd.semiselfsimilarity_test(
            spec, laws, t=0.25, ensemble=2 * 10**5, seed=MASTER_SEED, perturb_a1=0.1
        )
        elapsed = time.perf_counter() - started
        ok = positive.passed and not negative.passed and elapsed < 60.0
        _line(
            8,
            ok,
            f"KS {positive.statistics[0]:.4f} < {positive.threshold:.4f} passes; "
            f"perturbed operator KS {negative.statistics[0]:.4f} > "
            f"{negative.threshold:.4f} fails; {elapsed:.0f}s (< 60s)",
        )


class TestCriterion9EnergyCoherence:
    def test_energy_below_box_plus_margin(self, reports):
        details = []
        ok = True
        for name, (report, _) in reports.items():
            energy = report.stages["energy"]["estimate"]
            box = report.stages["box_graph"]["estimate"]
            coherent = energy <= box + 0.1
            ok = ok and coherent
            details.append(f"{name}: {energy:.2f} <= {box:.2f}+0.1 {'ok' if coherent else 'VIOLATED'}")
        _line(9, ok, "; ".join(details))


class TestCriterion10CoveringCounts:
    def test_bounded_and_divergent_pair(self):
        started = time.perf_counter()
        spec = sd.validate_exponent(np.array([[0.5]]), 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
        paths = [
            sd.simulate_path(spec, laws, 16, MASTER_SEED, name=f"covering/path/{i}")
            for i in range(8)
        ]
        mesh = range(4, 11)
        sums = {1.8: [], 1.2: []}
        for m in mesh:
            intervals = dyadic_intervals(m)
            for kappa in (1.8, 1.2):
                total = float(
                    np.mean(
                        [
                            covering_count(p, intervals, Schedule.A1, kappa, (2.0,)).weighted_sum
                            for p in paths
                        ]
                    )
                )
                sums[kappa].append(total)
        bounded = np.array(sums[1.8])
        divergent = np.array(sums[1.2])
        slope_b = np.polyfit(list(mesh), np.log2(bounded), 1)[0]
        slope_d = np.polyfit(list(mesh), np.log2(divergent), 1)[0]
        monotone = bool(np.all(np.diff(divergent) > 0))
        growth = divergent[-1] / divergent[0]
        band = bounded.max() / bounded.min()
        elapsed = time.perf_counter() - started
        ok = (
            abs(slope_b) <= 0.15
            and band <= 2.0
            and monotone
            and growth >= 3.0
            and slope_d >= 0.25
            and elapsed < 120.0
        )
        _line(
            10,
            ok,
            f"kappa=1.8 stays in a x{band:.2f} band (log2 slope {slope_b:.3f}); "
            f"kappa=1.2 grows monotonically x{growth:.1f} (slope {slope_d:.3f}); "
            f"{elapsed:.0f}s (< 120s)",
        )


class TestCriterion11Reproducibility:
    def test_byte_reproducibility(self, reports):
        started = time.perf_counter()
        # full scenario reports reproduce byte-identically
        mismatches = []
        for name in ("cauchy-cantor", "isotropic-08-interval"):
            fresh = run_scenario(builtin_scenarios()[name], MASTER_SEED, threads=2)
            a = reports[name][0].as_dict()
            b = fresh.as_dict()
            a.pop("runtime_seconds")
            b.pop("runtime_seconds")
            if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
                mismatches.append(name)
        # path bytes reproduce
        spec = sd.validate_exponent(np.array([[0.5]]), 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
        p1 = sd.simulate_path(spec, laws, 16, MASTER_SEED, name="repro")
        p2 = sd.simulate_path(spec, laws, 16, MASTER_SEED, name="repro")
        if p1.values.tobytes() != p2.values.tobytes():
            mismatches.append("path-bytes")
        # sampler statistics reproduce
        k1 = sd.semiselfsimilarity_test(
            sd.validate_exponent(np.array([[1.0]]), 2.0),
            (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),),
            t=0.25,
            ensemble=10**4,
            seed=MASTER_SEED,
        )
        k2 = sd.semiselfsimilarity_test(
            sd.validate_exponent(np.array([[1.0]]), 2.0),
            (BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),),
            t=0.25,
            ensemble=10**4,
            seed=MASTER_SEED,
        )
        if k1.statistics != k2.statistics:
            mismatches.append("ks-stats")
        elapsed = time.perf_counter() - started
        ok = not mismatches
        _line(
            11,
            ok,
            f"scenario reports, path bytes and KS statistics identical across "
            f"re-runs under master seed {MASTER_SEED} ({elapsed:.0f}s)"
            + (f"; mismatches: {mismatches}" if mismatches else ""),
        )


# The first 16 hex digits of the SHA-256 of each builtin's report at
# MASTER_SEED, less its runtime_seconds, as JSON with indent=2 and sorted
# keys.  A change to an RNG stream or to an estimator's bits moves them, and
# records the new table here.
REPORT_DIGESTS = {
    "brownian-interval": "a212447c141a2f92",
    "brownian-cantor": "40117ffa6c5795c7",
    "cauchy-cantor": "43998932e0b83f23",
    "diag-2-05-interval": "f43afc19e16dbf13",
    "diag-2-1-interval": "3e8b24fc5e049d66",
    "isotropic-12-interval": "6fa5a4d3019d7645",
    "isotropic-08-interval": "7209d24c733dcf31",
    "stpetersburg-interval": "0b1fe0eff2c9972f",
}


def test_builtin_reports_keep_their_bits(reports):
    got = {}
    for name, (report, _) in reports.items():
        out = report.as_dict()
        out.pop("runtime_seconds")
        got[name] = hashlib.sha256(json.dumps(out, indent=2, sort_keys=True).encode()).hexdigest()[:16]
    assert got == REPORT_DIGESTS
