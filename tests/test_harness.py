import json

import numpy as np
import pytest

from semidim import builtin_scenarios, get_scenario, run_scenario, sweep
from semidim.borel import cantor, interval
from semidim.errors import InvalidInputs
from semidim.harness import FAIL, INCONCLUSIVE, PASS, Scenario, SweepCell, verdict
from semidim.laws import BlockLaw, LawKind


def mini_scenario(**overrides) -> Scenario:
    base = dict(
        name="mini",
        matrix=((0.5,),),
        c=2.0,
        laws=(BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),),
        borel=interval(0.0, 1.0),
        n=14,
        n_seeds=3,
        box_sides=tuple(np.round(2.0 ** (-np.arange(1, 11, dtype=float)), 12)),
        box_tol=0.15,
        sojourn_n=12,
        sojourn_ensemble=200,
        sojourn_radii=tuple(2.0 ** (-np.arange(2, 6, dtype=float))),
        sojourn_tol=0.2,
        energy_gammas=tuple(np.round(np.arange(1.0, 1.85, 0.05), 10)),
        energy_subsample=1000,
        energy_ratio=8,
        expected={"graph_dim": 1.5, "sojourn_case": "iv"},
    )
    base.update(overrides)
    return Scenario(**base)


class TestVerdictRule:
    def test_pass_within_tolerance(self):
        assert verdict(1.45, 1.5, 0.08, 0.01) == PASS

    def test_fail_needs_confidence(self):
        assert verdict(1.2, 1.5, 0.08, 0.01) == FAIL
        # large error but noisy estimator: inconclusive
        assert verdict(1.2, 1.5, 0.08, 0.1) == INCONCLUSIVE

    def test_between_tol_and_2tol(self):
        assert verdict(1.38, 1.5, 0.08, 0.001) == INCONCLUSIVE

    def test_overshoot_rule(self):
        assert verdict(1.9, 1.5, 0.15, 0.001, overshoot_inconclusive=True) == INCONCLUSIVE
        assert verdict(1.9, 1.5, 0.15, 0.001) == FAIL


class TestScenario:
    def test_stale_fixture_guard(self):
        sc = mini_scenario(expected={"graph_dim": 1.4})
        with pytest.raises(InvalidInputs):
            sc.validate_expected()
        sc = mini_scenario(expected={"sojourn_case": "ii"})
        with pytest.raises(InvalidInputs):
            sc.validate_expected()

    def test_json_round_trip(self):
        sc = get_scenario("brownian-cantor")
        again = Scenario.from_json(json.dumps(sc.as_dict()))
        assert again == sc

    @pytest.mark.parametrize(
        "change",
        [
            {"n": None},
            {"n": 16.5},
            {"cover_levle": 8},
            {"laws": [{"kind": "STABLE_SYMMETRIC", "alpha": "2"}]},
        ],
    )
    def test_malformed_json_rejected(self, change):
        obj = mini_scenario().as_dict() | change
        with pytest.raises(InvalidInputs):
            Scenario.from_json(json.dumps(obj))

    def test_builtin_cover_all_sojourn_cases(self):
        cases = {sc.theory()["sojourn_case"] for sc in builtin_scenarios().values()}
        assert {"i", "ii", "iii", "iv"} <= cases

    def test_builtin_cover_both_graph_branches(self):
        multi = [
            sc.theory()
            for sc in builtin_scenarios().values()
            if np.asarray(sc.matrix).shape[0] >= 2
        ]
        branches = {t["graph_branch"] for t in multi}
        assert branches == {"SLOW", "FAST"}

    def test_builtin_expected_values_validate(self):
        for sc in builtin_scenarios().values():
            sc.validate_expected()

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_n_seeds_below_one_rejected(self, n_seeds):
        with pytest.raises(InvalidInputs):
            mini_scenario(n_seeds=n_seeds)


class TestRunScenario:
    def test_mini_run_deterministic(self):
        sc = mini_scenario()
        rep1 = run_scenario(sc, 5)
        rep2 = run_scenario(sc, 5)
        d1, d2 = rep1.as_dict(), rep2.as_dict()
        d1.pop("runtime_seconds")
        d2.pop("runtime_seconds")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
        assert rep1.verdict in (PASS, INCONCLUSIVE, FAIL)
        assert set(rep1.stages) == {"box_graph", "box_range", "sojourn", "energy"}
        for stage in rep1.stages.values():
            assert "verdict" in stage

    def test_threads_do_not_change_results(self):
        sc = mini_scenario()
        rep1 = run_scenario(sc, 5, threads=1)
        rep2 = run_scenario(sc, 5, threads=3)
        assert rep1.stages["box_graph"]["per_seed"] == rep2.stages["box_graph"]["per_seed"]

    def test_one_decomposition_per_run(self, monkeypatch):
        from semidim import spectral

        calls = []
        original = spectral.decompose

        def counted(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(spectral, "decompose", counted)
        run_scenario(mini_scenario(n_seeds=2), 5)
        assert len(calls) == 1

    def test_report_text(self):
        sc = mini_scenario()
        rep = run_scenario(sc, 5)
        text = rep.to_text()
        assert "mini" in text and "box_graph" in text


class TestSweep:
    def test_empty(self):
        assert sweep([], 1) == []

    def test_rows(self):
        cells = [SweepCell(alpha=2.0, borel=interval(0, 1), n=14, n_seeds=3)]
        rows = sweep(cells, 1)
        assert len(rows) == 1
        assert rows[0]["theory"] == pytest.approx(1.5)
        assert abs(rows[0]["estimate"] - 1.5) < 0.2

    def test_budget_cap(self):
        from semidim.errors import BudgetExceeded

        cells = [SweepCell(alpha=2.0, borel=interval(0, 1), n=14, n_seeds=3)]
        with pytest.raises(BudgetExceeded):
            sweep(cells, 1, budget_seconds=0.0)
