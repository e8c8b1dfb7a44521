import functools
import json
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from semidim import builtin_scenarios, get_scenario, harness, run_scenario, sweep
from semidim.borel import BorelSetSpec, cantor, interval, union
from semidim.errors import BudgetExceeded, InvalidInputs, TruncationTooCoarse
from semidim.estimators import box_count_graph, count_occupied_cubes, dyadic_scales
from semidim.harness import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SWEEP_SIDES,
    Scenario,
    SweepConfig,
    _judged,
    _median_stage,
    _sojourn_stage,
    verdict,
)
from semidim.laws import CHUNK, BlockLaw, LawKind
from semidim.paths import LevyPath, simulate_path
from semidim.spectral import validate_exponent


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


    def test_every_verdict_but_pass_names_its_rule(self):
        assert _judged(1.45, 1.5, 0.08, 0.01) == {"verdict": PASS}
        over = _judged(1.9, 1.5, 0.15, 0.001, overshoot_inconclusive=True)
        assert over["verdict"] == INCONCLUSIVE and over["reason"].startswith("overshoot:")
        assert "0.4000 > tol = 0.1500" in over["reason"]
        confident = _judged(1.9, 1.5, 0.15, 0.001)
        assert confident["verdict"] == FAIL and confident["reason"].startswith("confident miss:")
        assert "0.4000 > 2*tol = 0.3000" in confident["reason"] and "stderr 0.0010 < tol/2 = 0.0750" in confident["reason"]
        noisy = _judged(1.2, 1.5, 0.08, 0.1)
        assert noisy["verdict"] == INCONCLUSIVE and noisy["reason"].startswith("miss without confidence:")
        assert "stderr 0.1000 >= tol/2 = 0.0400" in noisy["reason"]
        near = _judged(1.38, 1.5, 0.08, 0.001)
        assert near["verdict"] == INCONCLUSIVE and "between tol = 0.0800 and 2*tol = 0.1600" in near["reason"]
        for args in [(1.45, 1.5, 0.08, 0.01), (1.9, 1.5, 0.15, 0.001), (1.2, 1.5, 0.08, 0.1), (1.38, 1.5, 0.08, 0.001)]:
            assert verdict(*args) == _judged(*args)["verdict"]

    @pytest.mark.parametrize(
        "estimate, failed",
        [(1.5, []), (1.75, ["coherent_with_box"]), (1.2, ["lower_bound_ok"])],
    )
    def test_energy_fail_names_the_failed_check(self, estimate, failed):
        energy = types.SimpleNamespace(estimate=estimate)
        stage = harness._energy_stage(energy, box_estimate=1.6, graph_dim=1.5)
        assert stage["verdict"] == (FAIL if failed else PASS)
        assert [check for check in ("coherent_with_box", "lower_bound_ok") if not stage[check]] == failed
        if failed:
            assert stage["reason"].startswith(f"{failed[0]}: estimate {estimate:.4f}")
        else:
            assert "reason" not in stage

    def test_energy_fail_names_both_failed_checks(self):
        stage = harness._energy_stage(types.SimpleNamespace(estimate=1.0), box_estimate=0.8, graph_dim=1.5)
        assert stage["reason"] == (
            "coherent_with_box: estimate 1.0000 > box estimate + 0.1 = 0.9000; "
            "lower_bound_ok: estimate 1.0000 < theory - 0.25 = 1.2500"
        )

    def test_non_finite_estimate_is_inconclusive_with_a_reason(self):
        stage = _median_stage([1.5, float("nan"), 1.5], 1.5, 0.08)
        assert stage["verdict"] == INCONCLUSIVE and stage["reason"] == "non-finite estimate"
        assert "reason" not in _median_stage([1.5, 1.4, 1.5], 1.5, 0.08)

    @pytest.mark.parametrize("estimate", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_energy_is_inconclusive_with_a_reason(self, estimate):
        # as every other stage: no finite estimate, no scientific FAIL
        stage = harness._energy_stage(types.SimpleNamespace(estimate=estimate), box_estimate=1.6, graph_dim=1.5)
        assert stage["verdict"] == INCONCLUSIVE and stage["reason"] == "non-finite estimate"


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

    @pytest.mark.parametrize("change", [{"sojourn_n": 24}, {"n": 24}])
    def test_semistable_truncation_checked_at_load(self, change):
        # k_min = -25 holds down to steps of 2^-23, not at 2^-24 or 2^-25
        obj = get_scenario("stpetersburg-interval").as_dict()
        Scenario.from_dict(obj | {"sojourn_n": 22, "n": 23})
        with pytest.raises(TruncationTooCoarse):
            Scenario.from_dict(obj | change)

    @pytest.mark.parametrize("n_seeds", [0, -1, 1])
    def test_n_seeds_below_one_rejected(self, n_seeds):
        with pytest.raises(InvalidInputs):
            mini_scenario(n_seeds=n_seeds)

    @pytest.mark.parametrize(
        "borel",
        [interval(0.5, 0.5), interval(0.0, 0.0), union(interval(0.2, 0.2), interval(0.7, 0.7))],
        ids=["point", "origin", "union-of-points"],
    )
    def test_time_set_of_dimension_zero_rejected(self, borel):
        # the spec stays valid, so that its dimension can be computed; a
        # scenario or a sweep on it is refused before any mask or path
        assert borel.hausdorff_dim == 0.0
        with pytest.raises(InvalidInputs, match="Hausdorff dimension 0"):
            mini_scenario(borel=borel, expected={})
        with pytest.raises(InvalidInputs, match="Hausdorff dimension 0"):
            SweepConfig(alphas=(2.0,), time_sets=(None, borel))
        # a union with one member of positive dimension is a time set
        mini_scenario(borel=union(borel, interval(0.25, 0.75)), expected={})


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

    def test_workers_paths_beyond_memory_rejected_before_any_draw(self, monkeypatch):
        # physical memory for one path of mini_scenario and its buffers, not
        # for the two that threads=2 holds at once; no pool is started
        from semidim import estimators, paths

        def refused(*args, **kwargs):
            raise RuntimeError("drawn")

        for module, fn in [(harness, "simulate_path"), (paths, "sample_marginal"), (estimators, "sample_marginal")]:
            monkeypatch.setattr(module, fn, refused)
        sc = mini_scenario()
        one = 8 * ((2**sc.n + 1) * 5 + 8 * CHUNK)
        memory = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 3 * one // 2}
        monkeypatch.setattr(paths.os, "sysconf", memory.__getitem__)
        with pytest.raises(BudgetExceeded, match="2 workers"):
            run_scenario(sc, 5, threads=2)
        with pytest.raises(RuntimeError, match="drawn"):
            run_scenario(sc, 5, threads=1)

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

    def test_one_mask_per_grid(self, monkeypatch):
        # brownian-cantor on a 2^18 grid: one mask, the box stage's, shared
        # by every path and target, which tests only the grid rows at the
        # ends of its 2^8 pieces, t = 0 and t = 1; the energy stage's
        # thinning level is tested once on the times path 0 holds; each pass
        # runs a chunk of CHUNK // 4 times a call
        from semidim import harness

        obj = builtin_scenarios()["brownian-cantor"].as_dict()
        obj.update(n=18, n_seeds=3, sojourn_n=10, sojourn_radii=[2.0**-k for k in range(2, 6)], energy_ratio=2)
        sc = Scenario.from_dict(obj | {"sojourn_ensemble": 200})
        kept = int(sc.borel.mask(18, 8).sum())
        calls, held = [], []
        original = BorelSetSpec.contains

        def counted(self, t, n, level=None):
            calls.append((t.size, n, level))
            return original(self, t, n, level)

        def simulated(*args, **kwargs):
            path = simulate_path(*args, **kwargs)
            held.append(path.times.size)
            return path

        monkeypatch.setattr(BorelSetSpec, "contains", counted)
        monkeypatch.setattr(harness, "simulate_path", simulated)
        run_scenario(sc, 5, threads=2)
        box = [size for size, n, level in calls if (n, level) == (18, 8)]
        energy = [size for size, n, level in calls if (n, level) == (18, 11)]
        assert calls == [(size, 18, 8) for size in box] + [(size, 18, 11) for size in energy]
        assert sum(box) == 2 and sum(energy) == kept
        assert max(box + energy) <= CHUNK // 4
        # the box paths hold just the rows of the box stage's mask
        assert held == [kept] * sc.n_seeds

    def test_paths_only_for_the_box_stage(self, monkeypatch):
        from semidim import estimators, harness, paths

        assert not hasattr(estimators, "simulate_path")
        calls = []
        original = paths.simulate_path

        def counted(*args, **kwargs):
            calls.append(kwargs.get("name"))
            return original(*args, **kwargs)

        monkeypatch.setattr(paths, "simulate_path", counted)
        monkeypatch.setattr(harness, "simulate_path", counted)
        sc = mini_scenario()
        run_scenario(sc, 5)
        assert calls == [f"scenario/mini/path/{i}" for i in range(sc.n_seeds)]

    def test_paths_on_the_shallower_energy_cover(self, monkeypatch):
        # the energy stage thins this Cantor set at level 6, shallower than
        # the box stage's cover at level 7: the paths hold the level-6 rows,
        # and each box count reads the level-7 rows among them
        sc = mini_scenario(borel=cantor(4, 0.2), n=17, cover_level=7, energy_ratio=2, expected={})
        held, box = sc.borel.mask(17, 6), sc.borel.mask(17, 7)
        assert np.all(held[box]) and box.sum() < held.sum()
        counted = []

        def checked(path, mask, sides, _buffers=None):
            est = box_count_graph(path, mask, sides, _buffers=_buffers)
            assert np.array_equal(mask, box)
            assert np.array_equal(path.rows, np.flatnonzero(held))
            kept = mask[path.rows]
            points = np.column_stack([path.times[kept], path.values[kept]])
            assert np.array_equal(est.counts, count_occupied_cubes(points, est.sides))
            assert np.array_equal(est.range.counts, count_occupied_cubes(points[:, 1:], est.sides))
            counted.append(int(kept.sum()))
            return est

        monkeypatch.setattr(harness, "box_count_graph", checked)
        run_scenario(sc, 5)
        assert counted == [int(box.sum())] * sc.n_seeds

    def test_kept_rows_formed_once_a_call(self, monkeypatch):
        # every box path of a restricted run reads one set of kept rows and
        # steps, and draws the bytes of a path given the mask alone
        sc = mini_scenario(borel=cantor(4, 0.2), n=17, cover_level=7, energy_ratio=2, expected={})
        held, kept = sc.borel.mask(17, 6), []

        def simulated(*args, _kept=None, **kwargs):
            path = simulate_path(*args, _kept=_kept, **kwargs)
            fresh = simulate_path(*args, mask=kwargs["mask"], name=kwargs["name"])
            assert path.values.tobytes() == fresh.values.tobytes() and np.array_equal(path.rows, fresh.rows)
            kept.append(_kept)
            return path

        monkeypatch.setattr(harness, "simulate_path", simulated)
        run_scenario(sc, 5)
        assert len(kept) == sc.n_seeds and all(k is kept[0] for k in kept)
        rows, steps = kept[0]
        assert np.array_equal(rows, np.flatnonzero(held))
        assert np.array_equal(steps, np.diff(rows) * 2.0**-17)

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(borel=cantor(4, 0.2), n=17, cover_level=7, energy_ratio=2, expected={})],
        ids=["whole-grid", "restricted"],
    )
    def test_a_run_forms_its_times_from_row_indices(self, monkeypatch, overrides):
        # no stage reads a path's times column: the box kernel, the energy
        # candidates and the energy subsample form their times from the row
        # indices a chunk at a time, and give the same report
        def unread(path):
            raise AssertionError("a stage read LevyPath.times")

        sc = mini_scenario(**overrides)
        want = run_scenario(sc, 5)
        monkeypatch.setattr(LevyPath, "times", property(unread))
        got = run_scenario(sc, 5)
        assert got.stages == want.stages and got.verdict == want.verdict

    def test_per_seed_follows_the_seed_names(self):
        sc = mini_scenario(n_seeds=2)
        report = run_scenario(sc, 5)
        spec = validate_exponent(np.array([[0.5]]), 2.0)
        mask = interval().mask(14)
        paths = [simulate_path(spec, sc.laws, 14, 5, name=f"scenario/mini/path/{i}", mask=mask) for i in range(2)]
        ests = [box_count_graph(p, mask, sc.box_sides) for p in paths]
        assert report.stages["box_graph"]["per_seed"] == [e.estimate for e in ests]
        assert report.stages["box_range"]["per_seed"] == [e.range.estimate for e in ests]

    def test_report_text(self):
        sc = mini_scenario()
        rep = run_scenario(sc, 5)
        text = rep.to_text()
        assert "mini" in text and "box_graph" in text
        # a stage's reason, here for a non-finite estimate, is printed with it
        stages = rep.stages | {"sojourn": rep.stages["sojourn"] | {"estimate": float("nan")} | _judged(float("nan"), 1.5, 0.2, 0.0)}
        text = replace(rep, stages=stages).to_text()
        assert "sojourn      estimate=nan theory=1.5000 -> INCONCLUSIVE" in text
        assert "non-finite estimate" in text


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_sojourn_stage_passes_at_seeds_1_to_32(name):
    sc = builtin_scenarios()[name]
    verdicts = {seed: _sojourn_stage(sc, seed)["verdict"] for seed in range(1, 33)}
    assert {seed: v for seed, v in verdicts.items() if v != PASS} == {}


class TestSweep:
    def test_empty(self):
        assert sweep(SweepConfig(alphas=()), 1) == []

    def test_rows(self):
        rows = sweep(SweepConfig(alphas=(2.0,), n=14, n_seeds=3), 1)
        assert len(rows) == 1
        assert rows[0]["theory"] == pytest.approx(1.5)
        assert abs(rows[0]["estimate"] - 1.5) < 0.2

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            sweep(SweepConfig(alphas=(2.0,), n=14, n_seeds=3, budget_seconds=0.0), 1)

    def test_rows_follow_the_seed_names(self):
        cfg = SweepConfig(alphas=(1.2345678, 2.0), time_sets=(None, "cantor"), n=12, n_seeds=2)
        expected = []
        for alpha in cfg.alphas:
            spec = validate_exponent(np.array([[1.0 / alpha]]), 2.0)
            laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=alpha),)
            for borel in (interval(0.0, 1.0), cantor(2, 1 / 3)):
                s = borel.hausdorff_dim
                mask = borel.mask(12)
                ests = [
                    box_count_graph(
                        simulate_path(spec, laws, 12, 9, name=f"sweep/alpha={alpha:.6g}/s={s:.6g}/path/{i}", mask=mask),
                        mask,
                        dyadic_scales(1, 10),
                    ).estimate
                    for i in range(2)
                ]
                expected.append((alpha, s, float(np.median(ests))))
        rows = sweep(cfg, 9)
        assert [(r["alpha"], r["time_set_dim"], r["estimate"]) for r in rows] == expected

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_n_seeds_below_one_rejected(self, n_seeds):
        with pytest.raises(InvalidInputs):
            SweepConfig(alphas=(2.0,), n_seeds=n_seeds)

    def test_worker_buffers_give_the_fresh_paths(self, monkeypatch):
        # each worker draws its paths on one set of buffers, reused from path
        # to path; with more workers than cores and a short switch interval
        # the paths and box counts still equal fresh ones, and sweep's rows
        # do not depend on the worker count
        spec = validate_exponent(np.array([[1 / 1.2]]), 2.0)
        laws = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=1.2),)
        mask = cantor(2, 1 / 3).mask(12)
        fresh = [simulate_path(spec, laws, 12, 9, name=f"reuse/path/{i}", mask=mask) for i in range(6)]
        want = [(p.values.tobytes(), box_count_graph(p, mask, SWEEP_SIDES).counts.tolist()) for p in fresh]

        def measure(i, path, buffers):
            return path.values.tobytes(), box_count_graph(path, mask, SWEEP_SIDES, _buffers=buffers).counts.tolist()

        cfg = SweepConfig(alphas=(1.2, 2.0), time_sets=(None, "cantor"), n=12, n_seeds=3)
        rows = sweep(cfg, 9)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 3):
                assert harness._over_paths(spec, laws, 12, mask, 9, "reuse", 6, measure, threads) == want
            monkeypatch.setattr(harness, "_over_paths", functools.partial(harness._over_paths, threads=3))
            assert sweep(cfg, 9) == rows
        finally:
            sys.setswitchinterval(switch)
