import contextlib
import copy
import hashlib
import importlib.metadata
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semidim as sd
from semidim import cli
from semidim.cli import main
from semidim.errors import InvalidInputs
from semidim.io import fmt_float, read_path_dump, write_csv, write_path_dump
from semidim.laws import BlockLaw, LawKind

BROWNIAN = sd.validate_exponent(np.array([[0.5]]), 2.0)
BM_LAWS = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)
CANTOR = {"kind": "SELF_SIMILAR_CANTOR", "m": 2, "r": 1.0 / 3.0}


class TestIO:
    def test_path_dump_round_trip(self, tmp_path):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 8, seed=4)
        prefix = tmp_path / "dump"
        bin_path = write_path_dump(prefix, p, config={"n": 8}, csv=True)
        raw = np.fromfile(bin_path, dtype="<f8").reshape(-1, 2)
        assert np.array_equal(raw[:, 0], p.times)
        assert np.array_equal(raw[:, 1], p.values[:, 0])
        again = read_path_dump(prefix)
        assert np.array_equal(again.values, p.values)
        assert again.laws == p.laws
        meta = json.loads(prefix.with_suffix(".json").read_text())
        assert {"seed", "n", "version", "created_utc", "laws"} <= set(meta)
        assert (tmp_path / "dump.csv").exists()

    def test_sidecar_records_its_environment(self, tmp_path):
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 6, seed=2)
        prefix = tmp_path / "dump"
        write_path_dump(prefix, p)
        meta = json.loads(prefix.with_suffix(".json").read_text())
        assert meta["numpy"] == np.__version__
        assert meta["scipy"] == importlib.metadata.version("scipy")
        assert meta["cpu_count"] == os.cpu_count()
        assert np.array_equal(read_path_dump(prefix).values, p.values)

    def test_path_on_a_time_set_not_dumped(self, tmp_path):
        # its rows are not the grid that read_path_dump requires
        p = sd.simulate_path(BROWNIAN, BM_LAWS, 8, seed=4, mask=sd.cantor().mask(8))
        with pytest.raises(InvalidInputs):
            write_path_dump(tmp_path / "dump", p)
        assert not list(tmp_path.iterdir())

    def test_csv_floats_round_trip(self, tmp_path):
        values = [0.1, 1.0 / 3.0, np.pi, 2.0**-52]
        out = tmp_path / "x.csv"
        write_csv(out, ["v"], [[v] for v in values])
        lines = out.read_text().strip().splitlines()[1:]
        assert [float(s) for s in lines] == values
        assert fmt_float(0.1) == "0.10000000000000001"

    def test_csv_string_cells_pass_through(self, tmp_path):
        out = tmp_path / "x.csv"
        write_csv(out, ["branch", "n"], [["SLOW", 16]])
        assert out.read_text() == "branch,n\nSLOW,16\n"
        write_csv(out, [], [])
        assert out.read_text() == "\n"


def run_cli(*argv) -> int:
    return main(list(argv))


class Drawn(BaseException):
    """Raised in place of the first path: not an Exception, so that
    ``cli.main`` cannot turn it into exit 4."""


# every malformed value a numeric field is tried at
BAD_VALUES = {
    "inf": math.inf, "-inf": -math.inf, "nan": math.nan, "0": 0, "-1": -1, "1e308": 1e308,
    "1e30": 10**30, "null": None, "string": "x", "empty-list": [],
}
# the values of a (document, field) that pass the preflight and may reach the
# first path: finite values in range, however large, and each field's default
MAY_RUN = {
    **{("mini", field): {"1e308", "1e30"} for field in ("c", "box_tol", "sojourn_tol", "box_sides.0", "energy_gammas.0")},
    ("mini", "energy_ratio"): {"1e30"},
    ("mini", "cover_level"): {"1e30", "null"},
    ("mini", "laws.0.scale"): {"1e30"},
    ("mini", "borel.a"): {"0"},
    ("sweep", "cover_level"): {"1e30", "null"},
    ("sweep", "budget_seconds"): {"inf", "0", "1e308", "1e30", "null"},
}
# every numeric field, keys and list indices joined by dots
NUMERIC_FIELDS = [
    *(("mini", field) for field in (
        "c", "n", "n_seeds", "box_tol", "sojourn_n", "sojourn_ensemble", "sojourn_tol", "energy_subsample",
        "energy_ratio", "cover_level", "matrix.0.0", "box_sides.0", "sojourn_radii.0", "energy_gammas.0",
        "laws.0.alpha", "laws.0.scale", "borel.a", "borel.b",
    )),
    ("semistable", "laws.0.c"), ("semistable", "laws.0.k_min"), ("cantor", "borel.m"), ("cantor", "borel.r"),
    *(("sweep", field) for field in ("alphas.0", "n", "n_seeds", "cover_level", "budget_seconds")),
]


def preflight_documents() -> dict:
    """The scenarios and the sweep config whose fields the table sets; no
    stored expectation, so that the preflight alone refuses a case."""
    from test_harness import mini_scenario

    mini = mini_scenario(expected={}).as_dict()
    semistable = BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0)
    return {
        "mini": mini,
        "semistable": mini_scenario(matrix=((1.0,),), laws=(semistable,), expected={}).as_dict(),
        "cantor": mini | {"borel": CANTOR},
        "sweep": {"alphas": [2.0]},
    }


def with_field(document: dict, field: str, value) -> dict:
    """A copy of ``document`` with ``field`` set to ``value``."""
    changed = copy.deepcopy(document)
    *parents, key = (int(part) if part.isdigit() else part for part in field.split("."))
    place = changed
    for part in parents:
        place = place[part]
    place[key] = value
    return changed


def exit_or_path(monkeypatch, *argv):
    """The CLI's exit code on ``argv``, or "path" where it reached the first path."""
    from semidim import harness

    def drawn(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(harness, "simulate_path", drawn)
    try:
        return run_cli(*argv)
    except Drawn:
        return "path"


class TestCLI:
    def test_decompose(self, tmp_path, capsys):
        exp = tmp_path / "e.json"
        exp.write_text(json.dumps({"c": 2.0, "matrix": [[0.5, 0.0], [0.0, 1.0]]}))
        assert run_cli("decompose", "--exponent", str(exp)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == 2
        assert [b["alpha"] for b in out["blocks"]] == [2.0, 1.0]

    def test_decompose_rejects_bad_constant(self, tmp_path, capsys):
        exp = tmp_path / "bad.json"
        exp.write_text(json.dumps({"c": 1.0, "matrix": [[0.5]]}))
        assert run_cli("decompose", "--exponent", str(exp)) == 2
        assert "ScalingConstantOutOfRange" in capsys.readouterr().err

    def test_decompose_rotation(self, tmp_path, capsys):
        exp = tmp_path / "rot.json"
        exp.write_text(json.dumps({"c": 3.0, "matrix": [[0.75, -1.0], [1.0, 0.75]]}))
        assert run_cli("decompose", "--exponent", str(exp)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p"] == 1
        assert out["blocks"][0]["alpha"] == pytest.approx(4.0 / 3.0)

    def test_dim_flags(self, capsys):
        assert run_cli("dim", "--alpha1", "2", "--alpha2", "1", "--d1", "1", "--s", "1") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["graph"] == pytest.approx(1.5)
        assert out["branch"] == "FAST"
        # one-dimensional: a single index and d1 = 1
        assert run_cli("dim", "--alpha1", "1.5", "--s", "0.5") == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"graph": 0.75, "range": 0.75, "branch": "SLOW", "alphas": [1.5]}

    def test_dim_inline_time_set_too_long_for_a_file_name(self, capsys):
        borel = sd.union(*(sd.interval(0.1 * k, 0.1 * k + 0.05) for k in range(5))).to_json()
        assert len(borel.encode()) > 255
        assert run_cli("dim", "--alpha1", "2", "--s", "1", "--borel", borel) == 0
        assert json.loads(capsys.readouterr().out)["graph"] == pytest.approx(1.5)

    def test_simulate_deterministic_sha(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert (
                run_cli("simulate", "--n", "10", "--seed", "1", "--out", str(tmp_path / sub)) == 0
            )
        capsys.readouterr()
        digests = [
            hashlib.sha256((tmp_path / sub / "path-n10-seed1.bin").read_bytes()).hexdigest()
            for sub in ("a", "b")
        ]
        assert digests[0] == digests[1]

    def test_simulate_huge_grid_preflight(self, tmp_path, capsys):
        # 2^40 grid points need terabytes: refused with exit 2 before any
        # array is allocated (numpy reports its buffers to tracemalloc)
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--n", "40", "--seed", "1", "--out", str(tmp_path / "o"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "BudgetExceeded" in capsys.readouterr().err
        assert peak < 2**20
        assert not (tmp_path / "o").exists()

    def test_estimate_pipeline(self, tmp_path, capsys):
        assert run_cli("simulate", "--n", "16", "--seed", "2", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        code = run_cli(
            "estimate",
            "--path",
            str(tmp_path / "path-n16-seed2"),
            "--out",
            str(tmp_path / "est"),
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert 1.2 < out["estimate"] < 1.7
        csv_lines = (tmp_path / "est" / "boxcount.csv").read_text().splitlines()
        assert csv_lines[0].startswith("scale,statistic")

    def test_simulate_then_estimate_with_defaults(self, tmp_path, capsys):
        # the default grid resolves the default finest side 2^-11
        assert run_cli("simulate", "--out", str(tmp_path)) == 0
        prefix = str(tmp_path / "path-n13-seed0")
        assert run_cli("estimate", "--path", prefix, "--out", str(tmp_path / "est")) == 0
        capsys.readouterr()
        assert run_cli("estimate", "--path", prefix, "--n-scales", "10", "--out", str(tmp_path / "e10")) == 2
        assert "InvalidInputs: --n-scales must be >= 11" in capsys.readouterr().err
        assert not (tmp_path / "e10").exists()

    @pytest.mark.parametrize("n_scales", ["12", str(10**18)])
    def test_n_scales_beyond_the_grid_rejected_before_the_sides(self, tmp_path, capsys, n_scales):
        # 10^18 sides would not fit in memory: the depth is checked first
        assert run_cli("simulate", "--out", str(tmp_path)) == 0
        prefix = str(tmp_path / "path-n13-seed0")
        assert run_cli("estimate", "--path", prefix, "--n-scales", n_scales, "--out", str(tmp_path / "est")) == 2
        assert "ResolutionTooCoarse" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["nan", "inf", "-inf", "0", "-0.25"])
    def test_bad_box_side_rejected(self, tmp_path, capsys, side):
        from test_harness import mini_scenario

        sides = [2.0**-k for k in range(2, 11)] + [float(side)]
        # json writes and reads NaN and Infinity
        text = json.dumps(mini_scenario().as_dict() | {"box_sides": sides})
        with pytest.raises(InvalidInputs, match=f"got {float(side):g}$"):
            sd.Scenario.from_json(text)
        assert run_cli("simulate", "--out", str(tmp_path)) == 0
        scales = ",".join(map(str, sides))
        argv = ("estimate", "--path", str(tmp_path / "path-n13-seed0"), "--scales", scales, "--out", str(tmp_path / "est"))
        assert run_cli(*argv) == 2
        assert f"InvalidInputs: box sides must be finite and > 0, got {float(side):g}" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_estimate_rejects_an_off_grid_dump(self, tmp_path, capsys):
        assert run_cli("simulate", "--n", "12", "--seed", "2", "--out", str(tmp_path)) == 0
        prefix = tmp_path / "path-n12-seed2"
        sidecar = prefix.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        estimate = ("estimate", "--path", str(prefix), "--borel", "cantor", "--out", str(tmp_path / "est"))
        for edit in ({"n": 14}, {"rows": str(meta["rows"])}):
            sidecar.write_text(json.dumps(meta | edit))
            assert run_cli(*estimate) == 2
        sidecar.write_text(json.dumps(meta))
        data = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8").reshape(-1, 2)
        data[1, 0] = 0.5 * data[1, 0]
        data.tofile(prefix.with_suffix(".bin"))
        assert run_cli(*estimate) == 2
        assert capsys.readouterr().err.count("InvalidInputs") == 3
        # a copied value column, or the time column alone, disagrees with the
        # 1x1 exponent, though the sidecar counts the columns of the .bin; the
        # whole dump at n = 14 would be estimated
        assert run_cli("simulate", "--n", "14", "--seed", "2", "--out", str(tmp_path)) == 0
        prefix = tmp_path / "path-n14-seed2"
        meta = json.loads(prefix.with_suffix(".json").read_text())
        data = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8").reshape(-1, 2)
        for columns in (data[:, [0, 1, 1]], data[:, :1]):
            np.ascontiguousarray(columns).tofile(prefix.with_suffix(".bin"))
            prefix.with_suffix(".json").write_text(json.dumps(meta | {"columns": columns.shape[1]}))
            assert run_cli("estimate", "--path", str(prefix), "--out", str(tmp_path / "est")) == 2
            err = capsys.readouterr().err
            assert f"InvalidInputs: path dump has {columns.shape[1]} columns, not the 2 of a path in d=1" in err

    @pytest.mark.parametrize("level, error", [("-1", "InvalidInputs"), ("1000000000", "ResolutionTooCoarse")])
    def test_estimate_cover_level_exit_code(self, tmp_path, capsys, level, error):
        assert run_cli("simulate", "--n", "12", "--seed", "2", "--out", str(tmp_path)) == 0
        code = run_cli(
            "estimate", "--path", str(tmp_path / "path-n12-seed2"), "--borel", "cantor",
            "--cover-level", level, "--out", str(tmp_path / "est"),
        )
        assert code == 2
        assert error in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_sojourn(self, tmp_path, capsys):
        code = run_cli(
            "sojourn",
            "--ensemble",
            "200",
            "--n",
            "12",
            "--radii",
            "0.25,0.125,0.0625,0.03125",
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "iv"
        assert (tmp_path / "sojourn_graph.csv").exists()

    def test_verify_mini_scenario(self, tmp_path, capsys):
        from test_harness import mini_scenario

        sc_file = tmp_path / "mini.json"
        sc_file.write_text(json.dumps(mini_scenario().as_dict()))
        code = run_cli("verify", "--scenario", str(sc_file), "--seed", "5", "--out", str(tmp_path))
        out = capsys.readouterr().out
        assert code in (0, 3)
        assert "mini" in out
        report = json.loads((tmp_path / "report-mini.json").read_text())
        assert report["scenario"] == "mini"

    def test_sweep_empty(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [], "time_sets": [None]}))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 0
        assert (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "config",
        [{"alphas": [2.0], "n": None}, {"alphas": ["2"]}, {"alphas": [2.0], "n_seed": 2}],
    )
    def test_malformed_sweep_config_exit_code(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "InvalidInputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        # a NaN budget would never trip, and a negative one trips only after the first path
        [
            {"alphas": [0.0]}, {"alphas": [2.5]}, {"alphas": [-1.0]}, {"n_seeds": 0}, {"budget_seconds": math.nan}, {"budget_seconds": -1.0},
            {"time_sets": [None, {"kind": "INTERVAL", "a": 0.5, "b": 0.5}]},
        ],
    )
    def test_sweep_config_out_of_range(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "InvalidInputs" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_seeds_beyond_memory_rejected_before_any_path(self, tmp_path, capsys, monkeypatch):
        from semidim import harness

        def refused(*args, **kwargs):
            raise RuntimeError("a path was drawn before the sweep was refused")

        monkeypatch.setattr(harness, "simulate_path", refused)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [2.0], "n_seeds": 10**30}))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "BudgetExceeded" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_verify_zero_seeds_exit_code(self, tmp_path, capsys):
        from test_harness import mini_scenario

        sc_file = tmp_path / "zero.json"
        sc_file.write_text(json.dumps(mini_scenario().as_dict() | {"n_seeds": 0}))
        assert run_cli("verify", "--scenario", str(sc_file), "--out", str(tmp_path)) == 2
        assert "InvalidInputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"sojourn_ensemble": 100}, "EnsembleTooSmall"),
            ({"sojourn_radii": [1e-4, 0.25]}, "RadiiOutOfRange"),
            ({"energy_subsample": 999}, "DegenerateSample"),
            ({"box_sides": [2.0**-k for k in range(1, 10)]}, "ValueError"),
            ({"n": 11}, "ResolutionTooCoarse"),
            ({"n": -2000}, "ResolutionTooCoarse"),
            ({"borel": CANTOR, "cover_level": -1}, "InvalidInputs"),
            ({"borel": CANTOR, "cover_level": 10**9}, "ResolutionTooCoarse"),
            ({"sojourn_n": -3000}, "RadiiOutOfRange"),
            ({"n": 40}, "BudgetExceeded"),
            ({"sojourn_radii": [0.25]}, "RadiiOutOfRange"),
            ({"sojourn_radii": [0.25, 0.25]}, "RadiiOutOfRange"),
            ({"sojourn_ensemble": 10**15}, "BudgetExceeded"),
            ({"energy_gammas": []}, "InvalidInputs"),
            ({"energy_gammas": [float("nan")]}, "InvalidInputs"),
            ({"energy_gammas": [-5.0]}, "InvalidInputs"),
            ({"energy_ratio": 1}, "InvalidInputs"),
            ({"energy_ratio": 0}, "InvalidInputs"),
            ({"energy_ratio": -3}, "InvalidInputs"),
            ({"energy_subsample": 10**7}, "DegenerateSample"),
            # an infinite tolerance would PASS every stage
            *(({key: tol}, "InvalidInputs") for key in ("box_tol", "sojourn_tol") for tol in (math.inf, math.nan, 0.0, -1.0)),
            # a NaN would match any theory
            ({"expected": {"graph_dim": math.nan}}, "InvalidInputs"),
            ({"expected": {"graph_dim": None}}, "InvalidInputs"),
            ({"n_seeds": 10**30}, "BudgetExceeded"),
            # a time set of Hausdorff dimension 0 has no graph dimension to estimate
            ({"borel": {"kind": "INTERVAL", "a": 0.5, "b": 0.5}}, "Hausdorff dimension 0"),
            # 17 grid rows, fewer than the energy stage's two blocks of 1000
            ({"borel": {"kind": "INTERVAL", "a": 0.5, "b": 0.5 + 2.0**-10}}, "DegenerateSample"),
            # 1024 * 4 energy points thin to level-12 pieces, 3^-12 < 2^-18
            (
                {"borel": CANTOR, "n": 18, "energy_subsample": 1024, "energy_ratio": 4, "expected": {"graph_dim": 0.5 + math.log(2) / math.log(3)}},
                "grid too coarse to thin 4096 samples to level-12 pieces",
            ),
        ],
    )
    def test_bad_scenario_rejected_before_any_path(self, tmp_path, capsys, monkeypatch, change, error):
        from semidim import estimators, harness, paths
        from test_harness import mini_scenario

        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(kwargs.get("name"))
                # stop at the first draw, so that a run of 10^30 paths ends
                raise RuntimeError(f"{original.__name__} called before the scenario was refused")

            return wrapper

        # no path is simulated and no marginal drawn
        for module, fn in [
            (paths, "simulate_path"),
            (harness, "simulate_path"),
            (paths, "sample_marginal"),
            (estimators, "sample_marginal"),
        ]:
            monkeypatch.setattr(module, fn, counted(getattr(module, fn)))
        sc_file = tmp_path / "bad.json"
        sc_file.write_text(json.dumps(mini_scenario().as_dict() | change))
        assert run_cli("verify", "--scenario", str(sc_file), "--out", str(tmp_path)) == 2
        assert error in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.glob("report-*"))

    @pytest.mark.parametrize("document, field", [pytest.param(*case, id=":".join(case)) for case in NUMERIC_FIELDS])
    def test_every_numeric_field_is_refused_or_reaches_the_first_path(self, tmp_path, capsys, monkeypatch, document, field):
        # each malformed value exits 2 with no path drawn, or is a listed
        # case that passes the preflight; none exits 4
        argv = ("sweep", "--config") if document == "sweep" else ("verify", "--scenario")
        doc = tmp_path / "doc.json"
        got = {}
        for name, value in BAD_VALUES.items():
            doc.write_text(json.dumps(with_field(preflight_documents()[document], field, value)))
            got[name] = exit_or_path(monkeypatch, *argv, str(doc), "--out", str(tmp_path))
        assert all(code in (2, "path") for code in got.values()), got
        assert {name for name, code in got.items() if code == "path"} <= MAY_RUN.get((document, field), set())
        assert not list(tmp_path.glob("report-*")) and not (tmp_path / "sweep.csv").exists()

    def test_sojourn_depth_beyond_float_range_exit_code(self, tmp_path, capsys):
        # 2^(n/2) overflows float64 at n = -3000
        assert run_cli("sojourn", "--n", "-3000", "--out", str(tmp_path)) == 2
        assert "RadiiOutOfRange" in capsys.readouterr().err

    def test_sojourn_ensemble_beyond_memory_exit_code(self, tmp_path, capsys):
        assert run_cli("sojourn", "--ensemble", "1000000000000000", "--out", str(tmp_path)) == 2
        assert "BudgetExceeded" in capsys.readouterr().err
        assert not tmp_path.joinpath("sojourn_graph.csv").exists()

    def test_semistable_truncation_beyond_float_range_exit_code(self, tmp_path, capsys):
        # q^k_min overflows float64 at k_min = 10^6; the guard works in log space
        exp, laws = tmp_path / "exponent.json", tmp_path / "laws.json"
        exp.write_text(json.dumps({"c": 2.0, "matrix": [[1.0]]}))
        laws.write_text(json.dumps([{"kind": "SEMISTABLE_DISCRETE", "alpha": 1.0, "c": 2.0, "k_min": 1000000}]))
        argv = ("simulate", "--exponent", str(exp), "--laws", str(laws), "--n", "4", "--out", str(tmp_path))
        assert run_cli(*argv) == 2
        assert "TruncationTooCoarse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "law",
        [
            {"kind": "STABLE_SYMMETRIC", "alpha": 1.0, "scale": float("nan")},
            {"kind": "STABLE_SYMMETRIC", "alpha": 1.0, "scale": float("inf")},
            {"kind": "SEMISTABLE_DISCRETE", "alpha": 1.0, "c": float("nan")},
            {"kind": "SEMISTABLE_DISCRETE", "alpha": 1.0, "c": float("inf")},
        ],
    )
    def test_non_finite_law_rejected_before_the_path(self, tmp_path, capsys, monkeypatch, law):
        calls = []
        monkeypatch.setattr(cli, "simulate_path", lambda *args, **kwargs: calls.append(args))
        exp, laws = tmp_path / "exponent.json", tmp_path / "laws.json"
        exp.write_text(json.dumps({"c": 2.0, "matrix": [[1.0]]}))
        laws.write_text(json.dumps([law]))  # written as NaN / Infinity, which json reads back
        argv = ("simulate", "--exponent", str(exp), "--laws", str(laws), "--n", "4", "--out", str(tmp_path))
        assert run_cli(*argv) == 2
        assert "ValueError" in capsys.readouterr().err
        assert calls == []

    def test_semistable_poisson_limit_rejected_before_the_path(self, tmp_path, capsys, monkeypatch):
        # k_min = -64 makes the atom k_min fire 2^63 times on average at t = 1,
        # past numpy's Poisson limit
        calls = []
        monkeypatch.setattr(cli, "simulate_path", lambda *args, **kwargs: calls.append(args))
        exp, laws = tmp_path / "exponent.json", tmp_path / "laws.json"
        exp.write_text(json.dumps({"c": 2.0, "matrix": [[1.0]]}))
        laws.write_text(json.dumps([{"kind": "SEMISTABLE_DISCRETE", "alpha": 1.0, "c": 2.0, "k_min": -64}]))
        argv = ("simulate", "--exponent", str(exp), "--laws", str(laws), "--n", "4", "--out", str(tmp_path))
        assert run_cli(*argv) == 2
        assert "BudgetExceeded" in capsys.readouterr().err
        assert calls == []

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def broken(args):
            raise TypeError("unexpected")

        monkeypatch.setattr(cli, "cmd_dim", broken)
        assert run_cli("dim", "--alpha1", "2", "--s", "1") == 4
        err = capsys.readouterr().err
        assert "TypeError: unexpected" in err
        assert "Traceback" in err

    def test_dim_without_inputs_exit_code(self, capsys):
        assert run_cli("dim", "--alpha1", "2") == 2
        assert "InvalidInputs" in capsys.readouterr().err

    def test_sweep_time_set_forms(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        spec = {"kind": "INTERVAL", "a": 0.0, "b": 0.5}
        cfg.write_text(json.dumps({"alphas": [2], "time_sets": [spec, "cantor", None], "n": 12, "n_seeds": 1}))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [1.0, np.log(2) / np.log(3), 1.0]

    @pytest.mark.parametrize("threads", ["0", "-1", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, monkeypatch, threads):
        # checked before any path, so that no pool is started to test a count
        code = exit_or_path(monkeypatch, "verify", "--scenario", "brownian-interval", "--threads", threads, "--out", str(tmp_path))
        assert code == 2
        assert "InvalidInputs" in capsys.readouterr().err

    def test_unknown_scenario_exit_code(self, capsys):
        assert run_cli("verify", "--scenario", "nope") == 2

    def test_scenario_name_too_long_for_a_file_is_unknown(self, capsys):
        assert run_cli("verify", "--scenario", "x" * 300) == 2
        err = capsys.readouterr().err
        assert f"unknown scenario '{'x' * 300}'; builtin: ['brownian-cantor'," in err

    def test_malformed_scenario_exit_code(self, tmp_path, capsys):
        from test_harness import mini_scenario

        sc_file = tmp_path / "bad.json"
        sc_file.write_text(json.dumps(mini_scenario().as_dict() | {"n": None}))
        assert run_cli("verify", "--scenario", str(sc_file), "--out", str(tmp_path)) == 2
        assert "InvalidInputs" in capsys.readouterr().err

    def test_malformed_exponent_exit_code(self, tmp_path, capsys):
        exp = tmp_path / "bad.json"
        exp.write_text(json.dumps({"c": None, "matrix": [[0.5]]}))
        assert run_cli("decompose", "--exponent", str(exp)) == 2
        assert "InvalidInputs" in capsys.readouterr().err

    def test_options_only_where_read(self):
        with pytest.raises(SystemExit):
            run_cli("decompose", "--exponent", "e.json", "--seed", "1")
        with pytest.raises(SystemExit):
            run_cli("estimate", "--path", "p", "--threads", "2")


def mostly(valid, hostile):
    """``valid`` three draws in four, ``hostile`` in the fourth, so that many
    configs get as far as simulating and counting paths."""
    return st.one_of(valid, valid, valid, hostile)


FUZZ_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e-300, 5e-324]), st.floats()
)
UNIT = mostly(st.floats(0.0, 1.0), FUZZ_FLOATS)
# Cantor piece counts up to and past the 2^53 that a set accepts, with
# ratios that keep m * r <= 1
HOSTILE_CANTOR = st.sampled_from(
    [(10**12, 1e-13), (10**12, 1e-12), (2**53, 2.0**-53), (2**53 + 1, 1e-17), (2**63, 1e-19), (10**30, 1e-31)]
).map(lambda mr: {"kind": "SELF_SIMILAR_CANTOR", "m": mr[0], "r": mr[1]})
FUZZ_MEMBER = st.one_of(
    st.fixed_dictionaries({"kind": st.just("INTERVAL"), "a": UNIT}),
    st.fixed_dictionaries({"kind": st.just("SELF_SIMILAR_CANTOR")}, optional={"m": st.integers(-1, 5), "r": UNIT}),
    HOSTILE_CANTOR,
)
FUZZ_BOREL = st.one_of(
    st.fixed_dictionaries(
        {"kind": mostly(st.sampled_from(["INTERVAL", "SELF_SIMILAR_CANTOR", "FINITE_UNION"]), st.text(max_size=4))},
        optional={
            "a": UNIT,
            "b": UNIT,
            "m": st.integers(-1, 5),
            "r": UNIT,
            "members": st.lists(FUZZ_MEMBER, max_size=6),
        },
    ),
    HOSTILE_CANTOR,
)
# five members written out take more than the 255 bytes of a file name
LONG_UNION = json.dumps(
    {"kind": "FINITE_UNION", "members": [{"kind": "INTERVAL", "a": k / 10, "b": k / 10 + 0.05} for k in range(5)]}
)
FUZZ_TIME_SET = mostly(
    st.one_of(
        st.none(),
        st.just("cantor"),
        FUZZ_BOREL,
        st.builds(json.dumps, FUZZ_BOREL),
        st.just(LONG_UNION),
        # written to a file, which the config names
        st.tuples(st.just("file"), st.one_of(st.builds(json.dumps, FUZZ_BOREL), st.just(LONG_UNION))),
    ),
    st.text(max_size=6),
)
FUZZ_SWEEP = st.fixed_dictionaries(
    {
        "alphas": st.lists(mostly(st.floats(0.0, 2.0, exclude_min=True), FUZZ_FLOATS), max_size=3),
        "time_sets": st.lists(FUZZ_TIME_SET, max_size=3),
        "n": mostly(st.just(12), st.integers(-1, 12)),
        "n_seeds": mostly(st.integers(1, 2), st.integers(-1, 2)),
    },
    optional={
        "cover_level": st.one_of(st.none(), st.integers(-2, 14)),
        "budget_seconds": st.one_of(st.none(), st.floats(0.0, 1.0)),
    },
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=FUZZ_SWEEP)
def test_sweep_config_exits_0_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        time_sets = []
        for k, b in enumerate(config["time_sets"]):
            if isinstance(b, tuple):
                (Path(tmp) / f"set{k}.json").write_text(b[1])
                b = str(Path(tmp) / f"set{k}.json")
            time_sets.append(b)
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config | {"time_sets": time_sets}))
        assert main(["sweep", "--config", str(cfg), "--out", tmp]) in (0, 2)


EXTREME_FLOATS = st.one_of(
    FUZZ_FLOATS, st.sampled_from([1e300, -1e300, 2.0, 2.0 + 2**-51, 1e-12, 0.0, -1.0])
)
NEAR_ONE = st.sampled_from([1.0 + 2**-52, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.0, 1.0 - 2**-53])
EXTREME_INTS = st.one_of(
    st.integers(-(10**13), 10**7), st.sampled_from([-(10**400), 10**400, 2**63, -(2**63), 10**6])
)
FUZZ_MATRIX = st.one_of(
    st.lists(st.lists(EXTREME_FLOATS, max_size=3), max_size=3),  # ragged or empty
    st.lists(EXTREME_FLOATS, max_size=3),  # one-dimensional
    st.lists(st.lists(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2), min_size=1, max_size=2)),  # 3-d
    st.just("[[0.5]]"),  # a string
)


@st.composite
def exponent_and_laws(draw):
    """An exponent and its block laws with extreme alpha, scale, c and k_min,
    coherent otherwise (so that many get as far as simulating a path), and in
    one draw of four with one more hostile change to the JSON."""
    alpha = draw(mostly(st.floats(0.05, 2.0), EXTREME_FLOATS))
    c = draw(mostly(st.floats(1.01, 8.0), st.one_of(NEAR_ONE, EXTREME_FLOATS, EXTREME_INTS)))
    kind = draw(st.sampled_from(["STABLE_SYMMETRIC", "STABLE_ISOTROPIC_2D", "SEMISTABLE_DISCRETE"]))
    law = {
        "kind": kind,
        "alpha": alpha,
        "scale": draw(mostly(st.floats(0.1, 10.0), EXTREME_FLOATS)),
        "c": c,
        "k_min": draw(mostly(st.integers(-40, -10), EXTREME_INTS)),
    }
    a = 1.0 / alpha if alpha else 0.0
    if kind == "STABLE_ISOTROPIC_2D":
        matrix, laws = [[a, -1.0], [1.0, a]], [law]
    elif draw(st.booleans()):
        matrix, laws = [[a, 0.0], [0.0, 0.5]], [{"kind": "STABLE_SYMMETRIC", "alpha": 2.0}, law]
    else:
        matrix, laws = [[a]], [law]
    exponent = {"c": c, "matrix": matrix}
    change = draw(mostly(st.none(), st.integers(0, 5)))
    if change == 0:
        exponent["matrix"] = draw(FUZZ_MATRIX)
    elif change == 1:
        del exponent[draw(st.sampled_from(["c", "matrix"]))]
    elif change == 2:
        exponent = [c]
    elif change == 3:
        law["kind"] = draw(st.text(max_size=4))
    elif change == 4:
        law["unknown"] = 1
    elif change == 5:
        laws = draw(st.sampled_from([[], laws + laws, law, [None]]))
    return exponent, laws


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inputs=exponent_and_laws(), n=mostly(st.integers(0, 8), st.integers(-2, 8)))
@example(  # a plain determinant overflows at this magnitude
    inputs=(
        {"c": 2.0, "matrix": [[1e300, 0.0], [0.0, 0.5]]},
        [{"kind": "STABLE_SYMMETRIC", "alpha": 2.0}, {"kind": "STABLE_SYMMETRIC", "alpha": 1e-300}],
    ),
    n=4,
)
def test_exponent_and_laws_exit_0_or_2(inputs, n):
    """Hostile exponent and block-law JSON: ``simulate`` and ``decompose``
    exit 0 or 2 and never raise."""
    exponent, laws = inputs
    with tempfile.TemporaryDirectory() as tmp:
        exponent_file, laws_file = Path(tmp) / "exponent.json", Path(tmp) / "laws.json"
        exponent_file.write_text(json.dumps(exponent))
        laws_file.write_text(json.dumps(laws))
        argv = ["simulate", "--exponent", str(exponent_file), "--laws", str(laws_file), "--n", str(n), "--out", tmp]
        assert main(argv) in (0, 2)
        assert main(["decompose", "--exponent", str(exponent_file)]) in (0, 2)


HOSTILE_INT = st.one_of(st.integers(), st.sampled_from([-(10**400), 10**400, 2**63, -1, 0]))
FUZZ_SCENARIO = st.fixed_dictionaries(
    {},
    optional={
        "n": mostly(st.integers(10, 20), HOSTILE_INT),
        "n_seeds": HOSTILE_INT,
        "box_sides": st.lists(st.one_of(FUZZ_FLOATS, HOSTILE_INT), max_size=14),
        "cover_level": st.one_of(st.none(), HOSTILE_INT),
        "sojourn_n": mostly(st.integers(8, 16), HOSTILE_INT),
        "sojourn_ensemble": HOSTILE_INT,
        "sojourn_radii": st.lists(st.one_of(FUZZ_FLOATS, HOSTILE_INT), max_size=8),
        "energy_subsample": HOSTILE_INT,
        "energy_gammas": st.lists(FUZZ_FLOATS, max_size=6),
        "energy_ratio": HOSTILE_INT,
    },
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(sd.builtin_scenarios())), changes=FUZZ_SCENARIO)
def test_scenario_load_raises_only_input_errors(name, changes):
    """Loading a builtin's JSON with hostile estimator inputs returns a
    scenario or raises an input error, which the CLI maps to exit 2."""
    text = json.dumps(sd.builtin_scenarios()[name].as_dict() | changes)
    try:
        sd.Scenario.from_json(text)
    except (sd.SemidimError, ValueError):
        pass


# Hostile option values: free text, numbers at and past the float and int
# ranges, separators alone, a NUL byte, names too long for a file, JSON
# fragments, and every fixture file below by its token.
ARGV_FILES = {
    "@exponent": json.dumps({"c": 2.0, "matrix": [[0.5]]}),
    "@exponent_iso": json.dumps({"c": 2.0, "matrix": [[1 / 1.2, -1.0], [1.0, 1 / 1.2]]}),
    "@laws": json.dumps([{"kind": "STABLE_SYMMETRIC", "alpha": 2.0}]),
    "@laws_iso": json.dumps([{"kind": "STABLE_ISOTROPIC_2D", "alpha": 1.2}]),
    "@borel": json.dumps({"kind": "INTERVAL", "a": 0.0, "b": 0.5}),
    "@sweep": json.dumps({"alphas": [2.0], "n": 12, "n_seeds": 1}),
    "@not_json": "{not json",
    "@list": "[1, 2]",
}
ARGV_TOKENS = [*ARGV_FILES, "@scenario", "@dump", "@dir", "@missing"]
HOSTILE_ARG = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ["", " ", ",", ",,", "nan", "inf", "-inf", "-1", "0", "1e400", "5e-324", "0x10", "1_0", "\x00",
         "[]", "{}", "null", "[0.5]", "cantor", "x" * 300, "é" * 150, "-h", "--seed"]
    ),
    st.sampled_from(ARGV_TOKENS),
)
EDGE_INTS = st.sampled_from(["-1", "0", "-3000", str(-(2**63)), str(2**63), str(10**18), str(10**30)])
EDGE_FLOATS = st.sampled_from(["-0.0", "-1.5", "2.5", "1e308", "1e-300", "5e-324", "nan", "inf", "-inf"])


def int_arg(lo, hi):
    """(valid, hostile) strategies of an integer option."""
    return st.integers(lo, hi).map(str), st.one_of(EDGE_INTS, st.integers().map(str), HOSTILE_ARG)


def float_arg(lo, hi):
    return st.floats(lo, hi).map(repr), st.one_of(EDGE_FLOATS, HOSTILE_ARG)


def sides_arg(lo, hi, size):
    """Comma-separated sides 2^-k, k in [lo, hi]; or hostile lists."""
    valid = st.lists(st.integers(lo, hi).map(lambda k: repr(2.0**-k)), min_size=size, max_size=size + 2)
    hostile = st.lists(st.one_of(EDGE_FLOATS, st.floats().map(repr), HOSTILE_ARG), max_size=size + 2)
    return valid.map(",".join), st.one_of(hostile.map(",".join), HOSTILE_ARG)


def file_arg(*valid):
    return st.sampled_from(valid), HOSTILE_ARG


SEED_ARG = int_arg(0, 2**32)
# Options of each subcommand as (valid, hostile) values.  The depths and
# sizes that are valid stay small; the hostile ones must be rejected before
# anything of their size is built.
ARGV_OPTIONS = {
    "decompose": {"--exponent": file_arg("@exponent", "@exponent_iso")},
    "dim": {
        "--alpha1": float_arg(0.1, 2.0),
        "--alpha2": float_arg(0.1, 2.0),
        "--d1": int_arg(1, 2),
        "--s": float_arg(0.0, 1.0),
        "--exponent": file_arg("@exponent", "@exponent_iso"),
        "--borel": file_arg("@borel", "cantor"),
    },
    "simulate": {
        "--exponent": file_arg("@exponent", "@exponent_iso"),
        "--laws": file_arg("@laws", "@laws_iso"),
        "--n": int_arg(0, 10),
        "--csv": (st.none(), st.none()),
        "--seed": SEED_ARG,
    },
    "estimate": {
        "--path": file_arg("@dump"),
        "--borel": file_arg("@borel", "cantor"),
        "--scales": sides_arg(1, 11, 10),
        "--n-scales": int_arg(11, 11),
        "--cover-level": int_arg(1, 8),
    },
    "sojourn": {
        "--exponent": file_arg("@exponent", "@exponent_iso"),
        "--laws": file_arg("@laws", "@laws_iso"),
        "--radii": sides_arg(1, 4, 2),
        "--horizon": float_arg(0.1, 1.0),
        "--ensemble": int_arg(200, 300),
        "--n": int_arg(8, 10),
        "--seed": SEED_ARG,
    },
    "verify": {"--scenario": file_arg("@scenario"), "--seed": SEED_ARG, "--threads": int_arg(1, 3)},
    "sweep": {"--config": (st.just("@sweep"), HOSTILE_ARG.filter(bool)), "--seed": SEED_ARG},
}
# the options argparse requires, left out one draw in four; and sweep's
# config, always named, as without one the default sweep runs for a second
REQUIRED = {"decompose": "--exponent", "estimate": "--path", "verify": "--scenario"}
# output directories: a new one, an existing one, a file, a name too long, a NUL byte
OUT_ARG = st.sampled_from(["out", ".", "@exponent", "x" * 300, "a\x00b"])


@st.composite
def argv(draw, command):
    """An argv of ``command``: its required option mostly, a random subset of
    the others, one of them (or the output directory) hostile and the rest
    valid."""
    options = ARGV_OPTIONS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    if command in REQUIRED and REQUIRED[command] not in chosen and draw(mostly(st.just(True), st.just(False))):
        chosen.append(REQUIRED[command])
    if command == "sweep" and "--config" not in chosen:
        chosen.append("--config")
    writes = command not in ("decompose", "dim")
    targets = chosen + ["--out"] * writes
    attacked = draw(st.sampled_from(targets)) if targets else None
    args = [command]
    for name in chosen:
        value = draw(options[name][name == attacked])
        args += [name] if value is None else [name, value]
    if writes:
        args += ["--out", draw(OUT_ARG) if attacked == "--out" else "out"]
    return args


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    from test_harness import mini_scenario

    root = tmp_path_factory.mktemp("argv")
    for token, text in ARGV_FILES.items():
        (root / token[1:]).write_text(text)
    sc = mini_scenario(n=12, n_seeds=2, sojourn_n=10, energy_ratio=2)  # verified in 0.1 s
    (root / "scenario").write_text(sc.to_json())
    assert main(["simulate", "--n", "13", "--out", str(root)]) == 0
    (root / "dir").mkdir()
    return root


def resolve(arg: str, root: Path) -> str:
    """A token's file under ``root``; any other argument as it is."""
    if arg.startswith("@"):
        return str(root / {"@dump": "path-n13-seed0", "@missing": "missing.json"}.get(arg, arg[1:]))
    return arg


@pytest.mark.parametrize("command", sorted(ARGV_OPTIONS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_argv_exits_0_to_3_and_never_raises(argv_dir, command, data):
    """Any argv through ``main``: an exit code of 0 to 3 with no traceback,
    1 and 3 only for a verdict.  argparse rejects a malformed command line by
    SystemExit (2, or 0 for -h), as a process would exit; nothing else may
    escape ``main``."""
    args = [resolve(a, argv_dir) for a in data.draw(argv(command))]
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = args[at] if args[at].startswith(str(argv_dir)) else f"{argv_dir}/out/{args[at]}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (args, err.getvalue())
    assert code in (0, 2) or args[0] == "verify"
    assert "Traceback" not in err.getvalue()
