import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import semidim as sd
from semidim.cli import main
from semidim.io import fmt_float, read_path_dump, write_csv, write_path_dump
from semidim.laws import BlockLaw, LawKind

BROWNIAN = sd.validate_exponent(np.array([[0.5]]), 2.0)
BM_LAWS = (BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=2.0),)


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

    def test_sweep_time_set_forms(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        spec = {"kind": "INTERVAL", "a": 0.0, "b": 0.5}
        cfg.write_text(json.dumps({"alphas": [2], "time_sets": [spec, "cantor", None], "n": 12, "n_seeds": 1}))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == [1.0, np.log(2) / np.log(3), 1.0]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        code = run_cli("verify", "--scenario", "brownian-interval", "--threads", threads, "--out", str(tmp_path))
        assert code == 2
        assert "InvalidInputs" in capsys.readouterr().err

    def test_unknown_scenario_exit_code(self, capsys):
        assert run_cli("verify", "--scenario", "nope") == 2

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
