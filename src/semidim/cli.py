"""Command-line surface.

Subcommands: decompose, dim, simulate, estimate, sojourn, verify, sweep.
Exit codes: 0 success / PASS, 1 FAIL, 2 validation or input error,
3 INCONCLUSIVE (verify), 4 internal error (any other exception).  All
randomness flows from --seed through named derivation paths; every
artifact gets a JSON sidecar.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .borel import BorelSetSpec, cantor, interval
from .codec import Record
from .dimension import dimensions_from_spectrum
from .errors import InvalidInputs, SemidimError
from .estimators import box_count_graph, dyadic_scales, sojourn_mc
from .harness import FAIL, INCONCLUSIVE, PASS, Scenario, SweepCell, get_scenario, run_scenario, sweep
from .io import read_path_dump, write_csv, write_loglog_csv, write_path_dump, write_sidecar
from .laws import BlockLaw
from .paths import simulate_path
from .spectral import ExponentSpec

_BROWNIAN_EXPONENT = {"c": 2.0, "matrix": [[0.5]]}


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "fn"}
_BROWNIAN_LAWS = [{"kind": "STABLE_SYMMETRIC", "alpha": 2.0}]


def _load_exponent(arg: str | None) -> ExponentSpec:
    return ExponentSpec.from_dict(json.loads(Path(arg).read_text()) if arg else _BROWNIAN_EXPONENT)


def _load_laws(arg: str | None) -> tuple[BlockLaw, ...]:
    objs = json.loads(Path(arg).read_text()) if arg else _BROWNIAN_LAWS
    return tuple(BlockLaw.from_dict(o) for o in objs)


def _load_borel(arg: str | None) -> BorelSetSpec:
    if arg is None:
        return interval(0.0, 1.0)
    if arg == "cantor":
        return cantor(2, 1.0 / 3.0)
    if Path(arg).exists():
        return BorelSetSpec.from_json(Path(arg).read_text())
    return BorelSetSpec.from_dict(json.loads(arg))


def _scenario_from_arg(arg: str) -> Scenario:
    if Path(arg).exists():
        return Scenario.from_json(Path(arg).read_text())
    return get_scenario(arg)


def cmd_decompose(args) -> int:
    spec = _load_exponent(args.exponent)
    print(spec.decomposition.to_json())
    return 0


def cmd_dim(args) -> int:
    if args.exponent:
        dec = _load_exponent(args.exponent).decomposition
        s = _load_borel(args.borel).hausdorff_dim if (args.borel or args.s is None) else args.s
        alphas, block_dims = list(dec.alphas), dec.block_dims
    else:
        if args.alpha1 is None or args.s is None:
            raise InvalidInputs("dim needs either --exponent or --alpha1/--s")
        alphas = [args.alpha1] + ([args.alpha2] if args.alpha2 is not None else [])
        s, block_dims = args.s, [args.d1, 1][: len(alphas)]
    dims = dimensions_from_spectrum(alphas, block_dims, s)
    out = {
        "graph": dims["graph"].value,
        "range": dims["range"].value,
        "branch": dims["graph"].branch.value,
        "alphas": alphas,
    }
    print(json.dumps(out))
    return 0


def cmd_simulate(args) -> int:
    spec = _load_exponent(args.exponent)
    laws = _load_laws(args.laws)
    path = simulate_path(spec, laws, args.n, args.seed, name="cli/simulate")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = out_dir / f"path-n{args.n}-seed{args.seed}"
    write_path_dump(prefix, path, config=_config(args) | {"command": "simulate"}, csv=args.csv)
    print(str(prefix.with_suffix(".bin")))
    return 0


def cmd_estimate(args) -> int:
    path = read_path_dump(Path(args.path))
    borel = _load_borel(args.borel)
    sides = (
        np.asarray([float(x) for x in args.scales.split(",")])
        if args.scales
        else dyadic_scales(2, max(11, args.n_scales))
    )
    est = box_count_graph(path, borel, sides, cover_level=args.cover_level)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_loglog_csv(out_dir / "boxcount.csv", est.sides, est.counts)
    summary = est.as_dict() | {"time_set": borel.as_dict()}
    write_sidecar(out_dir / "boxcount.summary.json", summary | {"config": _config(args)})
    print(json.dumps({"estimate": est.estimate, "slope": est.fit.slope}))
    return 0


def cmd_sojourn(args) -> int:
    spec = _load_exponent(args.exponent)
    laws = _load_laws(args.laws)
    radii = (
        np.asarray([float(x) for x in args.radii.split(",")])
        if args.radii
        else 2.0 ** (-np.arange(2, 8, dtype=float))
    )
    graph_est, range_est = sojourn_mc(
        spec, laws, radii, args.horizon, args.ensemble, args.seed, args.n, name="cli/sojourn"
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_loglog_csv(out_dir / "sojourn_graph.csv", graph_est.radii, graph_est.means, graph_est.stderrs)
    write_loglog_csv(out_dir / "sojourn_range.csv", range_est.radii, range_est.means, range_est.stderrs)
    summary = {
        "graph": graph_est.as_dict(),
        "range": range_est.as_dict(),
        "config": _config(args) | {"command": "sojourn"},
    }
    write_sidecar(out_dir / "sojourn.summary.json", summary)
    slope, theory = graph_est.fit.slope, graph_est.theory_exponent
    print(
        json.dumps(
            {"case": graph_est.case, "slope": slope, "theory": theory, "error": slope - theory}
        )
    )
    return 0


def cmd_verify(args) -> int:
    sc = _scenario_from_arg(args.scenario)
    report = run_scenario(sc, args.seed, threads=args.threads)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"report-{sc.name}.json").write_text(report.to_json())
    print(report.to_text())
    return {PASS: 0, FAIL: 1, INCONCLUSIVE: 3}[report.verdict]


@dataclass(frozen=True)
class SweepConfig(Record):
    """The ``sweep --config`` JSON; a time set is a spec, a ``--borel`` string or null."""

    alphas: tuple[float, ...] = (1.2, 1.5, 1.8, 2.0)
    time_sets: tuple[str | BorelSetSpec | None, ...] = (None,)
    n: int = 16
    n_seeds: int = 8
    cover_level: int | None = None
    budget_seconds: float | None = None

    def __post_init__(self):
        bad = [a for a in self.alphas if not 0.0 < a <= 2.0]
        if bad:
            raise InvalidInputs(f"sweep alphas must lie in (0, 2], got {bad}")
        if self.n_seeds < 1:
            raise InvalidInputs(f"sweep n_seeds must be >= 1, got {self.n_seeds}")


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(Path(args.config).read_text()) if args.config else SweepConfig()
    sets = [b if isinstance(b, BorelSetSpec) else _load_borel(b) for b in cfg.time_sets]
    cells = [
        SweepCell(alpha=a, borel=b, n=cfg.n, n_seeds=cfg.n_seeds, cover_level=cfg.cover_level)
        for a in cfg.alphas
        for b in sets
    ]
    rows = sweep(cells, args.seed, budget_seconds=cfg.budget_seconds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = list(rows[0]) if rows else []
    write_csv(out_dir / "sweep.csv", header, [[row[k] for k in header] for row in rows])
    write_sidecar(out_dir / "sweep.summary.json", {"rows": len(rows), "config": _config(args)})
    print(f"{len(rows)} sweep cells -> {out_dir / 'sweep.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="semidim", description=__doc__)
    p.add_argument("--version", action="version", version=f"semidim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "seed": dict(type=int, default=0, help="64-bit master seed"),
        "out": dict(default="out", help="output directory"),
        "threads": dict(type=int, default=1, help="worker cap (results are thread-count independent)"),
    }

    def common(sp, *names):
        for name in names:
            sp.add_argument(f"--{name}", **shared[name])

    sp = sub.add_parser("decompose", help="spectral decomposition of an exponent JSON")
    sp.add_argument("--exponent", required=True, help='JSON file {"c": ..., "matrix": [[...]]}')
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("dim", help="closed-form graph/range dimensions")
    sp.add_argument("--alpha1", type=float)
    sp.add_argument("--alpha2", type=float)
    sp.add_argument("--d1", type=int, default=1)
    sp.add_argument("--s", type=float, help="Hausdorff dimension of the time set")
    sp.add_argument("--exponent", help="exponent JSON file (alternative to --alpha1)")
    sp.add_argument("--borel", help="time-set JSON file, inline JSON, or 'cantor'")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("simulate", help="simulate a path and dump it")
    sp.add_argument("--exponent", help="exponent JSON file (default Brownian d=1)")
    sp.add_argument("--laws", help="JSON file with one block law per block")
    sp.add_argument("--n", type=int, default=12, help="dyadic grid depth")
    sp.add_argument("--csv", action="store_true", help="also write CSV (small n)")
    common(sp, "seed", "out")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("estimate", help="box-count dimension of a dumped path")
    sp.add_argument("--path", required=True, help="path dump prefix (no extension)")
    sp.add_argument("--borel", help="time-set JSON / 'cantor' (default [0,1])")
    sp.add_argument("--scales", help="comma-separated cube sides")
    sp.add_argument("--n-scales", type=int, default=11, help="finest dyadic scale 2^-k")
    sp.add_argument("--cover-level", type=int)
    common(sp, "out")
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("sojourn", help="Monte Carlo sojourn-time scaling")
    sp.add_argument("--exponent", help="exponent JSON file (default Brownian d=1)")
    sp.add_argument("--laws", help="JSON file with block laws")
    sp.add_argument("--radii", help="comma-separated radii")
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--ensemble", type=int, default=300)
    sp.add_argument("--n", type=int, default=14)
    common(sp, "seed", "out")
    sp.set_defaults(fn=cmd_sojourn)

    sp = sub.add_parser("verify", help="run a verification scenario")
    sp.add_argument("--scenario", required=True, help="builtin name or scenario JSON file")
    common(sp, "seed", "out", "threads")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="parameter sweep: theory vs estimate table")
    sp.add_argument("--config", help="JSON sweep config")
    common(sp, "seed", "out")
    sp.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SemidimError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is not a scientific FAIL (exit 1): report it as internal
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
