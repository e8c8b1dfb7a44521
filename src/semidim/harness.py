"""End-to-end verification scenarios.

A scenario binds an exponent, block laws and a time set to the theoretical
dimensions and sojourn exponents, runs the simulator and estimators, and
produces PASS / FAIL / INCONCLUSIVE verdicts per stage:

* PASS when |median estimate - theory| <= tol;
* FAIL when the discrepancy exceeds 2*tol while the Monte Carlo stderr is
  below tol/2 (the estimator is confident and disagrees);
* INCONCLUSIVE otherwise, and always for sojourn slopes overshooting the
  theoretical exponent by more than tol: the theory states lower bounds for
  the expected sojourn, so a persistently steeper slope means the bound is
  not yet sharp at these scales, not a contradiction.

Expected values stored in a scenario are recomputed from the dimension
module at load time; any mismatch beyond 1e-12 is rejected as a stale
fixture.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .borel import BorelSetSpec, cantor, interval
from .codec import Record
from .dimension import classify_sojourn_case, dimensions_from_spectrum
from .errors import BudgetExceeded, InvalidInputs
from .estimators import (
    box_count_graph,
    energy_dimension,
    geometric_scales,
    dyadic_scales,
    sojourn_mc,
)
from .laws import BlockLaw, LawKind
from .paths import empirical_fullness, simulate_path
from .spectral import ExponentSpec, validate_exponent

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"
_SEVERITY = {PASS: 0, INCONCLUSIVE: 1, FAIL: 2}


def verdict(
    estimate: float,
    theory: float,
    tol: float,
    stderr: float,
    overshoot_inconclusive: bool = False,
) -> str:
    diff = estimate - theory
    if abs(diff) <= tol:
        return PASS
    if overshoot_inconclusive and diff > tol:
        return INCONCLUSIVE
    if abs(diff) > 2.0 * tol and stderr < tol / 2.0:
        return FAIL
    return INCONCLUSIVE


@dataclass(frozen=True)
class Scenario(Record):
    """A verification scenario; ``expected`` values are revalidated on load."""

    name: str
    matrix: tuple[tuple[float, ...], ...]
    c: float
    laws: tuple[BlockLaw, ...]
    borel: BorelSetSpec
    n: int
    n_seeds: int
    box_sides: tuple[float, ...]
    box_tol: float
    sojourn_n: int
    sojourn_ensemble: int
    sojourn_radii: tuple[float, ...]
    sojourn_tol: float
    energy_gammas: tuple[float, ...]
    energy_subsample: int
    energy_ratio: int = 16
    cover_level: int | None = None
    expected: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        if self.n_seeds < 1:
            raise InvalidInputs(f"scenario {self.name}: n_seeds must be >= 1, got {self.n_seeds}")

    def exponent(self):
        return validate_exponent(np.asarray(self.matrix, dtype=float), self.c)

    def theory(self) -> dict:
        return self._theory(self.exponent())

    def _theory(self, spec: ExponentSpec) -> dict:
        dec = spec.decomposition
        dims = dimensions_from_spectrum(dec.alphas, dec.block_dims, self.borel.hausdorff_dim)
        case, exp_graph, exp_range = classify_sojourn_case(dec.alphas, dec.block_dims)
        return {
            "graph_dim": dims["graph"].value,
            "range_dim": dims["range"].value,
            "graph_branch": dims["graph"].branch.value,
            "sojourn_case": case,
            "sojourn_exponent": exp_graph,
            "sojourn_exponent_range": exp_range,
            "alphas": list(dec.alphas),
            "block_dims": list(dec.block_dims),
            "time_set_dim": self.borel.hausdorff_dim,
        }

    def validate_expected(self) -> dict:
        return self._validated(self.theory())

    def _validated(self, theory: dict) -> dict:
        """``theory`` itself, once every stored expected value matches it."""
        for key, stored in self.expected.items():
            fresh = theory[key]
            if isinstance(stored, str):
                if stored != fresh:
                    raise InvalidInputs(
                        f"scenario {self.name}: stored {key}={stored} but theory gives {fresh}"
                    )
            elif abs(float(stored) - float(fresh)) > 1e-12:
                raise InvalidInputs(
                    f"scenario {self.name}: stored {key}={stored} differs from "
                    f"recomputed {fresh} beyond 1e-12"
                )
        return theory


@dataclass(frozen=True)
class VerificationReport(Record):
    scenario: str
    master_seed: int
    theory: dict
    stages: dict
    verdict: str
    runtime_seconds: float
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario}: {self.verdict}"]
        for stage, info in self.stages.items():
            est = info.get("estimate")
            theory = info.get("theory")
            v = info.get("verdict", "-")
            extra = f" (stderr {info['stderr']:.4f})" if "stderr" in info else ""
            lines.append(
                f"  {stage:<12} estimate={est:.4f} theory={theory:.4f} -> {v}{extra}"
            )
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _combine(verdicts) -> str:
    return max(verdicts, key=_SEVERITY.__getitem__, default=PASS)


def run_scenario(sc: Scenario, master_seed: int, threads: int = 1) -> VerificationReport:
    """Execute a scenario end to end; deterministic given the master seed."""
    if threads < 1:
        raise InvalidInputs(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    spec = sc.exponent()
    theory = sc._validated(sc._theory(spec))
    full, ratio = empirical_fullness(
        spec, sc.laws, seed=master_seed
    )
    theory = dict(theory)
    theory["empirically_full"] = full
    theory["fullness_ratio"] = ratio

    def one_box(i: int):
        path = simulate_path(
            spec, sc.laws, sc.n, master_seed,
            name=f"scenario/{sc.name}/path/{i}",
        )
        g = box_count_graph(path, sc.borel, sc.box_sides, cover_level=sc.cover_level)
        r = box_count_graph(
            path, sc.borel, sc.box_sides, cover_level=sc.cover_level, target="range"
        )
        # Path 0 also feeds the energy stage, estimated here so that no path
        # outlives its own box counts.
        energy = None
        if i == 0:
            energy = energy_dimension(
                path,
                sc.borel,
                np.asarray(sc.energy_gammas),
                sc.energy_subsample,
                master_seed,
                ratio=sc.energy_ratio,
                cover_level=sc.cover_level,
            )
        return g.estimate, r.estimate, energy

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_box, range(sc.n_seeds)))
    else:
        results = [one_box(i) for i in range(sc.n_seeds)]
    graph_ests = np.array([g for g, _, _ in results])
    range_ests = np.array([r for _, r, _ in results])
    energy = results[0][2]

    stages: dict = {}
    box_med = float(np.median(graph_ests))
    box_stderr = float(np.std(graph_ests) / np.sqrt(sc.n_seeds))
    stages["box_graph"] = {
        "estimate": box_med,
        "theory": theory["graph_dim"],
        "tol": sc.box_tol,
        "stderr": box_stderr,
        "spread": float(np.std(graph_ests)),
        "per_seed": graph_ests.tolist(),
        "verdict": verdict(box_med, theory["graph_dim"], sc.box_tol, box_stderr),
    }
    range_med = float(np.median(range_ests))
    range_stderr = float(np.std(range_ests) / np.sqrt(sc.n_seeds))
    stages["box_range"] = {
        "estimate": range_med,
        "theory": theory["range_dim"],
        "tol": sc.box_tol,
        "stderr": range_stderr,
        "per_seed": range_ests.tolist(),
        "verdict": verdict(range_med, theory["range_dim"], sc.box_tol, range_stderr),
        "gating": False,  # informational; the graph is the certified object
    }

    graph_soj, _ = sojourn_mc(
        spec,
        sc.laws,
        np.asarray(sc.sojourn_radii),
        1.0,
        sc.sojourn_ensemble,
        master_seed,
        sc.sojourn_n,
        name=f"scenario/{sc.name}/sojourn",
    )
    slope_err = _sojourn_slope_stderr(graph_soj)
    stages["sojourn"] = {
        "estimate": graph_soj.fit.slope,
        "theory": graph_soj.theory_exponent,
        "tol": sc.sojourn_tol,
        "stderr": slope_err,
        "case": graph_soj.case,
        "verdict": verdict(
            graph_soj.fit.slope,
            graph_soj.theory_exponent,
            sc.sojourn_tol,
            slope_err,
            overshoot_inconclusive=True,
        ),
    }

    coherent = bool(energy.estimate <= box_med + 0.1)
    lower_ok = bool(energy.estimate >= theory["graph_dim"] - 0.25)
    stages["energy"] = {
        "estimate": energy.estimate,
        "theory": theory["graph_dim"],
        "coherent_with_box": coherent,
        "lower_bound_ok": lower_ok,
        "verdict": PASS if (coherent and lower_ok) else FAIL,
    }

    overall = _combine(
        info["verdict"] for info in stages.values() if info.get("gating", True)
    )
    return VerificationReport(
        scenario=sc.name,
        master_seed=master_seed,
        theory=theory,
        stages=stages,
        verdict=overall,
        runtime_seconds=time.perf_counter() - started,
        notes=sc.notes,
    )


def _sojourn_slope_stderr(est) -> float:
    """Propagate per-radius Monte Carlo noise into the fitted slope."""
    x = np.log(est.radii)
    x = x - x.mean()
    rel = est.stderrs / np.maximum(est.means, 1e-300)
    denom = float(np.sum(x**2))
    return float(np.sqrt(np.sum((x * rel) ** 2)) / denom)


# --------------------------------------------------------------------------
# builtin scenarios
# --------------------------------------------------------------------------


def _stable(alpha: float) -> BlockLaw:
    return BlockLaw(LawKind.STABLE_SYMMETRIC, alpha=alpha)


def _isotropic(alpha: float) -> BlockLaw:
    return BlockLaw(LawKind.STABLE_ISOTROPIC_2D, alpha=alpha)


def _rotation_matrix(a: float, b: float = 1.0):
    return ((a, -b), (b, a))


def builtin_scenarios() -> dict[str, Scenario]:
    scenarios = [
        Scenario(
            name="brownian-interval",
            matrix=((0.5,),),
            c=2.0,
            laws=(_stable(2.0),),
            borel=interval(0.0, 1.0),
            n=20,
            n_seeds=20,
            box_sides=tuple(dyadic_scales(2, 12)),
            box_tol=0.08,
            sojourn_n=16,
            sojourn_ensemble=300,
            sojourn_radii=tuple(geometric_scales(2.0, 3, 8)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.8, 2.05, 0.05), 10)),
            energy_subsample=1000,
            expected={"graph_dim": 1.5, "sojourn_case": "iv", "sojourn_exponent": 1.5},
        ),
        Scenario(
            name="brownian-cantor",
            matrix=((0.5,),),
            c=2.0,
            laws=(_stable(2.0),),
            borel=cantor(2, 1.0 / 3.0),
            n=20,
            n_seeds=20,
            box_sides=tuple(3.0 ** (-np.arange(1, 13) / 2.0)),
            box_tol=0.12,
            sojourn_n=16,
            sojourn_ensemble=300,
            sojourn_radii=tuple(geometric_scales(2.0, 3, 8)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.5, 1.85, 0.05), 10)),
            energy_subsample=1024,
            energy_ratio=4,
            cover_level=8,
            expected={"graph_dim": 1.0 + np.log(2) / np.log(3) - 0.5},
        ),
        Scenario(
            name="cauchy-cantor",
            matrix=((1.0,),),
            c=2.0,
            laws=(_stable(1.0),),
            borel=cantor(2, 1.0 / 3.0),
            n=20,
            n_seeds=20,
            box_sides=tuple(3.0 ** (-np.arange(0, 12) / 2.0)),
            box_tol=0.12,
            sojourn_n=16,
            sojourn_ensemble=300,
            sojourn_radii=tuple(geometric_scales(2.0, 3, 8)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.3, 1.35, 0.05), 10)),
            energy_subsample=1024,
            energy_ratio=4,
            cover_level=9,
            expected={"graph_dim": np.log(2) / np.log(3), "graph_branch": "SLOW"},
            notes="SLOW branch: the graph dimension equals dim B, so box counts "
            "mostly probe the time set and discriminate the law weakly",
        ),
        Scenario(
            name="diag-2-05-interval",
            matrix=((0.5, 0.0), (0.0, 2.0)),
            c=2.0,
            laws=(_stable(2.0), _stable(0.5)),
            borel=interval(0.0, 1.0),
            n=18,
            n_seeds=20,
            box_sides=tuple(dyadic_scales(2, 11)),
            box_tol=0.12,
            sojourn_n=16,
            sojourn_ensemble=300,
            sojourn_radii=tuple(geometric_scales(2.0, 3, 8)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.8, 2.05, 0.05), 10)),
            energy_subsample=1000,
            expected={
                "graph_dim": 1.5,
                "range_dim": 1.25,
                "graph_branch": "FAST",
                "sojourn_case": "iv",
                "sojourn_exponent": 1.5,
            },
        ),
        Scenario(
            name="diag-2-1-interval",
            matrix=((0.5, 0.0), (0.0, 1.0)),
            c=2.0,
            laws=(_stable(2.0), _stable(1.0)),
            borel=interval(0.0, 1.0),
            n=18,
            n_seeds=20,
            box_sides=tuple(dyadic_scales(2, 11)),
            box_tol=0.12,
            sojourn_n=16,
            sojourn_ensemble=300,
            sojourn_radii=tuple(geometric_scales(2.0, 3, 8)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.8, 2.05, 0.05), 10)),
            energy_subsample=1000,
            expected={
                "graph_dim": 1.5,
                "range_dim": 1.5,
                "sojourn_case": "iii",
                "sojourn_exponent": 1.5,
            },
        ),
        Scenario(
            name="isotropic-12-interval",
            matrix=_rotation_matrix(1.0 / 1.2),
            c=2.0,
            laws=(_isotropic(1.2),),
            borel=interval(0.0, 1.0),
            n=19,
            n_seeds=20,
            box_sides=tuple(dyadic_scales(3, 12)),
            box_tol=0.12,
            sojourn_n=16,
            sojourn_ensemble=400,
            sojourn_radii=tuple(geometric_scales(2.0, 2, 7)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.6, 1.85, 0.05), 10)),
            energy_subsample=1000,
            expected={
                "graph_dim": 1.2,
                "graph_branch": "SLOW",
                "sojourn_case": "i",
                "sojourn_exponent": 1.2,
            },
            notes="box-count and sojourn asymptotics set in slowly for "
            "jump-driven 2-d ranges; estimates sit a few hundredths low",
        ),
        Scenario(
            name="isotropic-08-interval",
            matrix=_rotation_matrix(1.25),
            c=2.0,
            laws=(_isotropic(0.8),),
            borel=interval(0.0, 1.0),
            n=18,
            n_seeds=20,
            box_sides=tuple(dyadic_scales(5, 14)),
            box_tol=0.12,
            sojourn_n=16,
            sojourn_ensemble=400,
            sojourn_radii=tuple(geometric_scales(2.0, 2, 7)),
            sojourn_tol=0.1,
            energy_gammas=tuple(np.round(np.arange(0.5, 1.55, 0.05), 10)),
            energy_subsample=1000,
            expected={
                "graph_dim": 1.0,
                "graph_branch": "SLOW",
                "sojourn_case": "ii",
                "sojourn_exponent": 1.0,
            },
            notes="SLOW branch with alpha_1 < 1: the time coordinate dominates "
            "and box counting is insensitive to the process law",
        ),
        Scenario(
            name="stpetersburg-interval",
            matrix=((1.0,),),
            c=2.0,
            laws=(BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),),
            borel=interval(0.0, 1.0),
            n=16,
            n_seeds=20,
            box_sides=tuple(dyadic_scales(2, 11)),
            box_tol=0.12,
            sojourn_n=14,
            sojourn_ensemble=200,
            sojourn_radii=tuple(geometric_scales(2.0, 2, 6)),
            sojourn_tol=0.15,
            energy_gammas=tuple(np.round(np.arange(0.5, 1.55, 0.05), 10)),
            energy_subsample=1000,
            expected={"graph_dim": 1.0, "graph_branch": "SLOW"},
        ),
    ]
    return {sc.name: sc for sc in scenarios}


def get_scenario(name: str) -> Scenario:
    table = builtin_scenarios()
    if name not in table:
        raise KeyError(f"unknown scenario {name!r}; builtin: {sorted(table)}")
    return table[name]


# --------------------------------------------------------------------------
# parameter sweeps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    alpha: float
    borel: BorelSetSpec
    n: int = 16
    n_seeds: int = 8
    box_sides: tuple[float, ...] = tuple(dyadic_scales(1, 10))
    cover_level: int | None = None


def sweep(cells, master_seed: int, budget_seconds: float | None = None) -> list[dict]:
    """Theory vs box estimate over a list of one-dimensional sweep cells.

    Returns one row per cell; raises BudgetExceeded when a cell overruns the
    optional wall-clock budget.
    """
    rows = []
    for cell in cells:
        started = time.perf_counter()
        spec = validate_exponent(np.array([[1.0 / cell.alpha]]), 2.0)
        dec = spec.decomposition
        s = cell.borel.hausdorff_dim
        theory = dimensions_from_spectrum(dec.alphas, dec.block_dims, s)["graph"]
        ests = []
        for i in range(cell.n_seeds):
            path = simulate_path(
                spec,
                (_stable(cell.alpha),),
                cell.n,
                master_seed,
                name=f"sweep/alpha={cell.alpha:.6g}/s={s:.6g}/path/{i}",
            )
            ests.append(
                box_count_graph(
                    path, cell.borel, cell.box_sides, cover_level=cell.cover_level
                ).estimate
            )
            if budget_seconds is not None and time.perf_counter() - started > budget_seconds:
                raise BudgetExceeded(
                    f"sweep cell alpha={cell.alpha}, s={s} exceeded {budget_seconds}s"
                )
        est = float(np.median(ests))
        rows.append(
            {
                "alpha": cell.alpha,
                "time_set_dim": s,
                "theory": theory.value,
                "branch": theory.branch.value,
                "estimate": est,
                "error": est - theory.value,
                "n": cell.n,
                "n_seeds": cell.n_seeds,
            }
        )
    return rows
