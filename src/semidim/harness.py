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

import functools
import json
import math
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .borel import BorelSetSpec, cantor, check_cover_level, check_time_set, interval, time_set
from .codec import Record
from .dimension import classify_sojourn_case, dimensions_from_spectrum
from .errors import BudgetExceeded, InvalidInputs
from .estimators import (
    box_count_graph,
    check_box_sides,
    check_energy,
    check_energy_points,
    check_sojourn,
    dyadic_scales,
    energy_cover_level,
    energy_dimension,
    geometric_scales,
    sojourn_mc,
)
from .laws import BlockLaw, LawKind, PathBuffers, check_truncation
from .paths import _kept_rows, check_grid, check_memory, empirical_fullness, simulate_path
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
    return _judged(estimate, theory, tol, stderr, overshoot_inconclusive)["verdict"]


def _judged(estimate: float, theory: float, tol: float, stderr: float, overshoot_inconclusive: bool = False) -> dict:
    """A stage's verdict and, unless it is PASS, its reason: the rule that
    fired, with its numbers.  An estimate that is not finite is INCONCLUSIVE."""
    if not math.isfinite(estimate):
        return {"verdict": INCONCLUSIVE, "reason": "non-finite estimate"}
    diff = estimate - theory
    if abs(diff) <= tol:
        return {"verdict": PASS}
    if overshoot_inconclusive and diff > tol:
        return {
            "verdict": INCONCLUSIVE,
            "reason": f"overshoot: estimate - theory = {diff:.4f} > tol = {tol:.4f}; the theory is a lower bound",
        }
    miss = f"|estimate - theory| = {abs(diff):.4f}"
    if abs(diff) > 2.0 * tol and stderr < tol / 2.0:
        return {
            "verdict": FAIL,
            "reason": f"confident miss: {miss} > 2*tol = {2.0 * tol:.4f} and stderr {stderr:.4f} < tol/2 = {tol / 2.0:.4f}",
        }
    if abs(diff) <= 2.0 * tol:
        why = f"{miss} lies between tol = {tol:.4f} and 2*tol = {2.0 * tol:.4f}"
    else:
        why = f"{miss} > 2*tol = {2.0 * tol:.4f}, but stderr {stderr:.4f} >= tol/2 = {tol / 2.0:.4f}"
    return {"verdict": INCONCLUSIVE, "reason": f"miss without confidence: {why}"}


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
        # one box estimate has no spread, so its stderr of 0 would make any
        # miss beyond 2*tol a confident FAIL
        if self.n_seeds < 2:
            raise InvalidInputs(f"scenario {self.name}: n_seeds must be >= 2, got {self.n_seeds}")
        check_memory(2 * self.n_seeds, f"the graph and range estimates of {self.n_seeds} paths")
        for key in ("box_tol", "sojourn_tol"):
            tol = getattr(self, key)
            # an infinite tolerance passes every estimate; NaN fails this test too
            if not 0.0 < tol < math.inf:
                raise InvalidInputs(f"scenario {self.name}: {key} must be finite and > 0, got {tol}")
        check_box_sides(self.box_sides, self.n)
        # checked here, as the time-set mask is built before any path
        check_grid(self.n, len(self.matrix), self.laws)
        check_time_set(self.borel)
        check_cover_level(self.borel, self.cover_level, self.n)
        check_sojourn(self.sojourn_ensemble, self.sojourn_radii, self.sojourn_n, len(self.matrix))
        check_energy(self.energy_gammas, self.energy_subsample, self.energy_ratio, self.n, self.borel)
        # A semistable law's truncation must hold at the smallest step a run
        # takes: the grid's, or the bottom sojourn stratum's midpoint.
        dt = min(2.0**-self.n, 2.0 ** -(self.sojourn_n + 1))
        for law in self.laws:
            if law.kind is LawKind.SEMISTABLE_DISCRETE:
                check_truncation(law.alpha, law.c, dt, law.k_min)

    @functools.cached_property
    def spec(self) -> ExponentSpec:
        return validate_exponent(np.asarray(self.matrix, dtype=float), self.c)

    def theory(self) -> dict:
        dec = self.spec.decomposition
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
        """The theory, once every stored expected value matches it."""
        theory = self.theory()
        for key, stored in self.expected.items():
            fresh = theory[key]
            if isinstance(stored, str):
                if stored != fresh:
                    raise InvalidInputs(
                        f"scenario {self.name}: stored {key}={stored} but theory gives {fresh}"
                    )
            # a NaN would match any theory, as it fails the test below
            elif not (isinstance(stored, (int, float)) and math.isfinite(stored)):
                raise InvalidInputs(f"scenario {self.name}: stored {key}={stored} is neither a string nor a finite number")
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
            if "reason" in info:
                extra += f": {info['reason']}"
            lines.append(
                f"  {stage:<12} estimate={est:.4f} theory={theory:.4f} -> {v}{extra}"
            )
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def _over_paths(spec, laws, n, mask, seed, prefix, count, measure, threads=1) -> list:
    """``measure(i, path, buffers)`` for the paths ``prefix/path/0 .. count-1``
    on the grid rows ``mask`` keeps, in order; each path has its own named
    stream, so ``threads`` cannot change a result.  Each worker draws its
    paths on one :class:`PathBuffers`, reused from path to path, which
    ``measure`` may use for its scratch; a path lives until the worker's next.
    The kept rows and their steps are formed once, and every path reads them."""
    worker = threading.local()
    kept = _kept_rows(n, mask, PathBuffers())

    def one(i: int):
        if not hasattr(worker, "buffers"):
            worker.buffers = PathBuffers()
        path = simulate_path(spec, laws, n, seed, name=f"{prefix}/path/{i}", mask=mask, _buffers=worker.buffers, _kept=kept)
        return measure(i, path, worker.buffers)

    if threads > 1:
        import concurrent.futures  # here alone: it loads logging, which no serial run needs

        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(count)))
    return [one(i) for i in range(count)]


def _median_stage(ests, theory: float, tol: float, **extra) -> dict:
    """A stage judged on the median over seeds, with its Monte Carlo stderr."""
    ests = np.asarray(ests)
    med = float(np.median(ests))
    stderr = float(np.std(ests) / np.sqrt(ests.size))
    return {
        "estimate": med,
        "theory": theory,
        "tol": tol,
        "stderr": stderr,
        "per_seed": ests.tolist(),
        **_judged(med, theory, tol, stderr),
        **extra,
    }


def _time_set_masks(sc: Scenario) -> tuple:
    """(mask, held): the grid rows of the time set's cover, which the box
    stages count, and those the paths hold.  The energy stage tests a Cantor
    set at its own prefractal level; the covers of one Cantor set nest, so
    where that level is the shallower one the paths hold its cover, the
    union of the two."""
    mask = sc.borel.mask(sc.n, sc.cover_level)
    level = energy_cover_level(sc.borel, sc.energy_ratio * sc.energy_subsample)
    if level is not None and level < (sc.cover_level or sc.borel.cover_level(sc.n)):
        return mask, sc.borel.mask(sc.n, level)
    return mask, mask


def _box_stages(sc: Scenario, theory: dict, seed: int, threads: int, mask, held):
    """The box_graph and box_range stages, and the energy estimate of path 0,
    on paths that hold the grid rows ``held`` (see :func:`_time_set_masks`)."""

    def measure(i: int, path, buffers):
        # Path 0 also feeds the energy stage, estimated here so that no path
        # outlives its own box counts.
        g = box_count_graph(path, mask, sc.box_sides, _buffers=buffers)
        energy = None
        if i == 0:
            energy = energy_dimension(
                path, sc.borel, sc.energy_gammas, sc.energy_subsample, seed,
                ratio=sc.energy_ratio, cover_level=sc.cover_level, _buffers=buffers,
            )
        return g.estimate, g.range.estimate, energy

    runs = _over_paths(sc.spec, sc.laws, sc.n, held, seed, f"scenario/{sc.name}", sc.n_seeds, measure, threads)
    graph, range_, energy = zip(*runs)
    stages = {
        "box_graph": _median_stage(graph, theory["graph_dim"], sc.box_tol, spread=float(np.std(graph))),
        # informational; the graph is the certified object
        "box_range": _median_stage(range_, theory["range_dim"], sc.box_tol, gating=False),
    }
    return stages, energy[0]


def _sojourn_stage(sc: Scenario, seed: int) -> dict:
    graph_soj, _ = sojourn_mc(
        sc.spec, sc.laws, sc.sojourn_radii, 1.0, sc.sojourn_ensemble, seed, sc.sojourn_n,
        name=f"scenario/{sc.name}/sojourn",
    )
    slope, theory, slope_err = graph_soj.fit.slope, graph_soj.theory_exponent, graph_soj.slope_stderr
    return {
        "estimate": slope,
        "theory": theory,
        "tol": sc.sojourn_tol,
        "stderr": slope_err,
        "case": graph_soj.case,
        **_judged(slope, theory, sc.sojourn_tol, slope_err, overshoot_inconclusive=True),
    }


def _energy_stage(energy, box_estimate: float, graph_dim: float) -> dict:
    coherent = bool(energy.estimate <= box_estimate + 0.1)
    lower_ok = bool(energy.estimate >= graph_dim - 0.25)
    stage = {
        "estimate": energy.estimate,
        "theory": graph_dim,
        "coherent_with_box": coherent,
        "lower_bound_ok": lower_ok,
        "verdict": PASS if (coherent and lower_ok) else FAIL,
    }
    failed = []
    if not coherent:
        failed.append(f"coherent_with_box: estimate {energy.estimate:.4f} > box estimate + 0.1 = {box_estimate + 0.1:.4f}")
    if not lower_ok:
        failed.append(f"lower_bound_ok: estimate {energy.estimate:.4f} < theory - 0.25 = {graph_dim - 0.25:.4f}")
    if not math.isfinite(energy.estimate):
        stage["verdict"], stage["reason"] = INCONCLUSIVE, "non-finite estimate"
    elif failed:
        stage["reason"] = "; ".join(failed)
    return stage


def run_scenario(sc: Scenario, master_seed: int, threads: int = 1) -> VerificationReport:
    """Execute a scenario end to end; deterministic given the master seed."""
    if threads < 1:
        raise InvalidInputs(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    theory = sc.validate_expected()
    # each worker holds its own path and buffers
    check_grid(sc.n, len(sc.matrix), sc.laws, workers=min(threads, sc.n_seeds))
    mask, held = _time_set_masks(sc)
    # path 0's energy blocks take their points from the rows its path holds
    check_energy_points(int(np.count_nonzero(held)), sc.energy_subsample)
    theory["empirically_full"], theory["fullness_ratio"] = empirical_fullness(
        sc.spec, sc.laws, seed=master_seed
    )
    stages, energy = _box_stages(sc, theory, master_seed, threads, mask, held)
    stages["sojourn"] = _sojourn_stage(sc, master_seed)
    stages["energy"] = _energy_stage(energy, stages["box_graph"]["estimate"], theory["graph_dim"])
    gating = [info["verdict"] for info in stages.values() if info.get("gating", True)]
    overall = max(gating, key=_SEVERITY.__getitem__)
    return VerificationReport(
        scenario=sc.name,
        master_seed=master_seed,
        theory=theory,
        stages=stages,
        verdict=overall,
        runtime_seconds=time.perf_counter() - started,
        notes=sc.notes,
    )


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
    # The values most builtins share; each builtin states only how it differs.
    base = Scenario(
        name="brownian-interval",
        matrix=((0.5,),),
        c=2.0,
        laws=(_stable(2.0),),
        borel=interval(0.0, 1.0),
        n=20,
        n_seeds=20,
        box_sides=tuple(dyadic_scales(2, 11)),
        box_tol=0.12,
        sojourn_n=16,
        sojourn_ensemble=300,
        sojourn_radii=tuple(geometric_scales(2.0, 3, 8)),
        sojourn_tol=0.15,
        energy_gammas=tuple(np.round(np.arange(0.8, 2.05, 0.05), 10)),
        energy_subsample=1000,
        expected={"graph_dim": 1.5, "sojourn_case": "iv", "sojourn_exponent": 1.5},
    )
    cantor_set = dict(borel=cantor(2, 1.0 / 3.0), energy_subsample=1024, energy_ratio=4)
    isotropic = dict(sojourn_ensemble=400, sojourn_radii=tuple(geometric_scales(2.0, 2, 7)))
    vary = functools.partial(replace, base)
    scenarios = [
        vary(box_sides=tuple(dyadic_scales(2, 12)), box_tol=0.08),
        vary(
            name="brownian-cantor",
            **cantor_set,
            box_sides=tuple(3.0 ** (-np.arange(1, 13) / 2.0)),
            energy_gammas=tuple(np.round(np.arange(0.5, 1.85, 0.05), 10)),
            cover_level=8,
            expected={"graph_dim": 1.0 + np.log(2) / np.log(3) - 0.5},
        ),
        vary(
            name="cauchy-cantor",
            matrix=((1.0,),),
            laws=(_stable(1.0),),
            **cantor_set,
            box_sides=tuple(3.0 ** (-np.arange(0, 12) / 2.0)),
            energy_gammas=tuple(np.round(np.arange(0.3, 1.35, 0.05), 10)),
            cover_level=9,
            expected={"graph_dim": np.log(2) / np.log(3), "graph_branch": "SLOW"},
            notes="SLOW branch: the graph dimension equals dim B, so box counts "
            "mostly probe the time set and discriminate the law weakly",
        ),
        vary(
            name="diag-2-05-interval",
            matrix=((0.5, 0.0), (0.0, 2.0)),
            laws=(_stable(2.0), _stable(0.5)),
            n=18,
            expected={
                "graph_dim": 1.5,
                "range_dim": 1.25,
                "graph_branch": "FAST",
                "sojourn_case": "iv",
                "sojourn_exponent": 1.5,
            },
        ),
        vary(
            name="diag-2-1-interval",
            matrix=((0.5, 0.0), (0.0, 1.0)),
            laws=(_stable(2.0), _stable(1.0)),
            n=18,
            expected={
                "graph_dim": 1.5,
                "range_dim": 1.5,
                "sojourn_case": "iii",
                "sojourn_exponent": 1.5,
            },
        ),
        vary(
            name="isotropic-12-interval",
            matrix=_rotation_matrix(1.0 / 1.2),
            laws=(_isotropic(1.2),),
            n=19,
            box_sides=tuple(dyadic_scales(3, 12)),
            **isotropic,
            energy_gammas=tuple(np.round(np.arange(0.6, 1.85, 0.05), 10)),
            expected={
                "graph_dim": 1.2,
                "graph_branch": "SLOW",
                "sojourn_case": "i",
                "sojourn_exponent": 1.2,
            },
            notes="box-count and sojourn asymptotics set in slowly for "
            "jump-driven 2-d ranges; estimates sit a few hundredths low",
        ),
        vary(
            name="isotropic-08-interval",
            matrix=_rotation_matrix(1.25),
            laws=(_isotropic(0.8),),
            n=18,
            box_sides=tuple(dyadic_scales(5, 14)),
            **isotropic,
            sojourn_tol=0.1,
            energy_gammas=tuple(np.round(np.arange(0.5, 1.55, 0.05), 10)),
            expected={
                "graph_dim": 1.0,
                "graph_branch": "SLOW",
                "sojourn_case": "ii",
                "sojourn_exponent": 1.0,
            },
            notes="SLOW branch with alpha_1 < 1: the time coordinate dominates "
            "and box counting is insensitive to the process law",
        ),
        vary(
            name="stpetersburg-interval",
            matrix=((1.0,),),
            laws=(BlockLaw(LawKind.SEMISTABLE_DISCRETE, alpha=1.0, c=2.0),),
            n=16,
            sojourn_n=14,
            sojourn_ensemble=200,
            sojourn_radii=tuple(geometric_scales(2.0, 2, 6)),
            energy_gammas=tuple(np.round(np.arange(0.5, 1.55, 0.05), 10)),
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


SWEEP_SIDES = dyadic_scales(1, 10)


@dataclass(frozen=True)
class SweepConfig(Record):
    """A sweep over alpha x time set; a time set is a spec, a ``time_set`` string or null."""

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
        check_memory(self.n_seeds, f"the estimates of {self.n_seeds} paths a sweep cell")
        # NaN fails this test too: a NaN budget would never trip
        if self.budget_seconds is not None and not self.budget_seconds >= 0.0:
            raise InvalidInputs(f"sweep budget_seconds must be null or >= 0, got {self.budget_seconds}")
        check_box_sides(SWEEP_SIDES, self.n)
        check_grid(self.n, 1)
        for borel in map(time_set, self.time_sets):
            check_time_set(borel)
            check_cover_level(borel, self.cover_level, self.n)


def sweep(cfg: SweepConfig, master_seed: int) -> list[dict]:
    """Theory vs median box estimate of the graph of a one-dimensional
    alpha-stable process, one row per (alpha, time set) of ``cfg``.

    Raises BudgetExceeded when a cell overruns ``cfg.budget_seconds``.
    """
    sets = [time_set(b) for b in cfg.time_sets]
    rows = []
    for alpha in cfg.alphas:
        for borel in sets:
            started = time.perf_counter()
            spec = validate_exponent(np.array([[1.0 / alpha]]), 2.0)
            dec = spec.decomposition
            s = borel.hausdorff_dim
            theory = dimensions_from_spectrum(dec.alphas, dec.block_dims, s)["graph"]
            mask = borel.mask(cfg.n, cfg.cover_level)

            def measure(i: int, path, buffers) -> float:
                est = box_count_graph(path, mask, SWEEP_SIDES, _buffers=buffers)
                budget = cfg.budget_seconds
                if budget is not None and time.perf_counter() - started > budget:
                    raise BudgetExceeded(f"sweep cell alpha={alpha}, s={s} exceeded {budget}s")
                return est.estimate

            prefix = f"sweep/alpha={alpha:.6g}/s={s:.6g}"
            ests = _over_paths(spec, (_stable(alpha),), cfg.n, mask, master_seed, prefix, cfg.n_seeds, measure)
            est = float(np.median(ests))
            rows.append(
                {
                    "alpha": alpha,
                    "time_set_dim": s,
                    "theory": theory.value,
                    "branch": theory.branch.value,
                    "estimate": est,
                    "error": est - theory.value,
                    "n": cfg.n,
                    "n_seeds": cfg.n_seeds,
                }
            )
    return rows
