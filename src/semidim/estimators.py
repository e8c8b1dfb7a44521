"""Dimension and sojourn estimators operating on sampled paths.

Box counting works on axis-aligned cube grids anchored at the origin.  Side
lengths should form a nested geometric family (each side an integer multiple
of the next) so occupied counts are provably monotone; the helpers
:func:`dyadic_scales` and :func:`geometric_scales` produce such grids.
:func:`count_occupied_cubes` counts a whole ladder at once: on a ladder of
powers of two it quantises the points once and coarsens the occupied cells
up the ladder (dividing by a power of two is exact, so the counts match a
per-side count bit for bit); other ladders, such as base 3 or sqrt 3, whose
sides are inexact in floating point, are quantised side by side.

The box-count slope is fitted after dropping the two largest and two
smallest scales, the standard guard against lattice and path-resolution
bias; box counting estimates (upper) box dimension, which upper-bounds
Hausdorff dimension, so estimates tend to sit slightly above theory rather
than below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

from .borel import BorelSetSpec, SetKind
from .codec import Record
from .dimension import classify_sojourn_case
from .errors import (
    DegenerateSample,
    EmptyRestriction,
    EnsembleTooSmall,
    NonMonotoneCounts,
    RadiiOutOfRange,
    ResolutionTooCoarse,
    ScheduleMismatch,
)
from .fitting import ScalingFit, fit_loglog
from .paths import LevyPath, simulate_path
from .seeds import derive_rng
from .spectral import ExponentSpec

BOX_FIT_DROP = 2  # scales dropped at each end of the fit window
MIN_FIT_SCALES = 6
_ENERGY_BLOCK = 256  # rows per near-pair block; bounds the pairs held at once
# Largest growth of the truncated log-energy, from the small to the large
# subsample, at which the energy still counts as finite.
ENERGY_THRESHOLD = 0.1
# Truncation radius: this multiple of this quantile of the consecutive-point
# distances of a selection.
RADIUS_FACTOR = 16.0
RADIUS_QUANTILE = 0.5


def dyadic_scales(k_min: int, k_max: int) -> np.ndarray:
    """Sides 2^-k for k = k_min .. k_max, ascending in k (descending side)."""
    return 2.0 ** (-np.arange(k_min, k_max + 1, dtype=float))


def geometric_scales(base: float, k_min: int, k_max: int) -> np.ndarray:
    """Sides base^-k, k = k_min .. k_max; base should be an integer >= 2."""
    return float(base) ** (-np.arange(k_min, k_max + 1, dtype=float))


def _unique_cells(cells: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer cell array, in lexicographic order.

    Consecutive repeats are dropped first (a time-ordered path often stays in
    one cell); the rest are packed into one int64 key per row when the key
    range fits below 2^62, else left to ``np.unique(axis=0)``.
    """
    if cells.shape[0] > 1:
        keep = np.empty(cells.shape[0], dtype=bool)
        keep[0] = True
        np.any(cells[1:] != cells[:-1], axis=1, out=keep[1:])
        cells = cells[keep]
    mins = cells.min(axis=0)
    ranges = [int(r) for r in cells.max(axis=0) - mins + 1]
    if math.prod(ranges) >= 2**62:
        return np.unique(cells, axis=0)
    key = cells[:, 0] - mins[0]
    for i in range(1, cells.shape[1]):
        key = key * ranges[i] + (cells[:, i] - mins[i])
    key = np.unique(key)
    columns = []
    for r in ranges[:0:-1]:
        key, column = np.divmod(key, r)
        columns.append(column)
    columns.append(key)
    return np.column_stack(columns[::-1]) + mins


def count_occupied_cubes(points: np.ndarray, sides) -> np.ndarray:
    """Occupied side-b cubes (grid anchored at 0), one count per side b in ``sides``.

    When every side is a power of two the points are quantised once, at the
    finest side, and the occupied set is coarsened up the ladder by integer
    floor division.  Dividing by a power of two is exact in floating point,
    so floor(floor(p / b) / 2^m) equals floor(p / (2^m b)) bit for bit, and
    after the first level the work scales with the occupied cubes, not the
    points.  Other ladders (base 3, sqrt 3) are quantised side by side:
    b = 3^-k is inexact, so a coarsened cell could differ from floor(p / b)
    at a cell edge.
    """
    sides = np.atleast_1d(np.asarray(sides, dtype=float))
    counts = np.zeros(sides.size, dtype=np.int64)
    if points.shape[0] == 0:
        return counts
    if np.all(np.frexp(sides)[0] == 0.5):
        order = np.argsort(sides)
        cells = _unique_cells(np.floor(points / sides[order[0]]).astype(np.int64))
        counts[order[0]] = cells.shape[0]
        for finer, k in zip(order[:-1], order[1:]):
            cells = _unique_cells(cells // int(sides[k] / sides[finer]))
            counts[k] = cells.shape[0]
        return counts
    for k, b in enumerate(sides):
        counts[k] = _unique_cells(np.floor(points / b).astype(np.int64)).shape[0]
    return counts


def _nested_ratios(sides: np.ndarray) -> bool:
    s = np.sort(sides)[::-1]
    ratios = s[:-1] / s[1:]
    return bool(np.all(np.abs(ratios - np.round(ratios)) < 1e-9))


@dataclass(frozen=True)
class BoxCountEstimate(Record):
    sides: np.ndarray
    counts: np.ndarray
    fit: ScalingFit
    estimate: float


def box_count_points(points: np.ndarray, sides) -> BoxCountEstimate:
    """Box-count dimension estimate of a point cloud in R^D."""
    sides = np.sort(np.asarray(sides, dtype=float))[::-1]
    if sides.size < MIN_FIT_SCALES + 2 * BOX_FIT_DROP:
        raise ValueError(
            f"need >= {MIN_FIT_SCALES + 2 * BOX_FIT_DROP} scales for a windowed fit"
        )
    counts = count_occupied_cubes(points, sides)
    if _nested_ratios(sides) and np.any(np.diff(counts) < 0):
        raise NonMonotoneCounts("occupied-cube counts must be nonincreasing in the side")
    fit = fit_loglog(sides, counts, drop_low=BOX_FIT_DROP, drop_high=BOX_FIT_DROP)
    return BoxCountEstimate(
        sides=sides, counts=counts, fit=fit, estimate=float(-fit.slope)
    )


def box_count_graph(
    path: LevyPath,
    borel: BorelSetSpec,
    sides,
    cover_level: int | None = None,
    target: str = "graph",
) -> BoxCountEstimate:
    """Box-count estimate of dim of the graph (or range) restricted to B.

    ``target`` selects the graph Z(t) = (t, X(t)) or the bare range X(t).
    The path grid must resolve the smallest cube: 2^-n <= min(side)/4.
    """
    sides = np.asarray(sides, dtype=float)
    if path.grid_step > sides.min() / 4.0:
        raise ResolutionTooCoarse(
            f"grid step {path.grid_step:g} too coarse for smallest side {sides.min():g}"
        )
    mask = borel.mask(path.times, cover_level)
    if not np.any(mask):
        raise EmptyRestriction("no grid point falls inside the time set")
    pts = path.graph_points()[mask] if target == "graph" else path.values[mask]
    return box_count_points(pts, sides)


class Schedule(Enum):
    """Cube-side schedules tied to the sojourn cases: side |I|^(1/alpha_1),
    side |I|, or side |I|^(1/alpha_2) per covering interval I."""

    A1 = "A1"
    ID = "ID"
    A2 = "A2"


@dataclass(frozen=True)
class CoveringCount(Record):
    schedule: Schedule
    kappa: float
    intervals: tuple[tuple[float, float], ...]
    sides: np.ndarray
    counts: np.ndarray
    weighted_sum: float


def dyadic_intervals(level: int) -> list[tuple[float, float]]:
    """The 2^level dyadic intervals partitioning [0, 1]."""
    edges = np.arange(2**level + 1, dtype=float) * 2.0 ** (-level)
    return [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]


def covering_count(
    path: LevyPath,
    intervals,
    schedule: Schedule,
    kappa: float,
    alphas,
) -> CoveringCount:
    """Weighted cube-hit count sum(M_i * b_i^kappa) over a covering of B.

    M_i counts the side-b_i cubes (fixed grid anchored at 0) hit by the
    graph over interval I_i, with b_i set by the schedule.  Bounded sums as
    the mesh refines witness an upper dimension bound at exponent kappa;
    growth witnesses that kappa sits below the dimension.
    """
    alphas = list(alphas)
    if schedule is Schedule.A2 and len(alphas) < 2:
        raise ScheduleMismatch("schedule A2 needs a second spectral index")
    graph = path.graph_points()
    times = path.times
    sides = np.empty(len(intervals))
    counts = np.empty(len(intervals), dtype=np.int64)
    for i, (lo, hi) in enumerate(intervals):
        if lo < 0.0 or hi > 1.0 or hi <= lo:
            raise ValueError(f"interval ({lo}, {hi}) must sit inside [0, 1]")
        length = hi - lo
        if schedule is Schedule.A1:
            side = length ** (1.0 / alphas[0])
        elif schedule is Schedule.A2:
            side = length ** (1.0 / alphas[1])
        else:
            side = length
        a = int(np.searchsorted(times, lo, side="left"))
        b = int(np.searchsorted(times, hi, side="right"))
        sides[i] = side
        counts[i] = count_occupied_cubes(graph[a:b], side)[0]
    weighted = float(np.sum(counts * sides**kappa))
    return CoveringCount(
        schedule=schedule,
        kappa=kappa,
        intervals=tuple((float(a), float(b)) for a, b in intervals),
        sides=sides,
        counts=counts,
        weighted_sum=weighted,
    )


@dataclass(frozen=True)
class SojournEstimate(Record):
    """Monte Carlo means of the sojourn time T(a, s) over a radii grid."""

    target: str  # "graph" or "range"
    radii: np.ndarray
    horizon: float
    means: np.ndarray
    stderrs: np.ndarray
    fit: ScalingFit
    case: str
    theory_exponent: float


def sojourn_mc(
    spec: ExponentSpec,
    laws,
    radii,
    horizon: float,
    ensemble: int,
    seed: int,
    n: int,
    name: str = "sojourn",
) -> tuple[SojournEstimate, SojournEstimate]:
    """Sojourn-time scaling of the graph Z and the range X.

    T(a, s) is discretized as grid_step * #{t_k < s : ||.|| <= a}; the
    Riemann-sum error is O(grid step), dominated by Monte Carlo noise.
    Returns (graph estimate, range estimate) with fitted log-log slopes and
    the theoretical exponents of the matching case.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    if ensemble < 200:
        raise EnsembleTooSmall(f"sojourn Monte Carlo needs >= 200 paths, got {ensemble}")
    lo, hi = 2.0 ** (-n / 2.0), 0.5
    if radii[0] < lo - 1e-12 or radii[-1] > hi + 1e-12:
        raise RadiiOutOfRange(
            f"radii must lie in [2^(-n/2), 0.5] = [{lo:.4g}, {hi:.4g}]"
        )
    if not 0.0 < horizon <= 1.0:
        raise ValueError("horizon must lie in (0, 1]")
    dec = spec.decomposition
    case, exp_graph, exp_range = classify_sojourn_case(dec.alphas, dec.block_dims)

    dt = 2.0 ** (-n)
    r2 = radii**2
    sums = {"graph": np.zeros(radii.size), "range": np.zeros(radii.size)}
    sqsums = {"graph": np.zeros(radii.size), "range": np.zeros(radii.size)}
    for i in range(ensemble):
        path = simulate_path(
            spec, laws, n, seed, name=f"{name}/path/{i}"
        )
        keep = path.times < horizon
        x2 = np.sum(path.values[keep] ** 2, axis=1)
        for target, norms in (("graph", x2 + path.times[keep] ** 2), ("range", x2)):
            t_a = dt * np.array([np.count_nonzero(norms <= a2) for a2 in r2])
            sums[target] += t_a
            sqsums[target] += t_a**2
    out = []
    for target, theory in (("graph", exp_graph), ("range", exp_range)):
        means = sums[target] / ensemble
        var = np.maximum(sqsums[target] / ensemble - means**2, 0.0)
        stderrs = np.sqrt(var / ensemble)
        fit = fit_loglog(radii, means)
        out.append(
            SojournEstimate(
                target=target,
                radii=radii,
                horizon=horizon,
                means=means,
                stderrs=stderrs,
                fit=fit,
                case=case,
                theory_exponent=theory,
            )
        )
    return out[0], out[1]


@dataclass(frozen=True)
class EnergyEstimate(Record):
    """Ratio-test capacity estimate from empirical Riesz energies.

    Energies are truncated to near pairs (d <= r_cut): the far-pair part of
    the Frostman integral is bounded for every gamma, so divergence lives
    entirely in the near part, and dropping the bulk keeps it from masking
    the growth signal.  The energy at exponent gamma is deemed finite when
    enlarging the subsample by ``ratio`` changes the truncated log-energy by
    less than the threshold; the small-sample reference is the median over
    the disjoint small blocks of the large sample, which is robust to a
    single ultra-close pair landing in one block.
    """

    gammas: np.ndarray
    log_energy_small: np.ndarray
    log_energy_large: np.ndarray
    stable: np.ndarray
    estimate: float
    sizes: tuple[int, int]
    r_cut: tuple[float, float]


def _near_pair_energies(
    points: np.ndarray, gammas: np.ndarray, r_cut: float
) -> np.ndarray:
    """(1/n^2) sum over ordered pairs i != j with ||P_i - P_j|| <= r_cut of ||.||^-gamma.

    Column 0 is time.  With the points sorted by time, the partners j > i of
    a block of rows lie at t <= t_last + r_cut; a KD-tree over that window
    finds the near pairs, so the cost follows the near pairs rather than
    n^2, and the block length bounds the memory they take.  The radius test
    is the exact squared-distance one, d^2 <= r_cut^2.
    """
    n = points.shape[0]
    points = points[np.argsort(points[:, 0], kind="stable")]
    times = points[:, 0]
    r2 = r_cut * r_cut
    reach = r_cut * (1.0 + 1e-9)  # candidates only; the d^2 test decides
    sums = np.zeros(gammas.size)
    for start in range(0, n, _ENERGY_BLOCK):
        stop = min(start + _ENERGY_BLOCK, n)
        end = int(np.searchsorted(times, times[stop - 1] + reach, side="right"))
        block = cKDTree(points[start:stop])
        window = cKDTree(points[start:end])
        pairs = block.sparse_distance_matrix(window, reach, output_type="ndarray")
        i = pairs["i"] + start
        j = pairs["j"] + start
        keep = j > i
        i, j = i[keep], j[keep]
        d2 = np.sum((points[i] - points[j]) ** 2, axis=1)
        if np.any(d2 == 0.0):
            raise DegenerateSample("duplicate points in the energy subsample")
        log_d = 0.5 * np.log(d2[d2 <= r2])
        for g, gamma in enumerate(gammas):
            sums[g] += np.sum(np.exp(-gamma * log_d))
    return 2.0 * sums / n**2


def _energy_candidates(
    path: LevyPath, borel: BorelSetSpec, cover_level, n_needed: int
) -> np.ndarray:
    """Grid indices carrying the natural measure of B, one per structural cell.

    On intervals every covered grid point qualifies.  On a self-similar set
    the candidates are thinned to one grid point per piece at the shallowest
    level holding >= n_needed pieces (masking at that same level), so
    subsample spacings stay inside the set's self-similar scaling window
    instead of probing the interval-like remnant below the cover resolution.
    """
    if borel.kind is not SetKind.SELF_SIMILAR_CANTOR:
        idx = np.flatnonzero(borel.mask(path.times, cover_level))
        if idx.size == 0:
            raise EmptyRestriction("no grid point falls inside the time set")
        return idx
    level = math.ceil(math.log(n_needed) / math.log(borel.m))
    piece = borel.r**level
    if piece < path.grid_step:
        raise DegenerateSample(
            f"grid too coarse to thin {n_needed} samples to level-{level} pieces; "
            "raise the grid depth or lower subsample * ratio"
        )
    idx = np.flatnonzero(borel.mask(path.times, level))
    if idx.size == 0:
        raise EmptyRestriction("no grid point falls inside the time set")
    cell = np.floor(path.times[idx] / piece).astype(np.int64)
    _, first = np.unique(cell, return_index=True)
    return idx[first]


def energy_dimension(
    path: LevyPath,
    borel: BorelSetSpec,
    gammas,
    subsample: int,
    seed: int,
    ratio: int = 8,
    cover_level: int | None = None,
) -> EnergyEstimate:
    """Capacity (Frostman) lower-bound estimate of the graph dimension on B.

    Subsamples graph points over the grid points of B carrying its natural
    measure at sizes ``subsample`` and ``ratio * subsample`` by even
    decimation, computes near-pair energies over a gamma grid, and returns
    the largest gamma at which the energy is stable from below between the
    two resolutions.
    """
    gammas = np.sort(np.asarray(gammas, dtype=float))
    if subsample < 10**3:
        raise DegenerateSample("energy estimate needs a subsample of >= 1e3 points")
    candidates = _energy_candidates(path, borel, cover_level, ratio * subsample)
    n_blocks = min(ratio, candidates.size // subsample)
    if n_blocks < 2:
        raise DegenerateSample(
            f"time set holds only {candidates.size} usable grid points; "
            f"need >= {2 * subsample}"
        )
    n_large = n_blocks * subsample
    # Evenly decimate the candidates so the large selection genuinely refines
    # the small ones: random subsets of one fixed grid share the same pair
    # distribution at every size and cannot reveal divergence.  The small
    # reference blocks interleave the large selection, giving n_blocks
    # disjoint copies at n_blocks-fold coarser resolution.
    stride = candidates.size // n_large
    rng = derive_rng(seed, "energy/subsample")
    slack = candidates.size - 1 - stride * (n_large - 1)
    offset = int(rng.integers(0, slack + 1)) if slack > 0 else 0
    chosen = candidates[offset + stride * np.arange(n_large)]
    graph = path.graph_points()

    # Truncation radii scale with each selection's own resolution: a fixed
    # multiple of the median consecutive-point distance.  Using the same
    # multiple at both resolutions makes the lattice-discreteness corrections
    # of the truncated sums cancel between the two sizes.
    def _radius(selection: np.ndarray) -> float:
        steps = np.linalg.norm(np.diff(graph[selection], axis=0), axis=1)
        if np.any(steps == 0.0):
            raise DegenerateSample("duplicate points in the energy subsample")
        return RADIUS_FACTOR * float(np.quantile(steps, RADIUS_QUANTILE))

    r_small = _radius(chosen[0::n_blocks])
    r_large = _radius(chosen)

    block_energies = np.array(
        [
            _near_pair_energies(graph[chosen[b::n_blocks]], gammas, r_small)
            for b in range(n_blocks)
        ]
    )
    e_small = np.median(block_energies, axis=0)
    e_large = _near_pair_energies(graph[chosen], gammas, r_large)
    if np.any(e_small <= 0.0) or np.any(e_large <= 0.0):
        raise DegenerateSample("no pairs below the truncation radius")
    log_small = np.log(e_small)
    log_large = np.log(e_large)
    # One-sided: refining the resolution can only certify divergence through
    # GROWTH; a shrinking energy is evidence of finiteness, not instability.
    stable = (log_large - log_small) < ENERGY_THRESHOLD
    estimate = 0.0
    for g in range(gammas.size):
        if not stable[g]:
            break
        estimate = float(gammas[g])
    return EnergyEstimate(
        gammas=gammas,
        log_energy_small=log_small,
        log_energy_large=log_large,
        stable=stable,
        estimate=estimate,
        sizes=(subsample, n_large),
        r_cut=(r_small, r_large),
    )
