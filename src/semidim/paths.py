"""Sample paths of semistable and operator semistable processes.

A path is simulated block by block in the spectral basis and embedded back
through the change of basis; the blocks are independent, so the discrete
scaling of the full process follows from the per-block scalings.

Block dispatch:

* 1-d blocks take symmetric stable or discrete semistable increments;
* 2-d rotation-form blocks (a*I + b*J) take isotropic stable increments,
  whose rotation invariance makes t^{E_j}'s rotation factor distributionally
  invisible;
* blocks with purely real spectrum and alpha = 2 (in particular defective
  Jordan blocks) are simulated as Gaussian processes with independent
  increments and covariance C(t) = 2 scale^2 * int_0^t s^G s^{G^T} ds,
  G = E_j - I/2, which reproduces the marginal scaling X(ct) =d c^{E_j} X(t)
  exactly.  For G != 0 the increments are not stationary: no Levy process
  carries a full Gaussian law on a defective block, so this construction
  trades stationarity for the correct marginals.

Paths and marginals share one draw per block, :func:`_block_increments`:
independent draws of X_j(t_i) - X_j(t_i - step_i), one row per time.  A path
passes the steps between the grid rows it holds (on a time set B, one per
kept step and per gap of B's mask), and a marginal X(t) is the increment
over [0, t].  A path holds its values and no times: row k of the grid lies
at k 2^-n, and whoever needs the times of a path's rows forms them from the
row indices a chunk at a time (:class:`RowTimes`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .codec import Record
from .errors import BlockLawMismatch, BudgetExceeded, DegenerateSample, EmptyRestriction, EnsembleTooSmall
from . import laws as _laws
from .laws import BlockLaw, LawKind, PathBuffers, chunks
from .seeds import derive_rng
from .spectral import ExponentSpec, SpectralBlock, scaling_operator

ALPHA_MATCH_TOL = 1e-9
# Entry tolerance of the rotation-form test and imaginary-part tolerance of
# the real-spectrum test on a block matrix.
_BLOCK_FORM_TOL = 1e-9
# Ensemble size and smallest singular-value ratio of the fullness check.
FULLNESS_ENSEMBLE = 500
FULLNESS_TOL = 1e-3
# Slack on the 5% two-sample KS critical value, absorbing small-jump
# truncation bias in the semi-selfsimilarity test.
KS_THRESHOLD_SLACK = 1.5
# Values a row that a semistable block's draw holds beside the slot 0, at
# most: a rare run's jumps (up to 3 a row, about 3 values each) and, with a
# step per row, the steps' ratios, their running sum and a sum of the jumps.
SEMISTABLE_DRAW = 12


@dataclass(frozen=True)
class RowTimes:
    """The times k 2^-n of ``size`` rows of the dyadic grid of depth ``n``,
    formed from their row indices a chunk at a time instead of held: entry
    i is row ``rows[i]``, or row i when ``rows`` is None.  k 2^-n is exact
    for k < 2^53, so a chunk's times are those of :func:`grid_times`."""

    n: int
    size: int
    rows: np.ndarray | None = None

    @property
    def step(self) -> float:
        return 2.0 ** (-self.n)

    def indices(self, start: int, stop: int) -> np.ndarray:
        """The grid rows k of entries start .. stop - 1."""
        return np.arange(start, stop) if self.rows is None else self.rows[start:stop]

    def chunk(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """The times of entries start .. stop - 1, on ``out`` when given."""
        return np.multiply(self.indices(start, stop), self.step, out=out)

    def take(self, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The times of the entries ``index``, on ``out`` when given."""
        return np.multiply(index if self.rows is None else self.rows[index], self.step, out=out)


@dataclass(frozen=True)
class LevyPath:
    """A trajectory on rows of the dyadic grid t_k = k * 2^-n, starting at 0
    at t = 0: the values at the rows held, and which rows those are.  The
    times are not held; :attr:`row_times` forms them a chunk at a time."""

    values: np.ndarray  # (N, d)
    seed: int
    n: int
    spec: ExponentSpec
    laws: tuple[BlockLaw, ...]
    rows: np.ndarray | None = None  # the grid rows k held, ascending; None for all 2^n + 1

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def grid_step(self) -> float:
        return 2.0 ** (-self.n)

    @property
    def row_times(self) -> RowTimes:
        """The time column of the rows held, formed a chunk at a time."""
        return RowTimes(self.n, self.values.shape[0], self.rows)

    @property
    def times(self) -> np.ndarray:
        """(N,) the grid times of the rows held, formed afresh on each access."""
        return self.row_times.chunk(0, self.values.shape[0])

    def graph_points(self) -> np.ndarray:
        """Z(t_k) = (t_k, X(t_k)) as an (N+1, d+1) array."""
        return np.column_stack([self.times, self.values])


def _is_rotation_form(m: np.ndarray) -> bool:
    """Whether ``m``, which must be 2x2, is a*I + b*J (a rotation-scaling)."""
    return abs(m[0, 0] - m[1, 1]) <= _BLOCK_FORM_TOL and abs(m[0, 1] + m[1, 0]) <= _BLOCK_FORM_TOL


def _has_real_spectrum(block: SpectralBlock) -> bool:
    eig = np.linalg.eigvals(block.matrix)
    return bool(np.max(np.abs(eig.imag)) <= _BLOCK_FORM_TOL)


def _is_gaussian_operator(block: SpectralBlock, law: BlockLaw, spec_c: float) -> bool:
    """Whether (block, law) is simulated as a Gaussian-operator block rather
    than by its law's increments; raise when there is no simulator for it."""
    if abs(law.alpha - block.alpha) > ALPHA_MATCH_TOL:
        raise BlockLawMismatch(
            f"law alpha {law.alpha} does not match block alpha {block.alpha:.12g}"
        )
    if law.kind is LawKind.SEMISTABLE_DISCRETE:
        if block.d != 1:
            raise BlockLawMismatch("SEMISTABLE_DISCRETE only applies to 1-d blocks")
        if abs(law.c - spec_c) > 1e-9:
            raise BlockLawMismatch(
                f"semistable law c={law.c} must equal the exponent's c={spec_c}"
            )
        return False
    if law.kind is LawKind.STABLE_ISOTROPIC_2D:
        if block.d != 2 or not _is_rotation_form(block.matrix):
            raise BlockLawMismatch(
                "STABLE_ISOTROPIC_2D requires a 2-d rotation-form block a*I + b*J"
            )
        return False
    # STABLE_SYMMETRIC
    if block.d == 1 or (law.alpha == 2.0 and _has_real_spectrum(block)):
        return block.d > 1
    raise BlockLawMismatch(
        f"no simulator for a {block.d}-d block with law {law.kind.value} "
        f"at alpha={law.alpha}; multi-dimensional non-rotation blocks are "
        "supported only as Gaussian (alpha=2) with real spectrum"
    )


def _block_laws(spec: ExponentSpec, laws) -> tuple[tuple[BlockLaw, ...], list]:
    """The laws as a tuple and, per spectral block, (block, law, gaussian)."""
    dec = spec.decomposition
    laws = tuple(laws)
    if len(laws) != dec.p:
        raise BlockLawMismatch(f"need {dec.p} block laws, got {len(laws)}")
    return laws, [(b, l, _is_gaussian_operator(b, l, spec.c)) for b, l in zip(dec.blocks, laws)]


def _nilpotent_power_series(g: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """t^G for nilpotent G, for every t at once; shape (len(t), d, d)."""
    d = g.shape[0]
    out = np.broadcast_to(np.eye(d), (log_t.size, d, d)).copy()
    term = np.eye(d)
    for k in range(1, d):
        term = term @ g / k
        if not np.any(term):
            break
        out += log_t[:, None, None] ** k * term
    return out


def _covariance_unit(g: np.ndarray) -> np.ndarray:
    """C1 = int_0^1 s^G s^{G^T} ds for nilpotent G, in closed form.

    With s = e^-x the entries reduce to int_0^inf e^-x x^(k+l) dx = (k+l)!.
    """
    d = g.shape[0]
    powers = [np.eye(d)]
    for k in range(1, d):
        powers.append(powers[-1] @ g)
    c1 = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            coeff = (-1.0) ** (k + l) * math.factorial(k + l) / (
                math.factorial(k) * math.factorial(l)
            )
            c1 += coeff * powers[k] @ powers[l].T
    return c1


def _gaussian_covariance(block: SpectralBlock, law: BlockLaw, t: np.ndarray) -> np.ndarray:
    """C(t) = 2 scale^2 int_0^t s^G s^{G^T} ds = t * t^G C1 t^{G^T} for each
    t > 0, G = E_j - I/2; shape (len(t), d, d)."""
    g = block.matrix - 0.5 * np.eye(block.d)
    c1 = _covariance_unit(g) * 2.0 * law.scale**2
    m_t = _nilpotent_power_series(g, np.log(t))
    return t[:, None, None] * np.einsum("kij,jl,kml->kim", m_t, c1, m_t)


def _gaussian_factors(block: SpectralBlock, law: BlockLaw, t: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Cholesky factors of C(t_i) - C(t_i - step_i), C(0) = 0, one per row of
    the equal-length ``t`` and ``step``; shape (len(t), d, d)."""
    cov = _gaussian_covariance(block, law, t)
    before = t - step
    later = before > 0
    cov[later] -= _gaussian_covariance(block, law, before[later])
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    cov += 1e-14 * np.trace(cov, axis1=1, axis2=2)[:, None, None] * np.eye(block.d)
    return np.linalg.cholesky(cov)


def _block_increments(
    block: SpectralBlock,
    law: BlockLaw,
    gaussian: bool,
    times,
    steps,
    size: int,
    rng: np.random.Generator,
    buffers: PathBuffers,
) -> np.ndarray:
    """``size`` independent draws of X_j(t_i) - X_j(t_i - step_i), one row per
    time, shape (size, block.d), on the slot 0 of ``buffers``, with
    0 < step_i <= t_i.  ``times`` is one value, with one value of ``steps``,
    or a function of (start, stop) that forms the times of rows start ..
    stop - 1; ``steps`` is one value or one per row.  A Levy block draws
    X(step_i), by stationary independent increments; the Gaussian-operator
    block draws N(0, C(t_i) - C(t_i - step_i)), C(0) = 0, a chunk of rows at
    a time (8 d^2 values a row), in the order of one (size, d) draw of the
    normals.
    """
    if not gaussian:
        inc = law.sample_increments(steps, size, rng, _buffers=buffers)
        return inc[:, None] if inc.ndim == 1 else inc
    d = block.d
    out = buffers.take(0, (size, d))
    for start, stop in chunks(size, 8 * d * d):
        if callable(times):
            step = steps[start:stop] if np.ndim(steps) else steps
            chol = _gaussian_factors(block, law, times(start, stop), step)
        elif start == 0:
            chol = _gaussian_factors(block, law, np.atleast_1d(times), steps)
        normals = rng.standard_normal(out=buffers.take(1, (stop - start, d)))
        np.einsum("kij,kj->ki", np.broadcast_to(chol, (stop - start, d, d)), normals, out=out[start:stop])
    return out


def grid_times(n: int) -> np.ndarray:
    """The dyadic grid k 2^-n, k = 0 .. 2^n, that every path of depth n lies on."""
    return np.arange(2**n + 1, dtype=float) * 2.0 ** (-n)


def check_memory(floats: int, what: str) -> None:
    """Reject, before anything is allocated, ``floats`` float64 values that
    would not fit in physical memory; ``what`` names them in the error."""
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * floats > available:
        raise BudgetExceeded(
            f"{what} needs more than the {available / 2**30:.3g} GiB of physical memory"
        )


def check_grid(n: int, d: int, laws=(), workers: int = 1) -> None:
    """Reject a negative depth or a grid of depth n in d dimensions that would
    not fit in physical memory: what a path drawn by ``laws`` and its box
    count hold, in values a row: values (d), the rows and the steps of a
    restricted path (1 each), the slot 0 of its :class:`PathBuffers`,
    which holds a block's increments (at most d) and then the box kernel's
    keys of the graph and the range (2), and ``SEMISTABLE_DRAW`` beside it
    when a law is semistable; and 8 ``laws.CHUNK`` values beside them, the
    most that the chunked passes over a path hold at once.  ``workers``
    paths, each with its own buffers, are held at once."""
    if n < 0:
        raise ValueError("grid depth must be nonnegative")
    draw = SEMISTABLE_DRAW if any(law.kind is LawKind.SEMISTABLE_DISCRETE for law in laws) else 0
    # beyond 2^64 points no memory suffices, so 2^n is never formed for a huge n
    one = (2 ** min(n, 64) + 1) * (2 + d + max(d, 2) + draw) + 8 * _laws.CHUNK
    what = f"a grid of depth n={n} in d={d}" if workers == 1 else f"{workers} workers' paths on a grid of depth n={n} in d={d}"
    check_memory(workers * one, what)


def _embed(out: np.ndarray, block_values: np.ndarray, basis: np.ndarray, buffers: PathBuffers) -> None:
    """out += block_values @ basis.T, one column multiply-add at a time (off
    BLAS, whose threads cost more than they save on so thin a product), a
    chunk of rows at a time, each product on the slot 1 of ``buffers``.
    An entry of 1 adds its column as it is, and an entry of 0 adds nothing:
    ``out`` starts at +0 and, in round-to-nearest, no sum of the products
    makes it -0, so a +-0 addend changes no value.  Where such a skipped
    product would be NaN, its row holds a non-finite value in another column,
    as every block column has a nonzero entry, so the path is still rejected.
    """
    for start, stop in chunks(out.shape[0]):
        rows, values = out[start:stop], block_values[start:stop]
        product = buffers.take(1, (stop - start,))
        for i in range(basis.shape[0]):
            for k in range(basis.shape[1]):
                if basis[i, k] == 1.0:
                    rows[:, i] += values[:, k]
                elif basis[i, k] != 0.0:
                    rows[:, i] += np.multiply(values[:, k], basis[i, k], out=product)


def _kept_rows(n: int, mask: np.ndarray | None, buffers: PathBuffers) -> tuple:
    """(rows, steps) of a path on the grid rows of depth n that ``mask``
    keeps: the rows ascending and the steps between them, on the slot
    "steps" of ``buffers``, or (None, 2^-n) when ``mask`` is None or keeps
    every row.  Neither is written by a draw, so the paths of one mask can
    share them."""
    dt = 2.0 ** (-n)
    if mask is not None and mask.shape != (2**n + 1,):
        raise ValueError(f"mask must hold 2^n + 1 = {2**n + 1} rows, got shape {mask.shape}")
    if mask is None or mask.all():
        return None, dt
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise EmptyRestriction("no grid point falls inside the time set")
    first = int(rows[0] == 0)
    # the gaps between held rows, and row k itself before a first row k > 0
    steps = buffers.take("steps", (rows.size - first,))
    np.subtract(rows[1:], rows[:-1], out=steps[1 - first :])
    steps[:1 - first] = rows[:1 - first]
    steps *= dt
    return rows, steps


def simulate_path(
    spec: ExponentSpec,
    laws,
    n: int,
    seed: int,
    name: str = "path",
    mask: np.ndarray | None = None,
    _buffers: PathBuffers | None = None,
    _kept: tuple | None = None,
) -> LevyPath:
    """Simulate a path on the dyadic grid of depth n over [0, 1].

    One BlockLaw per spectral block, ordered by ascending a_j.  Fully
    deterministic given (spec, laws, n, seed, name, mask); block streams are
    derived independently so the output does not depend on evaluation order.

    ``mask`` (2^n + 1 booleans) restricts the path to the grid rows it keeps.
    Each block then draws one increment per step between consecutive kept
    rows, and one over [0, t] for a first kept time t > 0, all in one
    :func:`_block_increments` call.  A mask that keeps every row draws
    exactly the path of ``mask=None``, whose steps are the one grid step.
    Raises BudgetExceeded, before allocating, when the grid would not fit
    in physical memory.

    The path is drawn on the slots of ``_buffers`` (see
    :class:`PathBuffers`), and its values are the slot "values": valid
    until the next path drawn on the same buffers.  Without ``_buffers``
    every array is fresh, and the path is the caller's.  ``_kept``, the
    :func:`_kept_rows` of ``mask``, spares the paths of one mask forming
    them each.
    """
    laws, blocks = _block_laws(spec, laws)
    check_grid(n, spec.d, laws)
    buffers = PathBuffers() if _buffers is None else _buffers
    rows, steps = _kept_rows(n, mask, buffers) if _kept is None else _kept
    # ``first`` rows, 1 when row 0 (where every path is 0) is held, come
    # before the first step
    first, held = (1, 2**n + 1) if rows is None else (int(rows[0] == 0), rows.size)
    size = held - first
    row_times = RowTimes(n, held, rows)

    def times(start: int, stop: int) -> np.ndarray:  # increment i ends at held row first + i
        return row_times.chunk(first + start, first + stop)

    values = buffers.take("values", (spec.d, held)).T
    values.fill(0.0)
    # Near alpha = 0 the increments can overflow float64; such a path is
    # rejected as a whole below instead of warning sample by sample.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, (block, law, gaussian) in enumerate(blocks):
            rng = derive_rng(seed, f"{name}/block/{j}")
            inc = _block_increments(block, law, gaussian, times, steps, size, rng, buffers)
            # values[first:] += cumsum(inc) @ basis.T, a chunk of rows at a
            # time, the chunk's sum carried on from the last row before it
            # (the bits of one whole cumsum); row 0, when held, is X(0) = 0
            for start, stop in chunks(size):
                part = inc[start:stop]
                if start:
                    part[0] += inc[start - 1]
                np.cumsum(part, axis=0, out=part)
                _embed(values[first + start : first + stop], part, block.basis, buffers)
        # a NaN or an infinity makes the minimum or the maximum one
        finite = np.isfinite(values.min()) and np.isfinite(values.max())
    if not finite:
        raise DegenerateSample(f"path {name!r} leaves the float64 range")
    return LevyPath(values=values, seed=seed, n=n, spec=spec, laws=laws, rows=rows)


def sample_marginal(
    spec: ExponentSpec,
    laws,
    t,
    size: int,
    seed: int,
    name: str = "marginal",
) -> np.ndarray:
    """Independent draws of X(t), shape (size, d), for one time ``t`` or one
    time per row (shape (size,)): each row is the increment over [0, t], drawn
    by :func:`_block_increments` with step = t on one stream per block."""
    if np.shape(t) not in ((), (size,)):
        raise ValueError(f"need one time or {size} times, got shape {np.shape(t)}")
    if not np.all(np.asarray(t) > 0):  # NaN fails too
        raise ValueError("time must be positive")
    _, blocks = _block_laws(spec, laws)
    out = np.zeros((size, spec.d))
    buffers = PathBuffers()
    per_row = np.asarray(t, dtype=float)
    times = (lambda start, stop: per_row[start:stop]) if per_row.ndim else t
    # as in simulate_path: an overflowing sample rejects the whole draw
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j, (block, law, gaussian) in enumerate(blocks):
            rng = derive_rng(seed, f"{name}/block/{j}")
            inc = _block_increments(block, law, gaussian, times, t, size, rng, buffers)
            _embed(out, inc, block.basis, buffers)
    if not np.isfinite(out).all():
        raise DegenerateSample(f"marginal {name!r} leaves the float64 range")
    return out


def empirical_fullness(
    spec: ExponentSpec,
    laws,
    seed: int = 0,
) -> tuple[bool, float]:
    """Empirical fullness check: is the law of X(1) hyperplane-degenerate?

    Projects an ensemble of X(1) onto the unit sphere (heavy tails make raw
    covariances useless) and reports the smallest-to-largest singular value
    ratio of the direction cloud.  A ratio below ``FULLNESS_TOL`` flags the
    law as concentrating near a hyperplane, i.e. not full.
    """
    samples = sample_marginal(spec, laws, 1.0, FULLNESS_ENSEMBLE, seed, name="fullness")
    norms = np.linalg.norm(samples, axis=1)
    directions = samples[norms > 0] / norms[norms > 0, None]
    if directions.shape[0] < spec.d + 1:
        return False, 0.0
    sv = np.linalg.svd(directions, compute_uv=False)
    ratio = float(sv[-1] / sv[0])
    return ratio > FULLNESS_TOL, ratio


@dataclass(frozen=True)
class KSReport(Record):
    """Per-coordinate two-sample KS comparison of X(ct) against c^E X(t)."""

    statistics: tuple[float, ...]
    threshold: float
    passed: bool
    t: float
    c: float
    ensemble: int


def _ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic max |F_x - F_y| over the
    pooled sample, F_x and F_y the empirical CDFs: the counts of each sorted
    sample at or below each pooled value are two ``searchsorted`` calls, and
    their difference, in units of 1 / (len(x) len(y)), is exact in int64,
    so the statistic is one correctly rounded division."""
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    gap = np.searchsorted(x, pooled, side="right") * y.size - np.searchsorted(y, pooled, side="right") * x.size
    return float(np.abs(gap).max() / (x.size * y.size))


def semiselfsimilarity_test(
    spec: ExponentSpec,
    laws,
    t: float,
    ensemble: int,
    seed: int,
    perturb_a1: float = 0.0,
) -> KSReport:
    """Check the discrete scaling X(ct) =d c^E X(t) marginally at time t.

    Compares an ensemble of X(ct) with c^E applied to an independent
    ensemble of X(t), coordinate by coordinate.  The acceptance threshold is
    1.36 sqrt(2/n) (the 5% two-sample critical value) times
    ``KS_THRESHOLD_SLACK``.
    ``perturb_a1`` shifts the leading diagonal block's real part, providing
    the negative control: a wrong operator must push the statistic over the
    threshold.  Raises BudgetExceeded, before sampling, when the two
    ensembles would not fit in physical memory.
    """
    if ensemble < 10**4:
        raise EnsembleTooSmall(f"semi-selfsimilarity test needs >= 1e4 samples, got {ensemble}")
    check_memory(2 * ensemble * spec.d, f"two ensembles of {ensemble} points in d={spec.d}")
    c = spec.c
    if not (0.0 < t and c * t <= 1.0):
        raise ValueError("need 0 < t and c*t <= 1 (inside the horizon)")
    x_t = sample_marginal(spec, laws, t, ensemble, seed, name="ks/base")
    x_ct = sample_marginal(spec, laws, c * t, ensemble, seed, name="ks/scaled")
    operator = spec.matrix
    if perturb_a1:
        operator = operator + perturb_a1 * spec.decomposition.projector(0)
    mapped = x_t @ scaling_operator(operator, c).T
    stats = tuple(_ks_statistic(x_ct[:, i], mapped[:, i]) for i in range(spec.d))
    threshold = 1.36 * math.sqrt(2.0 / ensemble) * KS_THRESHOLD_SLACK
    return KSReport(
        statistics=stats,
        threshold=threshold,
        passed=all(s < threshold for s in stats),
        t=t,
        c=c,
        ensemble=ensemble,
    )
