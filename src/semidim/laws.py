"""Increment samplers for the block laws of the path simulator.

Three families are supported, one per admissible spectral block shape:

* symmetric alpha-stable on R (Chambers-Mallows-Stuck), exact for all
  alpha in (0, 2]; alpha = 2 gives a centered Gaussian of variance
  2 * scale**2 under the standard stable scale convention
  E exp(i theta X) = exp(-(scale * |theta|)**alpha);
* isotropic alpha-stable on R^2 via the sub-Gaussian representation
  sqrt(A) * N(0, 2 * scale**2 * I), A one-sided (alpha/2)-stable (Weron
  1996), the normal pair a tangent Box-Muller pair folded into sqrt(A);
  both draw through one CMS kernel, :func:`_cms`, of tangents only, in place
  on the sampler's own output, the isotropic A before its pairs;
* a discrete semistable family with Levy-measure atoms at +-c^(k/alpha)
  of mass c^(-k), k in Z, simulated as compound Poisson above a truncation
  level k_min with Gaussian compensation of the removed small jumps
  (:func:`sample_semistable_increment`).

The discrete family scales only along the geometric sequence c^k, which is
what distinguishes semistable from stable paths: X(c*dt) matches
c^(1/alpha) * X(dt) in distribution, while intermediate scale factors do not.

Every sampler draws a required int ``size`` of variates of one law, shape
(size,) or (size, 2), at one finite positive scale, scaled one by one only
through their time steps (the stable ``_steps``, the semistable ``dt``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .codec import Record
from .errors import AlphaOutOfRange, BudgetExceeded, DegenerateSample, TruncationTooCoarse

DEFAULT_K_MIN = -25
# Neglected-tail probability budget used to pick the largest simulated atom.
_ATOM_TAIL_BUDGET = 1e-12
# Most atoms one draw walks: a deeper truncation, or a c nearer 1, is rejected
# before the atom arrays are built.  Each frequent atom costs one table
# inversion or two Poisson draws of n variates.
_MAX_ATOMS = 10**5
# The rare atoms are drawn together in runs cut where their running total
# intensity passes a multiple of this, so that one draw holds about 2n jumps;
# with c >= 2 the rare intensities sum to less than 2 and make one run.
_RARE_RUN = 2.0
# Most entries that the table of a group of frequent atoms holds, and no more
# than the draw size n (see _step_plan): about 48 bytes an entry for its
# values, CDF and guide, so at most 1.5 MiB a group.
_GROUP_ENTRIES = 2**15
# Relative slack of a guide-table bucket's ends, far above the few ulps by
# which u / w can round across one (see _invert).
_GUIDE_SLACK = 1e-12
# Scratch values that one chunked pass over a path's rows holds at once: a
# pass whose scratch takes ``width`` values a row takes max(CHUNK // width, 1)
# rows a chunk (:func:`chunks`).  Every pass reads it here, at call time.
CHUNK = 2**16
# Largest Poisson mean numpy draws: the int64 maximum less ten of its square roots.
_LOG_POISSON_MAX = math.log(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))


def _check_alpha(alpha: float, upper_inclusive: bool = True) -> None:
    ok = 0.0 < alpha <= 2.0 if upper_inclusive else 0.0 < alpha < 2.0
    if not ok:
        bound = "(0, 2]" if upper_inclusive else "(0, 2)"
        raise AlphaOutOfRange(f"alpha must be in {bound}, got {alpha}")


def _check_steps(dt, n: int) -> None:
    """Raise ValueError unless dt is one step, or one per sample of n, each
    positive and finite."""
    if np.ndim(dt) and np.shape(dt) != (n,):
        raise ValueError(f"need one time step or {n}, got shape {np.shape(dt)}")
    if not (np.min(dt) > 0 and np.max(dt) < math.inf):  # a NaN minimum or maximum fails too
        raise ValueError(f"time step must be positive and finite, got {dt}")


def _check_scale(scale: float) -> None:
    """Raise ValueError unless ``scale`` is positive and finite."""
    if not 0.0 < scale < math.inf:  # a NaN fails too
        raise ValueError(f"scale must be finite and positive, got {scale}")


class PathBuffers:
    """Float64 arrays that one worker reuses from path to path, one per
    named slot, so that a path's draws, sums and keys land in memory that
    is already paged in.  :meth:`take` returns an uninitialised array on a
    slot's storage (int64 and bool scratch are views), grown when too
    small; it stays valid until the slot is taken again.

    "values" holds the path, "steps" a restricted path's steps, the slot 0
    a value or more a row in turn (increments, box keys, energy scratch),
    and the slot 1 each pass's chunk scratch, then the energy subsample's
    columns.  Chunks are sized in values, not rows, because the slot 1 must
    hold every pass's chunk and then those columns within ``CHUNK`` and a
    grain.  :func:`semidim.paths.check_grid` budgets the slots.
    """

    def __init__(self):
        self._slots: dict = {}

    def take(self, slot, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        store = self._slots.get(slot)
        if store is None or store.size < size:
            # the old storage goes before the new is made, so that growing a
            # slot never holds both; it grows to the next multiple of the
            # grain CHUNK // 8, so that a path's N - 1 rows of increments and
            # then N rows of box keys take it once
            grain = max(CHUNK // 8, 1)
            store = self._slots[slot] = None
            store = self._slots[slot] = np.empty((size // grain + 1) * grain)
        return store[:size].reshape(shape)


def chunks(size: int, width: int = 1):
    """Yield (start, stop) over ``size`` rows, max(CHUNK // width, 1) rows at
    a time: the chunks of a pass whose scratch takes ``width`` values a row."""
    rows = max(CHUNK // width, 1)
    for start in range(0, size, rows):
        yield start, min(start + rows, size)


def _cms(rng, size: int, alpha: float, shift: float, buffers: PathBuffers, out: np.ndarray) -> None:
    """Form the ``size`` CMS variates in place on the flat ``out``, a chunk
    at a time: x = sin(alpha (u + shift)) / cos(u)^(1/alpha)
    * (cos((1 - alpha) u - alpha shift) / w)^((1 - alpha)/alpha) for
    u ~ U(-pi/2, pi/2) and w ~ Exp(1), every sine and cosine taken from
    ``np.tan`` (SIMD where numpy's float64 sin and cos are scalar) by
    identities that hold at shifts 0 and pi/2.

    The uniforms are all drawn onto ``out``, then the exponentials a chunk
    at a time onto three scratch rows of the slot 1 of ``buffers``.
    """
    v_buf, t_buf, s_buf = buffers.take(1, (3, min(size, CHUNK // 4)))
    rng.random(out=out)
    for start, stop in chunks(size, 4):
        k = stop - start
        u, v, t, s = out[start:stop], v_buf[:k], t_buf[:k], s_buf[:k]
        u *= math.pi
        u += -math.pi / 2
        rng.standard_exponential(out=v)
        # (cos(phi) / w)^((1 - alpha)/alpha) = (w sqrt(1 + tan(phi)^2))^((alpha - 1)/alpha)
        np.multiply(u, 1.0 - alpha, out=t)
        t -= alpha * shift
        np.tan(t, out=t)
        t *= t
        t += 1.0
        np.sqrt(t, out=t)
        v *= t
        v **= (alpha - 1.0) / alpha
        # 1 / cos(u)^(1/alpha) = (1 + tan(u)^2)^(1/(2 alpha))
        np.tan(u, out=t)
        t *= t
        t += 1.0
        t **= 0.5 / alpha
        # sin(theta) = 2 tau / (1 + tau^2), tau = tan(alpha (u + shift) / 2), which
        # multiplies v before t: near u = -pi/2 at shift pi/2, it tends to 0 as t overflows
        u += shift
        u *= 0.5 * alpha
        np.tan(u, out=u)
        np.multiply(u, u, out=s)
        s += 1.0
        u /= s
        u *= v
        u *= t
        u += u


def _chunk_scale(scale: float, steps, alpha: float, start: int, stop: int):
    """The scale of the variates start .. stop - 1 of a draw: ``scale``, or,
    with one step per variate in ``steps``, scale * step^(1/alpha), formed
    for these variates alone."""
    if steps is None:
        return scale
    factor = steps[start:stop] ** (1.0 / alpha)
    factor *= scale
    return factor


def sample_stable_increment(alpha: float, scale: float, rng: np.random.Generator, size: int, _buffers=None, _steps=None):
    """``size`` symmetric alpha-stable variates by the CMS construction, of
    shape (size,), at the one finite positive ``scale``.

    The single formula, :func:`_cms` at shift 0, is continuous in alpha and
    reduces to tan(U) at alpha = 1 and to 2 sin(U) sqrt(W) (exactly Gaussian,
    variance 2) at alpha = 2.  It is evaluated in place on the slot 0 of
    ``_buffers`` (a :class:`PathBuffers`; fresh arrays when None), then
    scaled in a pass of its own: variate i by ``scale``, or, given
    ``_steps``, one time step per variate, by ``scale * _steps[i] ** (1 / alpha)``.
    """
    _check_alpha(alpha)
    _check_scale(scale)
    buffers = PathBuffers() if _buffers is None else _buffers
    x = buffers.take(0, (size,))
    _cms(rng, size, alpha, 0.0, buffers, x)
    for start, stop in chunks(size, 4):
        x[start:stop] *= _chunk_scale(scale, _steps, alpha, start, stop)
    return x


def sample_one_sided_stable(gamma: float, rng: np.random.Generator, size: int, _buffers=None):
    """``size`` positive gamma-stable variates, shape (size,), with
    E exp(-lam*A) = exp(-lam**gamma): :func:`_cms` at shift pi/2, in place on
    the slot 0 of ``_buffers`` (fresh arrays when None)."""
    if not 0.0 < gamma < 1.0:
        raise AlphaOutOfRange(f"one-sided index must be in (0, 1), got {gamma}")
    buffers = PathBuffers() if _buffers is None else _buffers
    a = buffers.take(0, (size,))
    _cms(rng, size, gamma, math.pi / 2, buffers, a)
    return a


def sample_isotropic_stable_2d(alpha: float, scale: float, rng: np.random.Generator, size: int, _buffers=None, _steps=None):
    """``size`` isotropic alpha-stable vectors in R^2, of shape (size, 2), at
    the one finite positive ``scale``.

    E exp(i <theta, X>) = exp(-(scale * |theta|)**alpha); rotation invariant
    by construction.  ``_steps`` is as in :func:`sample_stable_increment`.
    X = sqrt(A) N(0, 2 scale^2 I), its normal pair a tangent Box-Muller pair
    (Box and Muller, Ann. Math. Statist. 29, 1958): X = r (1 - tau^2, 2 tau)
    / (1 + tau^2) with r = 2 scale sqrt(A W') and tau = tan(pi (U' - 1/2)).
    The N vectors are formed in place on the slot 0 of ``_buffers`` (fresh
    arrays when None): first the one-sided (alpha/2)-stable A of :func:`_cms`
    on its upper half (A = 1 at alpha = 2), then, a chunk at a time, the
    exponentials W' folded into A to form r there, and last, a chunk at a
    time, the uniforms U' on three scratch rows of the slot 1 and their
    pairs.  So the stream is N uniforms and N exponentials for A (neither at
    alpha = 2), then N exponentials W' and N uniforms U'.
    """
    _check_alpha(alpha)
    _check_scale(scale)
    buffers = PathBuffers() if _buffers is None else _buffers
    g = buffers.take(0, (size, 2))
    flat = g.reshape(-1)
    r = flat[size:]
    if alpha < 2.0:
        _cms(rng, size, alpha / 2.0, math.pi / 2, buffers, r)
    for start, stop in chunks(size, 4):
        part = r[start:stop]
        if alpha < 2.0:
            part *= rng.standard_exponential(out=flat[start:stop])
        else:
            rng.standard_exponential(out=part)
        np.sqrt(part, out=part)
        part *= _chunk_scale(scale, _steps, alpha, start, stop)
        part += part
    t_buf, s_buf, q_buf = buffers.take(1, (3, min(size, CHUNK // 4)))
    for start, stop in chunks(size, 4):
        k = stop - start
        t, s, q = t_buf[:k], s_buf[:k], q_buf[:k]
        rng.random(out=t)
        t -= 0.5
        t *= math.pi
        np.tan(t, out=t)
        np.multiply(t, t, out=s)
        np.add(s, 1.0, out=q)
        # the pairs on [2 start, 2 stop) may cover this r, not a later one: 2 stop <= size + stop
        np.divide(r[start:stop], q, out=q)
        np.subtract(1.0, s, out=s)
        t += t
        pair = flat[2 * start : 2 * stop].reshape(-1, 2)
        np.multiply(s, q, out=pair[:, 0])
        np.multiply(t, q, out=pair[:, 1])
    return g


def semistable_atom_range(c: float, dt: float, k_min: int, n_samples: int = 1):
    """Atom indices [k_min, k_max] and their Poisson intensities for one dt."""
    k_max = math.ceil(math.log(max(1, n_samples) * dt / _ATOM_TAIL_BUDGET) / math.log(c))
    k_max = max(k_max, k_min + 1)
    if k_max - k_min >= _MAX_ATOMS:
        raise BudgetExceeded(
            f"atoms k = {k_min} .. {k_max} number more than {_MAX_ATOMS}; raise k_min or c"
        )
    ks = np.arange(k_min, k_max + 1)
    lam = dt * np.power(float(c), -ks.astype(float))
    return ks, lam


def compensation_std(alpha: float, c: float, dt: float, k_min: int) -> float:
    """Std of the Gaussian replacing jumps below the truncation level.

    The truncated second moment sum_{k < k_min} c^{-k} (c^{k/alpha})^2 is a
    geometric series with ratio q = c^(2/alpha - 1) > 1.  Where q is beyond
    float64 (alpha near 0) the same sum is taken in log space.
    """
    log_q = (2.0 / alpha - 1.0) * math.log(c)
    if log_q > 700.0:
        return math.exp(0.5 * (math.log(dt) + (k_min - 1) * log_q - math.log(-math.expm1(-log_q))))
    q = c ** (2.0 / alpha - 1.0)
    return math.sqrt(dt * q**k_min / (q - 1.0))


def check_truncation(alpha: float, c: float, dt: float, k_min: int) -> None:
    """Raise TruncationTooCoarse when the compensation std at time step dt
    exceeds half the increment scale dt^(1/alpha), i.e. when k_min is too
    shallow for dt.  The test is solved for k_min in log space, so that no
    alpha, c, dt or k_min overflows."""
    log_q = (2.0 / alpha - 1.0) * math.log(c)
    log_dt = math.log(dt) if dt > 0.0 else -math.inf
    # log sigma^2 = log dt + k_min log q - log(q - 1) > 2 log(1/2) + (2/alpha) log dt
    limit = ((2.0 / alpha - 1.0) * log_dt + log_q + math.log(-math.expm1(-log_q)) - math.log(4.0)) / log_q
    if k_min > limit + 1e-9:  # a tie (sigma exactly at the bound) passes, as k_min is an int
        raise TruncationTooCoarse(
            f"k_min={k_min} is too shallow at time step {dt:.3e}: the compensation "
            f"std exceeds half the increment scale; lower k_min to at most {limit:.6g}"
        )


def check_poisson_mean(c: float, dt: float, k_min: int) -> None:
    """Raise BudgetExceeded when k_min is so deep that its atom's mean count
    dt c^(-k_min) / 2 passes the largest Poisson mean numpy draws (about
    9.2e18); solved for k_min in log space, so that nothing overflows."""
    if -k_min > (_LOG_POISSON_MAX + math.log(2.0) - math.log(dt)) / math.log(c):
        raise BudgetExceeded(
            f"k_min={k_min} is too deep at time step {dt:.3e}: the atom k = k_min "
            "fires more often than numpy's Poisson sampler can draw; raise k_min"
        )


def _net_count_pmf(mu: float, lo: int, hi: int) -> np.ndarray:
    """pmf of N+ - N- for independent N+, N- ~ Poisson(mu), each taken over
    the counts lo .. hi: entry i is P(N+ - N- = i - (hi - lo))."""
    # log p(k) - log p(lo) = sum of log(mu / j) for j = lo+1 .. k: the terms
    # are small, so the pmf keeps its relative precision after normalising
    log_p = np.concatenate(([0.0], np.cumsum(np.log(mu / np.arange(lo + 1, hi + 1)))))
    p = np.exp(log_p - log_p.max())
    p /= p.sum()
    return np.convolve(p, p[::-1])


def _trim(pmf: np.ndarray) -> np.ndarray:
    """``pmf`` less its ends, symmetric, whose CDF is below 1e-30."""
    cut = int(np.searchsorted(np.cumsum(pmf), 1e-30))
    return pmf[cut : pmf.size - cut]


def _lattice_sum(g: np.ndarray, p: np.ndarray, q: int) -> np.ndarray:
    """pmf of q X + Y for independent X ~ ``g`` and Y ~ ``p``, each a pmf on
    consecutive integers from 0: entry l is the sum of g[x] p[y] over
    q x + y = l.  Residue r of l mod q convolves g with p[r::q], so the sum
    takes g.size * p.size multiply-adds and no zero of a spread-out g."""
    out = np.zeros(q * (g.size - 1) + p.size)
    for r in range(min(q, p.size)):
        out[r::q][: g.size + (p.size - r - 1) // q] = np.convolve(g, p[r::q])
    return out


def _guide(cum: np.ndarray) -> np.ndarray:
    """Guide table of :func:`_invert` for the cumulative weights ``cum``."""
    edges, m = cum[:-1], 4 * cum.size
    ends = np.arange(m + 2) * (cum[-1] / m)
    first = np.searchsorted(edges, ends[:-1] * (1.0 - _GUIDE_SLACK), side="right")
    return np.where(first == np.searchsorted(edges, ends[1:] * (1.0 + _GUIDE_SLACK), side="right"), first, -1)


def _invert(cum: np.ndarray, u: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum[:-1], u, side="right")`` for 0 <= u <= cum[-1],
    bit for bit, by guide-table inversion (Chen & Asau, AIIE Trans. 6(2), 1974).

    [0, cum[-1]] is cut into m = 4 len(cum) buckets of width w, and u goes to
    bucket floor(u / w).  Each bucket's index range is read with a relative
    slack of ``_GUIDE_SLACK``, far above the rounding of u / w, so that the
    true index lies in it; a bucket that no edge falls in gives that index
    at once, and only the u in the others are searched.  ``guide`` is the
    table :func:`_guide` builds from ``cum``.
    """
    bucket = np.multiply(u, (guide.size - 1) / cum[-1], out=np.empty(u.shape, dtype=np.intp), casting="unsafe")
    index = guide[bucket]
    del bucket
    search = np.flatnonzero(index < 0)
    index[search] = np.searchsorted(cum[:-1], u[search], side="right")
    return index


class _Table(NamedTuple):
    """Values drawn by inverting one uniform on their cumulative weights
    ``cum``, through the guide table ``guide``."""

    values: np.ndarray
    cum: np.ndarray
    guide: np.ndarray


def _frozen_table(values: np.ndarray, cum: np.ndarray) -> _Table:
    """A :class:`_Table` of read-only arrays, safe to share between draws."""
    table = _Table(values, cum, _guide(cum))
    for array in table:
        array.flags.writeable = False
    return table


class _StepPlan(NamedTuple):
    """What a semistable draw of n samples at one longest step needs besides
    its variates: the rare atoms' runs (their heights on their cumulative
    intensities), the frequent atoms' groups from the largest heights down
    (a :class:`_Table` of a group's net jump sums, or the (height, mean) of
    an atom's two Poisson counts), and the compensation std."""

    rare: tuple
    groups: tuple
    sigma: float


@functools.lru_cache(maxsize=8)
def _step_plan(alpha: float, c: float, dt: float, k_min: int, n: int, tables: bool) -> _StepPlan:
    """The :class:`_StepPlan` of a draw of n samples whose longest step is
    dt, with CDF tables only when ``tables``; built once per argument tuple
    and shared, read-only, by every draw with those arguments.

    Where q = c^(1/alpha) is an integer, consecutive heights lie on the
    lattice of the smaller one, so the net jump sum of a run of table atoms
    is h l for the run's smallest height h and an integer l; its pmf is the
    :func:`_lattice_sum` of the atoms' net-count pmfs, and the run draws as
    one table.  Runs grow from the largest heights down while the joined
    table, before its trim, holds at most min(n, ``_GROUP_ENTRIES``)
    entries: the plan is built once and shared, so its build is not charged
    to a draw.  Any other atom is a group of one.  Every table,
    and a run after each join, drops the ends that no uniform reaches
    (:func:`_trim`).
    """
    ks, lam = semistable_atom_range(c, dt, k_min, n_samples=n)
    with np.errstate(over="ignore"):
        heights = np.power(c, ks.astype(float) / alpha)
        q = float(np.power(c, 1.0 / alpha))  # inf, not an integer, where it overflows
    if not np.isfinite(heights).all():
        raise DegenerateSample(f"atom height c^(k/alpha) at k = {ks[-1]} leaves the float64 range")
    # lam falls with k: atoms [0, frequent) fire at least once a sample on average
    frequent = int(np.count_nonzero(lam >= 1.0))
    rare_h, rare_lam = heights[frequent:][::-1], lam[frequent:][::-1]
    cuts = np.searchsorted(np.cumsum(rare_lam), np.arange(_RARE_RUN, rare_lam.sum(), _RARE_RUN), side="right")
    bounds = [0, *cuts.tolist(), rare_lam.size]
    rare = tuple(_frozen_table(rare_h[a:b], np.cumsum(rare_lam[a:b])) for a, b in zip(bounds, bounds[1:]))
    # Poisson(mu) puts mass below about 1e-30, far under the 2^-53 resolution
    # of a uniform, outside the counts mu +- (12 sqrt(mu) + 30)
    mu = 0.5 * lam[:frequent]
    reach = 12.0 * np.sqrt(mu) + 30.0
    lo, hi = np.maximum(np.floor(mu - reach), 0.0), np.ceil(mu + reach)
    table = ((hi - lo + 1.0) ** 2 <= 4.0 * n) & tables
    groups, i, cap = [], frequent - 1, min(n, _GROUP_ENTRIES)
    while i >= 0:
        if not table[i]:
            groups.append((heights[i], mu[i]))
            i -= 1
            continue
        pmf = _net_count_pmf(mu[i], int(lo[i]), int(hi[i]))
        # joined with the next atom, before its trim, the table holds q (pmf.size - 1) + 2 (hi - lo) + 1 entries
        while q.is_integer() and i > 0 and table[i - 1] and q * (pmf.size - 1) + 2.0 * (hi[i - 1] - lo[i - 1]) + 1.0 <= cap:
            i -= 1
            pmf = _trim(_lattice_sum(pmf, _net_count_pmf(mu[i], int(lo[i]), int(hi[i])), int(q)))
        pmf = _trim(pmf)
        top = (pmf.size - 1) // 2  # the table holds the net sums -top .. top, in units of heights[i]
        groups.append(_frozen_table(heights[i] * np.arange(-top, top + 1), np.cumsum(pmf)))
        i -= 1
    return _StepPlan(rare, tuple(groups), compensation_std(alpha, c, dt, k_min))


def _add_rare_jumps(
    out: np.ndarray,
    run: _Table,
    weights: np.ndarray | None,
    rng: np.random.Generator,
    buffers: PathBuffers,
) -> None:
    """Add the jumps of the atoms of ``run`` (their heights on their
    cumulative intensities) to ``out``, atom k firing lam_k w_i times on
    average at sample i, w = ``weights`` or all 1 when None.

    The atoms are superposed: one Poisson total over all samples and atoms,
    then, for each jump, its atom by inverting the cumulative intensity, its
    sample and its sign.  With equal weights the sample is uniform on
    0 .. n-1 and one integer in 0 .. 2n-1 carries both; otherwise one uniform
    on [0, 2 sum w) does: its half gives the sign, and its offset in that
    half, inverted on the cumulative weights, the sample.  Exact by Poisson
    superposition and marking.  The jumps' uniforms, then their heights, take
    the slot 1 of ``buffers``.
    """
    n = out.size
    cum = run.cum
    rows = None if weights is None else np.cumsum(weights)
    weight = n if rows is None else rows[-1]
    total = rng.poisson(weight * cum[-1])
    if total:
        u = rng.random(out=buffers.take(1, (total,)))
        u *= cum[-1]
        # the indices lie in range: mode "clip" spares the copy of ``out``
        # that numpy's default mode makes
        jump = np.take(run.values, _invert(cum, u, run.guide), out=u, mode="clip")
        if rows is None:
            slot = rng.integers(0, 2 * n, size=total)
            sign = slot & 1
            sign <<= 1
            sign -= 1  # -1 on an even slot, 1 on an odd one: a product that flips no bit but the sign
            jump *= sign
            del sign
            slot >>= 1
        else:
            u = rng.random(total)
            u *= 2.0 * weight
            upper = u >= weight
            jump[upper] *= -1.0
            u[upper] -= weight  # exact (Sterbenz): weight <= u <= 2 weight
            slot = np.searchsorted(rows[:-1], u, side="right")
        out += np.bincount(slot, weights=jump, minlength=n)


def sample_semistable_increment(
    alpha: float,
    c: float,
    dt,
    rng: np.random.Generator,
    k_min: int = DEFAULT_K_MIN,
    *,
    size: int,
    _buffers=None,
):
    """``size`` = n increments of the discrete semistable law over a time step
    dt, one for all samples or one per sample (the only per-sample scaling),
    shape (n,), summed on the slot 0 of ``_buffers`` (fresh arrays when None).

    Atom k fires as a Poisson(dt_i * c^-k) count at sample i, each jump of
    height +-c^(k/alpha) with a fair sign.  Memory is O(n).  The atom range,
    and which atoms count as frequent, are set at the longest step; what the
    draw needs besides its variates (:func:`_step_plan`) is built once per
    law, longest step and sample count, and shared.

    * Rare atoms (fewer than one jump a sample on average at the longest
      step) are drawn together, rarest first, by :func:`_add_rare_jumps`, in
      runs cut where their running total intensity passes a multiple of
      ``_RARE_RUN``, so that one draw holds at most about ``_RARE_RUN * n``
      jumps (one run when c >= 2).  The intensities factorise as
      dt_i * c^-k, so each run is one Poisson total with its jumps placed on
      the samples in proportion to their steps.
    * Each frequent atom, from the largest down, adds c^(k/alpha) times its
      net count N+ - N-, the difference of two independent Poisson counts of
      mean dt_i c^-k / 2 (Poisson thinning).  With one step for all samples
      and a CDF table (of :func:`_net_count_pmf`) of s entries, s**2 <= 4n, so
      building it costs at most 4 multiply-adds a sample, the net count is
      one uniform per sample inverted on the table (:func:`_invert`);
      otherwise it is two Poisson vectors.  Where
      c^(1/alpha) is an integer, a run of table atoms is one group: one
      uniform a sample, inverted on the CDF of the group's net jump sum,
      draws all of them (see :func:`_step_plan`).

    The atom order does not depend on k_min, so two truncation depths share
    the draws of their common atoms (of their common groups, on a lattice).
    A Gaussian of std :func:`compensation_std` replaces the jumps below k_min.

    Raises ValueError for a step that is not positive and finite, or not one
    per sample; TruncationTooCoarse when k_min is too shallow at the
    shortest step (:func:`check_truncation`); BudgetExceeded for more than
    ``_MAX_ATOMS`` atoms, or a k_min too deep for numpy's Poisson sampler
    (:func:`check_poisson_mean`); DegenerateSample when an atom height
    leaves the float64 range.
    """
    _check_alpha(alpha, upper_inclusive=False)
    if c <= 1.0:
        raise ValueError(f"semistable scaling constant must be > 1, got {c}")
    n = size
    _check_steps(dt, n)
    longest = float(np.max(dt))
    check_truncation(alpha, c, float(np.min(dt)), k_min)
    check_poisson_mean(c, longest, k_min)
    per_row = np.ndim(dt) > 0
    plan = _step_plan(float(alpha), float(c), longest, k_min, n, not per_row)
    # a sample's intensities and variance scale by its step over the longest
    ratio = np.asarray(dt, dtype=float) / longest if per_row else 1.0
    buffers = PathBuffers() if _buffers is None else _buffers
    out = buffers.take(0, (n,))
    out.fill(0.0)
    for run in plan.rare:
        _add_rare_jumps(out, run, ratio if per_row else None, rng, buffers)
    for group in plan.groups:
        if isinstance(group, _Table):
            u = rng.random(out=buffers.take(1, (n,)))
            u *= group.cum[-1]
            out += np.take(group.values, _invert(group.cum, u, group.guide), out=u, mode="clip")
        else:
            height, mu = group
            both = rng.poisson(mu * ratio, (2, n))
            both[0] -= both[1]
            out += np.multiply(both[0], height, out=buffers.take(1, (n,)))
            del both  # before the next group draws its own
    gauss = rng.standard_normal(out=buffers.take(1, (n,)))
    gauss *= plan.sigma * np.sqrt(ratio)
    out += gauss
    return out


class LawKind(Enum):
    STABLE_SYMMETRIC = "STABLE_SYMMETRIC"
    STABLE_ISOTROPIC_2D = "STABLE_ISOTROPIC_2D"
    SEMISTABLE_DISCRETE = "SEMISTABLE_DISCRETE"


@dataclass(frozen=True)
class BlockLaw(Record):
    """Increment law for one spectral block."""

    kind: LawKind
    alpha: float
    scale: float = 1.0
    c: float | None = None
    k_min: int = DEFAULT_K_MIN

    def __post_init__(self):
        if self.kind is LawKind.SEMISTABLE_DISCRETE:
            _check_alpha(self.alpha, upper_inclusive=False)
            # NaN fails every comparison: test that c lies inside the range, not outside
            if self.c is None or not 1.0 < self.c < math.inf:
                raise ValueError(f"SEMISTABLE_DISCRETE requires a finite scaling constant c > 1, got {self.c}")
            check_poisson_mean(self.c, 1.0, self.k_min)  # every step a run takes is <= 1
        else:
            _check_alpha(self.alpha)
        _check_scale(self.scale)

    def sample_increments(self, dt, n: int, rng: np.random.Generator, _buffers=None) -> np.ndarray:
        """n independent increments over one time step dt or over one step each
        (dt of shape (n,)); shape (n,) or (n, 2).  A stable law scales each
        increment by its step; the semistable sampler takes every step in one
        draw.  Each law draws on the slots of ``_buffers`` (see
        :class:`PathBuffers`; fresh arrays when None).  Raises ValueError for
        a step that is not positive and finite."""
        _check_steps(dt, n)
        if self.kind is LawKind.SEMISTABLE_DISCRETE:
            x = sample_semistable_increment(self.alpha, self.c, dt, rng, k_min=self.k_min, size=n, _buffers=_buffers)
            x *= self.scale
            return x
        # with a step per increment, the sampler forms the scales a chunk at a time
        scale, steps = (self.scale, dt) if np.ndim(dt) else (self.scale * dt ** (1.0 / self.alpha), None)
        sampler = sample_stable_increment if self.kind is LawKind.STABLE_SYMMETRIC else sample_isotropic_stable_2d
        return sampler(self.alpha, scale, rng, size=n, _buffers=_buffers, _steps=steps)

    def as_dict(self) -> dict:
        """Only the semistable law writes its scaling constant and truncation."""
        out = super().as_dict()
        if self.kind is not LawKind.SEMISTABLE_DISCRETE:
            del out["c"], out["k_min"]
        return out
