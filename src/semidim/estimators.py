"""Dimension estimators on sampled paths, and sojourn times on marginal draws.

Box counting works on axis-aligned cube grids anchored at the origin.  Side
lengths should form a nested geometric family (each side an integer multiple
of the next) so occupied counts are provably monotone; the helpers
:func:`dyadic_scales` and :func:`geometric_scales` produce such grids.
:func:`count_occupied_cubes` counts a whole ladder with one linker and one
kernel.  The linker (:func:`_link`) takes the sides in descending order, and
each joins the first chain whose smallest side is an integer multiple of it:
a dyadic ladder is one chain of steps 2, a sqrt-3 ladder two chains of steps
3.  The kernel (:func:`_ladder_counts`) quantises a chain once, at its
smallest side, and writes each row's cells as one Z-order key in the mixed
radix of the chain's steps (Morton's key at steps of 2, the digit order of
Peano's curve at steps of 3), sorted once; each coarser side is the finer key
floor-divided by Q^D, a monotone map, so the keys stay sorted and a side
costs one division (a right shift when Q is a power of two) and one pass
over adjacent keys.  Where the sides are power-of-two multiples of the
smallest, the division of the floats is exact, so the counts match a
per-side count bit for bit, except where a quotient c/b falls below the
normal range: -2^-1074 / 2 rounds to -0.0, the float cell 0, while the chain
divides the cell -1 at side 0.25 by 8 to -1, so
``count_occupied_cubes([[-2^-1074], [0.00745]], [0.25, 1, 0.5, 2])`` reads
[2, 2, 2, 2] against the per-side [2, 2, 2, 1].  Along other chains the rows
whose quotient lies within rounding of an integer are counted apart, by
their own per-side cells, so the counts again match a per-side count bit
for bit.  The kernel counts every row it is given, less each row whose cells
equal the row's before, a chunk of rows at a time; :func:`box_count_graph`
copies the rows that the mask of B keeps only when the mask drops some.  A
path holds no times: its time column is a :class:`~semidim.paths.RowTimes`.
The energy estimator finds the near pairs of its truncated energies in numpy
alone: a path's rows come in time order, so each point's candidate partners
are the next few rows, and it sums the powers of the near pairs for every
gamma with one ``exp`` for the first gamma and one for each distinct gamma
gap (:func:`_near_pair_energies`).  Both work on the slots of a reused
:class:`~semidim.laws.PathBuffers`, never on the path's own.

The box-count slope is fitted after dropping the two largest and two
smallest scales, the standard guard against lattice and path-resolution
bias; box counting estimates (upper) box dimension, which upper-bounds
Hausdorff dimension, so estimates tend to sit slightly above theory rather
than below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .borel import BorelSetSpec, SetKind
from .codec import Record
from .dimension import classify_sojourn_case
from .errors import (
    DegenerateSample,
    EmptyRestriction,
    EnsembleTooSmall,
    InvalidInputs,
    NonMonotoneCounts,
    RadiiOutOfRange,
    ResolutionTooCoarse,
    ScheduleMismatch,
)
from .fitting import ScalingFit, fit_loglog
from . import laws as _laws
from .laws import PathBuffers, chunks
from .paths import LevyPath, RowTimes, check_memory, sample_marginal
from .seeds import derive_rng
from .spectral import ExponentSpec

BOX_FIT_DROP = 2  # scales dropped at each end of the fit window
MIN_FIT_SCALES = 6
# How near an integer a ratio of two sides must be for them to nest.
RATIO_TOL = 1e-9
# A chain of sides is counted nested while its band of quotients near an
# integer, which it counts apart, stays this narrow (see _ladder_counts).
_CHAIN_BAND = 2.0**-10
# Candidate pairs per chunk of the near-pair kernel.  Not laws.CHUNK: the
# chunks fix the order in which the energy sums add, so a change moves the
# log-energies' bits; test_near_pair_kernel_matches_dense in
# tests/test_estimators.py varies it against a dense reference.
_ENERGY_CANDIDATES = 2**16
# Largest growth of the truncated log-energy, from the small to the large
# subsample, at which the energy still counts as finite.
ENERGY_THRESHOLD = 0.1
# Truncation radius: this multiple of this quantile of the consecutive-point
# distances of a selection.
RADIUS_FACTOR = 16.0
RADIUS_QUANTILE = 0.5
SOJOURN_BATCHES = 10  # independent replicates of the sojourn integral


def dyadic_scales(k_min: int, k_max: int) -> np.ndarray:
    """Sides 2^-k for k = k_min .. k_max, ascending in k (descending side)."""
    return 2.0 ** (-np.arange(k_min, k_max + 1, dtype=float))


def geometric_scales(base: float, k_min: int, k_max: int) -> np.ndarray:
    """Sides base^-k, k = k_min .. k_max; base should be an integer >= 2."""
    return float(base) ** (-np.arange(k_min, k_max + 1, dtype=float))


def _drop_repeats(keys: np.ndarray) -> int:
    """Move each of the sorted ``keys`` that differs from the key before it
    (and the first) to the front, in order, a chunk at a time; returns how
    many moved.

    A key moves to its own place or before it, so the key before a chunk is
    still its own when the chunk reads it: either no key moved onto it, or
    every key before it stayed in place."""
    size = 0
    fresh = np.empty(min(keys.size, _laws.CHUNK // 4), dtype=bool)
    for start, stop in chunks(keys.size, 4):
        lo = max(start, 1)
        part = fresh[: stop - start]
        part[0] = start == 0
        np.not_equal(keys[lo:stop], keys[lo - 1 : stop - 1], out=part[lo - start :])
        rows = np.flatnonzero(part)
        keys[size : size + rows.size] = keys[start:stop].take(rows)
        size += rows.size
    return size


def _chunk(column, start: int, stop: int) -> tuple:
    """Rows start .. stop - 1 of a column and the unit of its entries: a
    view of an array (unit 1), or the grid rows k of a
    :class:`~semidim.paths.RowTimes`, whose times are k times its step."""
    if isinstance(column, RowTimes):
        return column.indices(start, stop), column.step
    return column[start:stop], 1.0


def _extremes(column) -> tuple:
    """The least and the greatest entry of ``column`` (at least one).  A
    time column ascends, so its extremes are the times of its first and its
    last row."""
    if isinstance(column, RowTimes):
        return column.chunk(0, 1)[0], column.chunk(column.size - 1, column.size)[0]
    return column.min(), column.max()


def _floor_div(x: np.ndarray, q: int, out=None) -> np.ndarray:
    """x // q of the int64 ``x`` for an int 1 <= q <= 2^63: a right shift
    when q is a power of two."""
    if q & (q - 1):
        return np.floor_divide(x, q, out=out)
    return np.right_shift(x, q.bit_length() - 1, out=out)


def _kept_cells(columns: list, b: float, buffers: PathBuffers, near: list | None = None, tau: float = 0.0):
    """Yield, one chunk of rows at a time, the int64 cells floor(c / b) of
    the rows of ``columns`` (arrays, or a :class:`~semidim.paths.RowTimes`),
    less each row whose cells all equal those of the row before it: a
    (D, k) array, valid until the next chunk.

    The cells are formed as floats on the slot 1 of ``buffers``, D values a
    row after a column 0 that carries the last row of the chunk before, and
    the rows kept are cast to int64 in place.  A time column divides its row
    indices k by b 2^n: k 2^-n and b 2^n are exact, so the quotient is that
    of (k 2^-n) / b bit for bit, and no time is formed.

    With a list ``near``, a row with a quotient c / b within ``tau`` of an
    integer in some column is left out, and an array of such rows is
    appended to ``near`` for each chunk; the row after one is kept, as the
    row it would equal is not.  The distances to the nearest integer take
    D more values a row on the slot 1, so the chunks are half as long."""
    dim, total = len(columns), columns[0].size
    width = dim if near is None else 2 * dim
    rows = min(total, _laws.CHUNK // width)
    scratch = buffers.take(1, (width, rows + 1))
    cells, gap = scratch[:dim], scratch[dim:, 1:]
    differs = np.empty((dim, rows), dtype=bool)
    fresh = np.empty(rows, dtype=bool)
    if near is not None:
        flagged = np.zeros(rows + 1, dtype=bool)  # entry 0: the last row of the chunk before
    for start, stop in chunks(total, width):
        k = stop - start
        # floor(c / b) as a float, cast to int64 only on the rows kept
        for j, c in enumerate(columns):
            part, unit = _chunk(c, start, stop)
            np.divide(part, b / unit, out=cells[j, 1 : k + 1])
        if near is not None:
            # |q - rint(q)|, exact for every float q
            np.rint(cells[:, 1 : k + 1], out=gap[:, :k])
            np.subtract(cells[:, 1 : k + 1], gap[:, :k], out=gap[:, :k])
            np.abs(gap[:, :k], out=gap[:, :k])
            np.less_equal(gap[:, :k], tau, out=differs[:, :k])
            np.logical_or.reduce(differs[:, :k], axis=0, out=flagged[1 : k + 1])
        np.floor(cells[:, 1 : k + 1], out=cells[:, 1 : k + 1])
        np.not_equal(cells[:, 1 : k + 1], cells[:, :k], out=differs[:, :k])
        np.logical_or.reduce(differs[:, :k], axis=0, out=fresh[:k])
        fresh[0] |= start == 0
        if near is not None:
            fresh[:k] |= flagged[:k]
            fresh[:k] &= ~flagged[1 : k + 1]
            near.append(np.flatnonzero(flagged[1 : k + 1]) + start)
            flagged[0] = flagged[k]
        index = np.flatnonzero(fresh[:k])
        kept = cells.view(np.int64)[:, 1 : index.size + 1]
        cells[:, 0] = cells[:, k]
        for j in range(dim):
            kept[j] = cells[j, 1 : k + 1].take(index)
        yield kept


def _high_parts(columns: list, b: float, multiple: int, lows: list, highs: list, buffers: PathBuffers, pad: int = 0):
    """The high parts floor(c / b) // ``multiple`` of each column, its cells
    at the coarsest side of a chain, as offsets from their minimum or, while
    the columns do not fit in a 63-bit key beside the multiple^D values of
    the digits below them, as ranks among the column's distinct values (the
    heads of its runs, which :func:`_kept_cells` yields on the slot 1 of
    ``buffers``, made unique once), widest column first.  A column's range
    takes ``pad`` more values at each end, and its ranks every value within
    ``pad`` of one.  Returns the radices of the high parts and, per column,
    its smallest high part (an offset) or its sorted distinct high parts
    (ranks); None when even the ranks do not fit.  ``lows`` and ``highs``
    are the columns' extremes: floor is monotone, so floor(min c / b) is
    the smallest cell."""
    room = (2**63 - 1) // multiple ** len(columns)
    if room == 0:
        return None
    ends = [(int(np.floor(lo / b)) // multiple - pad, int(np.floor(hi / b)) // multiple + pad) for lo, hi in zip(lows, highs)]
    radices, offsets = [hi - lo + 1 for lo, hi in ends], [lo for lo, _ in ends]
    for j in sorted(range(len(columns)), key=lambda i: -radices[i]):
        if math.prod(radices) <= room:
            break
        heads = np.concatenate([_floor_div(cells[0], multiple) for cells in _kept_cells([columns[j]], b, buffers)])
        offsets[j] = np.unique(heads + np.arange(-pad, pad + 1)[:, None])
        radices[j] = offsets[j].size
    return (radices, offsets) if math.prod(radices) <= room else None


@functools.lru_cache(maxsize=64)
def _spread(steps: tuple, dim: int, pos: int, below: int = 1) -> tuple:
    """The digits of r = cell % M of the pos-th of D columns, each at its
    place in a key (:func:`_zorder_keys`): ``steps`` are a chain's steps from
    the finest, each at most 2^12, and M their product.  The digit
    (r // s) % q of a level of step q, s the product of the steps below it,
    goes to the place q^pos s^D.  At steps of 2 that is bit k of r at bit
    k D + pos, Morton's interleave.  The levels come in runs whose steps
    multiply to m <= 2^12, each a piece (S, m, table), S the product of the
    steps below the run (``below`` for the first): r's digits are the sum
    over the pieces of table[(r // S) % m], none when there are no steps."""
    if not steps:
        return ()
    top = max(k for k in range(1, len(steps) + 1) if math.prod(steps[:k]) <= 2**12)
    digits = np.arange(math.prod(steps[:top]))
    table, part = np.zeros_like(digits), 1
    for q in steps[:top]:
        table += digits // part % q * (q**pos * (below * part) ** dim)
        part *= q
    table.flags.writeable = False  # one array serves every caller
    return ((below, part, table),) + _spread(steps[top:], dim, pos, below * part)


def _column_coders(steps: list, plan: tuple, multiple: int, cols, rows: int) -> list:
    """The coder of each column j of ``cols`` for :func:`_zorder_keys`:
    ``steps`` are a chain's steps from the finest, M = ``multiple`` is their
    product, and ``plan`` holds the radices and the offsets or ranks of the
    high parts (:func:`_high_parts`).

    The column, the pos-th of D, adds F(cell) to a row's key: its high part
    cell // M, less its offset or replaced by its rank, times M^D and the
    radices of the columns after it, plus its digits of cell % M, each at
    its place (:func:`_spread`).  The coder is (j, M, place of the high
    part, offset or ranks, pieces of the spread digits) or, where the high
    parts are offsets and the column's cells span at most min(2^13,
    ``rows``) values, (j, lowest cell, F at each cell from it)."""
    radices, codes = plan
    coders = []
    for pos, j in enumerate(cols):
        place = math.prod(radices[i] for i in cols[pos + 1 :]) * multiple ** len(cols)
        spread = _spread(tuple(steps), len(cols), pos)
        if isinstance(codes[j], np.ndarray) or radices[j] * multiple > min(2**13, rows):
            coders.append((j, multiple, place, codes[j], spread))
        else:
            spread = sum(table[np.arange(multiple) // below % m] for below, m, table in spread)
            coders.append((j, codes[j] * multiple, (np.arange(radices[j])[:, None] * place + spread).ravel()))
    return coders


def _add_column_keys(cells: np.ndarray, coder: tuple, key: np.ndarray, scratch: np.ndarray) -> None:
    """Add F (:func:`_column_coders`) at each of the int64 ``cells`` of one
    column to ``key``; ``scratch`` is two int64 arrays of their length."""
    if len(coder) == 3:
        key += np.take(coder[2], np.subtract(cells, coder[1], out=scratch[0]), out=scratch[1], mode="clip")
        return
    _, multiple, place, code, spread = coder
    high = _floor_div(cells, multiple, out=scratch[0])
    if isinstance(code, np.ndarray):
        high = np.searchsorted(code, high)
    else:
        high -= code
    high *= place
    key += high
    for below, m, table in spread:
        part = cells if below == 1 else _floor_div(cells, below, out=scratch[0])
        if m & (m - 1):
            # part % m, without np.remainder's division a row
            np.subtract(part, np.multiply(_floor_div(part, m, out=scratch[1]), m, out=scratch[1]), out=scratch[0])
        else:
            np.bitwise_and(part, m - 1, out=scratch[0])
        key += np.take(table, scratch[0], out=scratch[1], mode="clip")


def _zorder_keys(cells: np.ndarray, coders: list, key: np.ndarray, scratch: np.ndarray) -> None:
    """One int64 key per row of ``cells``, written on ``key``: the sum of
    the parts of the columns that ``coders`` code (:func:`_column_coders`).
    The high parts sit in mixed radix above the D columns' digits in the
    mixed radix of the chain's steps, interleaved level by level, so
    ``key // Q^D`` identifies the row's cells one level coarser,
    floor(cell / Q) in every column, Q the level's step.  ``scratch`` is two
    int64 arrays of the rows' length."""
    key[:] = 0
    for coder in coders:
        _add_column_keys(cells[coder[0]], coder, key, scratch)


def _ladder_counts(columns: list, sides: np.ndarray, targets, buffers: PathBuffers, lows: list, highs: list) -> np.ndarray:
    """:func:`_cube_counts` on a chain of ``sides``, descending, each an
    integer multiple Q of the next (:func:`_link`), with the per-side float
    counts.  ``lows`` and ``highs`` are the columns' extremes.

    One pass over chunks of rows quantises the columns at the smallest side
    b into the cells floor(y), y = fl(c / b), drops each row whose cells all
    equal the row's before it (:func:`_kept_cells`; a time-ordered path
    often stays in one cube from row to row), and keys the kept rows for
    every target straight from their cells (:func:`_zorder_keys`) on the
    slot 0 of ``buffers``.  The keys of a target are sorted once; floor
    division is monotone, so they stay sorted at each coarser side, the
    finer keys floor-divided by Q^D, where the count is the number of
    adjacent keys that differ.

    That nested cell is floor(y) // P = floor(y / P), P = s / b.  Where
    every P is a power of two, fl(c / s) = y / P exactly, so it is the
    per-side cell floor(fl(c / s)).  Elsewhere fl(c / s) = (y / P)(1 + e)
    with |e| <= eta, eta = max |P b / s - 1| plus a few ulps (the standard
    model of Higham, Accuracy and Stability of Numerical Algorithms, ch. 2;
    below the normal range, plus up to P 2^-1074 absolute), and it is the
    per-side cell unless y lies within |y| eta of an integer.  The rows that
    do (within tau of one, tau bounding |y| eta + P 2^-1074 over the rows)
    are left out of the nested cells.  At each side their own cells
    floor(fl(c / s)), at most one off the nested, are keyed as the cells
    z P at b, so the high parts span one more value at each end, and each
    side counts the union.

    A chain whose key does not fit in 63 bits even with ranks
    (:func:`_high_parts`), whose band tau is not narrow or with a step of
    more than 2^12 (:func:`_spread`) is counted as a finer and a coarser
    half; a single side that does not fit, by comparing whole rows."""
    steps = [_multiple(s / t) for s, t in zip(sides[:-1], sides[1:])]
    multiples = [math.prod(steps[i:]) for i in range(sides.size)]
    b, size, counts = sides[-1], columns[0].size, np.zeros((len(targets), sides.size), dtype=np.int64)
    near, tau, plan = None, 0.0, None
    if not all(q & (q - 1) == 0 and s == q * b for q, s in zip(multiples, sides)):
        eta = max(abs(q * b / s - 1.0) for q, s in zip(multiples, sides)) + 8 * 2.0**-53
        # |y| eta at the largest |y|, and the rounding of a quotient near 0
        near, tau = [], eta * max(max(-lo, hi) for lo, hi in zip(lows, highs)) / b + multiples[0] * 2.0**-1074
    if tau < _CHAIN_BAND and max(steps, default=1) <= 2**12:
        plan = _high_parts(columns, b, multiples[0], lows, highs, buffers, int(near is not None))
    if plan is None:
        if sides.size == 1:
            cells = np.concatenate([c.copy() for c in _kept_cells(columns, b, buffers)], axis=1)
            for t, cols in enumerate(targets):
                counts[t] = np.unique(cells[cols].T, axis=0).shape[0]
        else:
            cut = sides.size // 2
            counts[:, cut:] = _ladder_counts(columns, sides[cut:], targets, buffers, lows, highs)
            counts[:, :cut] = _ladder_counts(columns, sides[:cut], targets, buffers, lows, highs)
        return counts
    coders = [_column_coders(steps[::-1], plan, multiples[0], cols, size) for cols in targets]
    store = buffers.take(0, (len(targets), size)).view(np.int64)
    scratch = np.empty((2, min(size, _laws.CHUNK // len(columns))), dtype=np.int64)
    filled = 0
    for cells in _kept_cells(columns, b, buffers, near, tau):
        k = cells.shape[1]
        for t, target in enumerate(coders):
            _zorder_keys(cells, target, store[t, filled : filled + k], scratch[:, :k])
        filled += k
    if near is not None:
        near = np.concatenate(near)
        values = np.array([c.take(near) for c in columns])
        # the near rows' own cells floor(fl(c / s)) at every side, as cells at b
        own = np.hstack([np.floor(values / s).astype(np.int64) * q for s, q in zip(sides, multiples)])
    for t, (cols, keys) in enumerate(zip(targets, store[:, :filled])):
        keys.sort()
        if near is not None:
            apart = np.empty(own.shape[1], dtype=np.int64)
            _zorder_keys(own, coders[t], apart, np.empty((2, apart.size), dtype=np.int64))
            # at each side, the keys of the near rows' own cells, sorted, and the first of each
            apart = np.sort(apart.reshape(sides.size, -1) // np.array([q ** len(cols) for q in multiples])[:, None], axis=1)
            first = np.ones(apart.shape, dtype=bool)
            np.not_equal(apart[:, 1:], apart[:, :-1], out=first[:, 1:])
        for i in range(sides.size - 1, -1, -1):
            if i < sides.size - 1:
                _floor_div(keys, steps[i] ** len(cols), out=keys)
            keys = keys[: _drop_repeats(keys)]
            counts[t, i] = keys.size
            if near is not None:
                # the union: the nested cells and each near row's own cell once
                at = np.minimum(np.searchsorted(keys, apart[i]), keys.size - 1)
                counts[t, i] += np.count_nonzero(first[i] & (keys[at] != apart[i])) if keys.size else np.count_nonzero(first[i])
    return counts


def _link(sides: np.ndarray) -> list:
    """The sides linked into chains, as lists of indices: taken in
    descending order, a side joins the first chain whose smallest side is an
    integer multiple of it (:func:`_multiple`; a repeated side is one time
    its twin), or starts one."""
    chains = []
    for i in np.argsort(-sides, kind="stable"):
        home = next((chain for chain in chains if _multiple(sides[chain[-1]] / sides[i])), None)
        if home is None:
            chains.append([i])
        else:
            home.append(i)
    return chains


def _cube_counts(columns: list, sides: np.ndarray, targets, buffers: PathBuffers) -> np.ndarray:
    """Occupied side-b cubes (grid anchored at 0) of the points with
    coordinates ``columns[j]``, j in ``cols``, every row counted: one row of
    counts per list ``cols`` in ``targets``, one count per side b in
    ``sides``.  The sides are linked into chains (:func:`_link`), and each
    chain is counted by :func:`_ladder_counts`.
    """
    # Cell indices are int64; beyond 2^62 cubes (or at inf/NaN) the cast
    # would return garbage cells instead of failing.
    reach = 2.0**62 * sides.min()
    lows, highs = zip(*(_extremes(c) for c in columns))
    if not all(lo > -reach and hi < reach for lo, hi in zip(lows, highs)):
        raise DegenerateSample(f"points beyond 2^62 cubes of side {sides.min():g} from the origin")
    counts = np.zeros((len(targets), sides.size), dtype=np.int64)
    for chain in _link(sides):
        counts[:, chain] = _ladder_counts(columns, sides[chain], targets, buffers, lows, highs)
    return counts


def count_occupied_cubes(points: np.ndarray, sides) -> np.ndarray:
    """Occupied side-b cubes (grid anchored at 0), one count per side b in ``sides``."""
    sides = np.atleast_1d(np.asarray(sides, dtype=float))
    if points.shape[0] == 0:
        return np.zeros(sides.size, dtype=np.int64)
    return _cube_counts(list(points.T), sides, [list(range(points.shape[1]))], PathBuffers())[0]


def _multiple(ratio: float) -> int:
    """The integer q within ``RATIO_TOL`` of ``ratio``, or 0 when there is
    none or q >= 2^53, where every float is an integer: a side q times
    another is a union of the other's cubes."""
    q = np.rint(ratio)
    return int(q) if abs(ratio - q) < RATIO_TOL and q < 2**53 else 0


@dataclass(frozen=True)
class BoxCountEstimate(Record):
    sides: np.ndarray
    counts: np.ndarray
    fit: ScalingFit
    estimate: float
    range: BoxCountEstimate | None = None  # the range's estimate, carried by the graph's


def check_box_sides(sides, n: int | None = None) -> None:
    """Reject a side that is not finite and > 0, a side ladder too short for
    the windowed fit or, on a grid of depth n, one whose smallest cube the
    grid does not resolve: 2^-n must be <= min(side)/4, compared in log2 so
    that no depth overflows."""
    sides = np.asarray(sides, dtype=float)
    bad = sides[~(np.isfinite(sides) & (sides > 0.0))]
    if bad.size:
        raise InvalidInputs(f"box sides must be finite and > 0, got {bad[0]:g}")
    if sides.size < MIN_FIT_SCALES + 2 * BOX_FIT_DROP:
        raise ValueError(
            f"need >= {MIN_FIT_SCALES + 2 * BOX_FIT_DROP} scales for a windowed fit"
        )
    if n is not None and n < 2.0 - math.log2(sides.min()):
        raise ResolutionTooCoarse(
            f"grid depth n={n} too coarse for smallest side {sides.min():g} (2^-n > side/4)"
        )


def _fit_counts(sides: np.ndarray, counts: np.ndarray, range_=None) -> BoxCountEstimate:
    """The windowed log-log fit of counts on descending sides.  Counts that
    rise as the side shrinks break an invariant where the ladder is one
    chain (:func:`_link`), each side an integer multiple of the next."""
    if np.any(np.diff(counts) < 0) and len(_link(sides)) == 1:
        raise NonMonotoneCounts("occupied-cube counts must be nonincreasing in the side")
    fit = fit_loglog(sides, counts, drop_low=BOX_FIT_DROP, drop_high=BOX_FIT_DROP)
    return BoxCountEstimate(sides=sides, counts=counts, fit=fit, estimate=float(-fit.slope), range=range_)


def box_count_graph(path: LevyPath, mask: np.ndarray, sides, _buffers: PathBuffers | None = None) -> BoxCountEstimate:
    """Box-count estimate of dim of the graph, carrying the range's, on a time set.

    ``mask`` marks the grid points in the set, as :meth:`BorelSetSpec.mask`
    returns it for the path's depth; it is read at the grid rows the path
    holds.  The cube kernel counts every row it is given, so a path that
    holds just the rows in the set (as a run draws it) is counted as it is,
    and of any other path a copy of those rows.  The cubes of the range X(t)
    are those of the graph (t, X(t)) projected, so one ladder walk counts
    both.  The grid must resolve the smallest cube: 2^-n <= min(side)/4.  It
    works on the slots of ``_buffers`` (fresh arrays when None).
    """
    check_box_sides(sides, path.n)
    keep = mask if path.rows is None else mask[path.rows]
    if not np.any(keep):
        raise EmptyRestriction("no grid point falls inside the time set")
    sides = np.sort(np.asarray(sides, dtype=float))[::-1]
    times, values = path.row_times, path.values
    if not keep.all():
        rows = times.indices(0, keep.size)[keep]
        times, values = RowTimes(path.n, rows.size, rows), values[keep]
    columns = [times, *(values[:, j] for j in range(path.d))]
    targets = [list(range(len(columns))), list(range(1, len(columns)))]
    buffers = PathBuffers() if _buffers is None else _buffers
    graph, range_ = _cube_counts(columns, sides, targets, buffers)
    return _fit_counts(sides, graph, _fit_counts(sides, range_))


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
    """Monte Carlo means of the sojourn time T(a, s) over a radii grid, and
    the log-log slope's jackknife stderr over the batches."""

    target: str  # "graph" or "range"
    radii: np.ndarray
    horizon: float
    means: np.ndarray
    stderrs: np.ndarray
    fit: ScalingFit
    slope_stderr: float
    case: str
    theory_exponent: float


def check_sojourn(ensemble: int, radii, n: int, d: int) -> None:
    """Reject an ensemble below 200 draws, fewer than 2 distinct radii, radii
    outside [2^(-n/2), 0.5] at stratification depth n, or draws (8n + 1
    strata of ``ensemble`` points in R^d) beyond physical memory."""
    radii = np.asarray(radii, dtype=float)
    if ensemble < 200:
        raise EnsembleTooSmall(f"sojourn Monte Carlo needs >= 200 draws per time, got {ensemble}")
    # not np.unique, which loads numpy.ma; a NaN radius fails this test too
    if radii.size < 2 or not radii.min() < radii.max():
        raise RadiiOutOfRange("the sojourn fit needs >= 2 distinct radii")
    # 2^(-n/2) <= min(radius), compared in log2 so that no depth overflows
    lo = radii.min()
    if not lo > 0.0 or n < -2.0 * math.log2(lo) - 1e-9 or radii.max() > 0.5 + 1e-12:
        raise RadiiOutOfRange(f"radii must lie in [2^(-n/2), 0.5] with n={n}")
    check_memory(
        (8 * n + 1) * ensemble * d,
        f"sojourn draws of {ensemble} points in d={d} at depth n={n}",
    )


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

    E T(a, s) = int_0^s P(||Z(t)|| <= a) dt needs only the marginals X(t).
    It is stratified over (0, s 2^-n], then 8 strata per octave up to s:
    each of ``SOJOURN_BATCHES`` batches draws one uniform time per stratum
    (the bottom one takes its midpoint, as the laws need t > 0) and its share
    of ``ensemble`` draws of X(t), which every radius and both targets read.
    All the draws are one :func:`sample_marginal` call, one time per row, on
    the stream ``<name>/draws``.  The batches' spread is the stderr of each
    mean; the slope's stderr is the jackknife over the batches, refitting
    with each batch left out, so it counts that every radius reads the same
    draws.  Returns (graph, range) estimates.
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    check_sojourn(ensemble, radii, n, spec.d)
    if not 0.0 < horizon <= 1.0:
        raise ValueError("horizon must lie in (0, 1]")
    dec = spec.decomposition
    case, exp_graph, exp_range = classify_sojourn_case(dec.alphas, dec.block_dims)

    edges = np.concatenate([[0.0], horizon * 2.0 ** (np.arange(-8 * n, 1) / 8.0)])
    widths = np.diff(edges)
    times = edges[:-1] + widths * derive_rng(seed, f"{name}/times").random((SOJOURN_BATCHES, widths.size))
    times[:, 0] = 0.5 * widths[0]
    sizes = ensemble // SOJOURN_BATCHES + (np.arange(SOJOURN_BATCHES) < ensemble % SOJOURN_BATCHES)
    # batch b holds sizes[b] rows at each of its times, batch by batch
    per_time = np.repeat(sizes, widths.size)
    t = np.repeat(times.ravel(), per_time)
    x2 = np.sum(sample_marginal(spec, laws, t, t.size, seed, name=f"{name}/draws") ** 2, axis=1)
    first_rows = np.cumsum(per_time) - per_time
    out = []
    for target, theory, norms in (("graph", exp_graph, x2 + t * t), ("range", exp_range, x2)):
        within = np.add.reduceat(norms[:, None] <= radii**2, first_rows, axis=0, dtype=np.int64)
        hits = np.einsum("bkr,k->br", within.reshape(SOJOURN_BATCHES, widths.size, radii.size), widths)
        total = hits.sum(axis=0)
        means = total / ensemble
        stderrs = np.std(hits / sizes[:, None], axis=0, ddof=1) / math.sqrt(SOJOURN_BATCHES)
        fit = fit_loglog(radii, means)
        left_out = [fit_loglog(radii, (total - h) / (ensemble - size)).slope for h, size in zip(hits, sizes)]
        out.append(
            SojournEstimate(
                target=target,
                radii=radii,
                horizon=horizon,
                means=means,
                stderrs=stderrs,
                fit=fit,
                slope_stderr=float(np.std(left_out) * math.sqrt(SOJOURN_BATCHES - 1)),
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
    points: np.ndarray, gammas: np.ndarray, r_cut: float, buffers: PathBuffers | None = None
) -> np.ndarray:
    """(1/n^2) sum over ordered pairs i != j with ||P_i - P_j|| <= r_cut of ||.||^-gamma.

    Column 0 is time, and it must ascend (a path's rows and every
    decimation of them do): a near partner of row i then lies at most K
    rows later, K being the most rows any time window t_i + r_cut reaches.
    So the candidate pairs are (i, i + k) for the lags k = 1 .. K, taken a
    chunk of lags (and, for long samples, of rows) at a time, and the cost
    follows n K rather than n^2.  Each column is padded with K infinities,
    so a lag past the last row is never near.  The squared distance sums
    the columns in order on scratch that one chunk of
    ``_ENERGY_CANDIDATES`` pairs bounds, and d^2 <= r_cut^2 is the one
    radius test.  The near pairs of a chunk are summed for every gamma, in
    the given order, on that same scratch: d^-gamma = exp(-gamma/2 log d^2)
    for the first gamma by one ``exp``, then each next power by one
    multiply with d^-(gamma gap), one ``exp`` a distinct gap (a builtin
    grid, rounded to 10 digits, has 3), a piece of the near pairs at a time
    where the scratch cannot hold 1 + gaps rows of them all.  All of it
    lies on the slot 0 of ``buffers`` (fresh arrays when None), with the
    padded columns.
    """
    n, dim = points.shape
    times = points[:, 0]
    reach = r_cut * (1.0 + 1e-9)  # the time window only picks candidates
    ends = np.searchsorted(times, times + reach, side="right")
    ends -= np.arange(1, n + 1)
    lags = int(ends.max())
    del ends
    buffers = PathBuffers() if buffers is None else buffers
    rows = min(n, _ENERGY_CANDIDATES)
    width = _ENERGY_CANDIDATES // rows
    gaps, gap_of = np.unique(np.diff(gammas), return_inverse=True)
    # a row of the scratch holds a chunk's squared distances, and then the
    # powers of its near pairs: one row a gamma gap beside d^-gamma
    span = max(width * rows, 1 + gaps.size)
    store = buffers.take(0, (2 * span + dim * (n + lags),))
    d2_buf, diff_buf = store[: 2 * span].reshape(2, span)
    cols = store[2 * span :].reshape(dim, n + lags)
    cols[:, n:] = np.inf
    cols[:, :n] = points.T
    near_buf = np.empty(width * rows, dtype=bool)
    r2 = r_cut * r_cut
    sums = np.zeros(gammas.size)
    piece = span // (1 + gaps.size)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        for k in range(1, lags + 1, width):
            shape = (min(width, lags + 1 - k), stop - start)
            size = shape[0] * shape[1]
            d2, diff = d2_buf[:size].reshape(shape), diff_buf[:size].reshape(shape)
            for j, col in enumerate(cols):
                # row l of the window holds the partners at lag k + l
                later = sliding_window_view(col[start + k : stop + k + shape[0] - 1], shape[1])
                np.subtract(later, col[start:stop], out=diff)
                if j == 0:
                    np.multiply(diff, diff, out=d2)
                else:
                    np.multiply(diff, diff, out=diff)
                    np.add(d2, diff, out=d2)
            near = np.less_equal(d2_buf[:size], r2, out=near_buf[:size])
            d = diff_buf[: np.count_nonzero(near)]
            d[:] = d2_buf[:size][near]
            if not d.all():
                raise DegenerateSample("duplicate points in the energy subsample")
            log_d2 = np.log(d, out=d)
            # d^-gamma for the first gamma and d^-gap for each distinct gap,
            # then a multiply a gamma, a piece of the near pairs at a time
            for lo in range(0, log_d2.size, piece):
                part = log_d2[lo : lo + piece]
                power = d2_buf[: (1 + gaps.size) * part.size].reshape(1 + gaps.size, part.size)
                np.multiply(-0.5 * gammas[0], part, out=power[0])
                np.multiply(-0.5 * gaps[:, None], part, out=power[1:])
                np.exp(power, out=power)
                p, ratios = power[0], power[1:]
                sums[0] += p.sum()
                for g in range(1, gammas.size):
                    p *= ratios[gap_of[g - 1]]
                    sums[g] += p.sum()
    return 2.0 * sums / n**2


def energy_cover_level(borel: BorelSetSpec, n_needed: int) -> int | None:
    """The prefractal level at which :func:`energy_dimension` thins a Cantor
    set to ``n_needed`` pieces; None for other sets, which it takes at their
    box-counting cover."""
    if borel.kind is not SetKind.SELF_SIMILAR_CANTOR:
        return None
    return math.ceil(math.log(n_needed) / math.log(borel.m))


def check_energy_level(borel: BorelSetSpec, n_needed: int, n: int) -> int | None:
    """:func:`energy_cover_level`, after rejecting a level whose pieces are
    shorter than the step 2^-n of the grid, which cannot hold one grid point
    in each."""
    level = energy_cover_level(borel, n_needed)
    if level is not None and borel.r**level < 2.0**-n:
        raise DegenerateSample(
            f"grid too coarse to thin {n_needed} samples to level-{level} pieces; "
            "raise the grid depth or lower subsample * ratio"
        )
    return level


def _energy_candidates(
    path: LevyPath, borel: BorelSetSpec, cover_level, n_needed: int, buffers: PathBuffers | None = None
) -> np.ndarray:
    """The ascending int64 positions of the path's rows that carry the
    natural measure of B, one per structural cell, as a view of the slot 0
    of ``buffers`` (fresh arrays when None), found a chunk of rows at a time.

    On intervals every covered grid point qualifies.  On a self-similar set
    the candidates are thinned at the shallowest level L holding >= n_needed
    pieces (testing membership at that same level) to the first covered
    grid point of each cell floor(t / r^L), so that subsample spacings stay
    inside the set's self-similar scaling window instead of probing the
    interval-like remnant below the cover resolution.  The cells are not
    the pieces: a piece starts at a multiple of r^L only where the pitch is
    an integer multiple of r, and elsewhere it can straddle two cells
    (``cantor(2, 0.3)`` at n = 22 keeps 6 387 rows for its 4 096 level-12
    pieces); and a grid point that ends a piece starts a cell of its own
    (t = 1 does, so the middle-thirds set keeps 4 097 rows for 4 096).
    The path must hold every grid row of that cover.
    """
    level = check_energy_level(borel, n_needed, path.n)
    buffers = PathBuffers() if buffers is None else buffers
    size = path.values.shape[0]
    rows = buffers.take(0, (size,)).view(np.int64)
    found = 0
    last = -1  # the piece of the last candidate so far; times are >= 0
    for start, stop in chunks(size, 4):
        times = path.row_times.chunk(start, stop, out=buffers.take(1, (stop - start,)))
        part = borel.contains(times, path.n, cover_level if level is None else level)
        if level is not None and part.any():
            # the times ascend, so each piece's first row is where the piece changes
            piece = np.floor(times[part] / borel.r**level).astype(np.int64)
            part[part] = np.diff(piece, prepend=last) != 0
            last = piece[-1]
        hits = np.flatnonzero(part)
        np.add(hits, start, out=rows[found : found + hits.size])
        found += hits.size
    if found == 0:
        raise EmptyRestriction("no grid point falls inside the time set")
    return rows[:found]


def check_energy(gammas, subsample: int, ratio: int, n: int, borel: BorelSetSpec | None = None) -> None:
    """Reject energy inputs before any path: gammas that are empty, not
    finite or not > 0, a ratio below 2, a subsample below 1000, one whose
    two blocks (2 * subsample points) exceed the 2^n + 1 points of the grid
    or, given the time set ``borel``, a Cantor set that the grid is too
    coarse to thin to ``ratio * subsample`` pieces
    (:func:`check_energy_level`)."""
    gammas = np.asarray(gammas, dtype=float)
    if gammas.size == 0 or not np.all(np.isfinite(gammas)) or np.any(gammas <= 0.0):
        raise InvalidInputs(f"energy gammas must be finite and > 0, at least one, got {gammas.tolist()}")
    if ratio < 2:
        raise InvalidInputs(f"energy ratio must be >= 2, got {ratio}")
    if subsample < 10**3:
        raise DegenerateSample("energy estimate needs a subsample of >= 1e3 points")
    # 2 subsample - 1 <= 2^n exactly when (2 subsample - 2) has at most n bits
    if int(2 * subsample - 2).bit_length() > n:
        raise DegenerateSample(
            f"a grid of depth n={n} holds fewer than 2 * {subsample} points for the energy blocks"
        )
    if borel is not None:
        check_energy_level(borel, ratio * subsample, n)


def check_energy_points(candidates: int, subsample: int) -> None:
    """Reject a time set whose ``candidates`` usable grid points cannot fill
    the energy stage's two blocks of ``subsample`` points."""
    if candidates < 2 * subsample:
        raise DegenerateSample(f"time set holds only {candidates} usable grid points; need >= {2 * subsample}")


def energy_dimension(
    path: LevyPath,
    borel: BorelSetSpec,
    gammas,
    subsample: int,
    seed: int,
    ratio: int = 8,
    cover_level: int | None = None,
    _buffers: PathBuffers | None = None,
) -> EnergyEstimate:
    """Capacity (Frostman) lower-bound estimate of the graph dimension on B.

    Subsamples graph points over the grid points of B carrying its natural
    measure at sizes ``subsample`` and ``ratio * subsample`` by even
    decimation, computes near-pair energies over a gamma grid, and returns
    the largest gamma at which the energy is stable from below between the
    two resolutions.  It works on the slots of ``_buffers`` (fresh arrays
    when None) that the box count has left free.
    """
    check_energy(gammas, subsample, ratio, path.n)
    gammas = np.sort(np.asarray(gammas, dtype=float))
    buffers = PathBuffers() if _buffers is None else _buffers
    rows = _energy_candidates(path, borel, cover_level, ratio * subsample, buffers)
    candidates = rows.size
    check_energy_points(candidates, subsample)
    n_blocks = min(ratio, candidates // subsample)
    n_large = n_blocks * subsample
    # Evenly decimate the candidates so the large selection genuinely refines
    # the small ones: random subsets of one fixed grid share the same pair
    # distribution at every size and cannot reveal divergence.  The small
    # reference blocks interleave the large selection, giving n_blocks
    # disjoint copies at n_blocks-fold coarser resolution.
    stride = candidates // n_large
    rng = derive_rng(seed, "energy/subsample")
    slack = candidates - 1 - stride * (n_large - 1)
    chosen = rows[int(rng.integers(0, slack + 1)) + stride * np.arange(n_large)]
    del rows  # a view of the slot 0, which the kernels below may grow
    # the graph points (t, X(t)) of the large selection, one column a row of
    # ``columns`` on the slot 1; block b is every n_blocks-th of them from b
    columns = buffers.take(1, (1 + path.d, n_large))
    path.row_times.take(chosen, out=columns[0])
    for j in range(path.d):
        np.take(path.values[:, j], chosen, out=columns[1 + j])
    del chosen
    graph = columns.T

    # Truncation radii scale with each selection's own resolution: a fixed
    # multiple of the median consecutive-point distance.  Using the same
    # multiple at both resolutions makes the lattice-discreteness corrections
    # of the truncated sums cancel between the two sizes.  The distances sum
    # the squared steps column by column, in the order of a row norm.
    def _radius(points: np.ndarray) -> float:
        steps, diff = buffers.take(0, (2, points.shape[0] - 1))
        for j in range(points.shape[1]):
            np.subtract(points[1:, j], points[:-1, j], out=diff)
            if j == 0:
                np.multiply(diff, diff, out=steps)
            else:
                diff *= diff
                steps += diff
        np.sqrt(steps, out=steps)
        if not steps.all():
            raise DegenerateSample("duplicate points in the energy subsample")
        return RADIUS_FACTOR * float(np.quantile(steps, RADIUS_QUANTILE))

    r_small = _radius(graph[0::n_blocks])
    r_large = _radius(graph)

    # the large selection first: it most often needs the most of the slot 0,
    # which then grows at most once
    e_large = _near_pair_energies(graph, gammas, r_large, buffers)
    block_energies = np.array(
        [
            _near_pair_energies(graph[b::n_blocks], gammas, r_small, buffers)
            for b in range(n_blocks)
        ]
    )
    e_small = np.median(block_energies, axis=0)
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
