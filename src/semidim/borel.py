"""Analytic time sets B in [0, 1] with exactly known Hausdorff dimension.

Three families: intervals, self-similar Cantor sets (m pieces of ratio r,
m*r <= 1, pieces spread evenly so the set spans [0, 1]), and finite unions.
A Cantor set is handled through its level-L prefractal cover of m^L
intervals of length r^L; L is chosen from the grid depth n so that every
cover interval still holds a few grid points.

Every path lies on the same grid t_k = k 2^-n, so the restriction of a path
to B depends only on (B, n, L): :meth:`BorelSetSpec.mask` computes it once
per grid, and the estimators take the mask.  :meth:`BorelSetSpec.contains`
is the test on given times, such as the rows a path holds; the mask is that
test on the grid, bit for bit, built from the pieces (an interval is one)
rather than time by time: it fills the grid rows between the ends of each
piece and re-tests with :meth:`BorelSetSpec.contains` only the rows near an
end, where the two could differ.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .codec import Record
from .errors import InvalidInputs, ResolutionTooCoarse
from . import laws as _laws
from .laws import chunks

# Grid points each piece of an automatic prefractal cover must hold.
COVER_MIN_POINTS = 2
# Slack of a cover piece's ends, in units of the piece it lies in.
_SLACK = 1e-12
# Rounding error of a time's offset in its level-1 piece, about an ulp of 1;
# each deeper level grows it by 1/r, past _SLACK where r^level is small.
_ROUNDING = float(np.finfo(float).eps)
# Rounding, in units of t and of _ROUNDING, with which BorelSetSpec.contains
# may decide a time unlike the exact cover beyond its slack: an offset's
# error at level j, in units of t, is about 3 ulps of 1 times r^(j-1), which
# sums to 6 ulps over all levels as r <= 1/2, and its digit's floor adds
# one; doubled.
_DECIDE = 16
# BorelSetSpec.mask builds a Cantor cover from its pieces while they number
# at most 1/_PIECE_COST of the grid rows: a piece's run and the rows near its
# ends cost about as much as that many rows tested time by time.  At n = 20
# on a 2-core x86-64 host, 2^16 pieces took 8-23 ms against 42-74 ms for the
# grid time by time, and 2^18 pieces 31-96 ms against 44-83 ms, as r varies.
_PIECE_COST = 8


class SetKind(Enum):
    INTERVAL = "INTERVAL"
    SELF_SIMILAR_CANTOR = "SELF_SIMILAR_CANTOR"
    FINITE_UNION = "FINITE_UNION"


@dataclass(frozen=True)
class BorelSetSpec(Record):
    kind: SetKind
    a: float = 0.0
    b: float = 1.0
    m: int = 2
    r: float = 1.0 / 3.0
    members: tuple["BorelSetSpec", ...] = ()

    def __post_init__(self):
        if self.kind is SetKind.INTERVAL:
            if not 0.0 <= self.a <= self.b <= 1.0:
                raise ValueError(f"interval [{self.a}, {self.b}] must sit inside [0, 1]")
        elif self.kind is SetKind.SELF_SIMILAR_CANTOR:
            # m <= 2^53 keeps every piece index an exact float
            if not 2 <= self.m <= 2**53 or not 0.0 < self.r < 1.0 or self.m * self.r > 1.0 + 1e-12:
                raise ValueError(
                    f"Cantor set needs 2 <= m <= 2^53, 0 < r < 1 and m*r <= 1, got m={self.m}, r={self.r}"
                )
        elif not self.members:
            raise ValueError("finite union needs at least one member")

    @property
    def hausdorff_dim(self) -> float:
        """Exact dimension: intervals are 1 (0 when degenerate), Cantor sets
        log(m)/log(1/r), unions the max over members."""
        if self.kind is SetKind.INTERVAL:
            return 1.0 if self.b > self.a else 0.0
        if self.kind is SetKind.SELF_SIMILAR_CANTOR:
            return math.log(self.m) / math.log(1.0 / self.r)
        return max(member.hausdorff_dim for member in self.members)

    def cover_level(self, n: int) -> int:
        """Deepest prefractal level whose pieces hold >= COVER_MIN_POINTS
        points of the grid of depth n."""
        if self.kind is not SetKind.SELF_SIMILAR_CANTOR:
            return 0
        level = int(math.floor(math.log(2.0**-n * COVER_MIN_POINTS) / math.log(self.r)))
        return max(1, level)

    def mask(self, n: int, level: int | None = None) -> np.ndarray:
        """Boolean mask of the grid times k 2^-n, k = 0 .. 2^n, lying in B:
        :meth:`contains` on the grid of depth n, bit for bit.

        A union's mask is the OR of its members'.  An interval, or each of a
        Cantor set's m^L level-L cover pieces [s, s + r^L] (s the sum over
        levels j of d_j pitch r^(j-1)), fills its run of grid rows
        ceil(s 2^n) .. floor((s + r^L) 2^n), and then the rows within
        :func:`_reach` of a computed end (on the middle-thirds set, only
        t = 0 and t = 1) are tested with :meth:`contains`.  Elsewhere the
        two agree: every level's piece ends at an end of one of its level-L
        pieces, so a time that :meth:`contains` decides unlike the exact
        cover lies within its slack and rounding of a level-L end, and a
        computed end lies within its own rounding of the exact one.

        The pieces go a chunk at a time.  A chunk's runs are filled by one
        ``np.repeat`` of runs and gaps where they span at most 8
        ``laws.CHUNK`` rows (a byte a row: the bytes of ``CHUNK`` values),
        else by one slice a run, of which there are then few.  Where the
        pieces number more than (2^n + 1) / _PIECE_COST, so that a piece
        costs as much as the rows it spares (and always where there are
        more pieces than grid rows), the grid is tested a chunk of times at
        a time instead (the temporaries of :meth:`contains` take about 4
        values a time).  Either way the scratch is bounded by the chunk, not
        by the grid, and no chunk edge moves a bit: k 2^-n is exact, and
        :meth:`contains` tests each time on its own.
        """
        out = np.zeros(2**n + 1, dtype=bool)
        if self.kind is SetKind.FINITE_UNION:
            for member in self.members:
                out |= member.mask(n, level)
            return out
        if self.kind is SetKind.SELF_SIMILAR_CANTOR:
            level = self.cover_level(n) if level is None else level
            # m >= 2, so a level past n has more than 2^n + 1 pieces
            if level > n or _PIECE_COST * self.m**level > out.size:
                for start, stop in chunks(out.size, 4):
                    out[start:stop] = self.contains(np.arange(start, stop) * 2.0**-n, n, level)
                return out
        reach = _reach(level or 0)
        # the rows floor(x 2^n) + j, j in ``near``, hold every row within reach of x
        near = np.arange(-int(reach * 2.0**n), int(reach * 2.0**n) + 2)
        # a piece's two ends and their two rows, and beside each end its
        # near rows, their times and the temporaries of contains on them
        width = 4 + 12 * near.size
        last = -1  # the last row filled so far
        for s, e in self._pieces(level, width):
            lo, hi = np.ceil(s * 2.0**n).astype(np.int64), np.floor(e * 2.0**n).astype(np.int64)
            # each run starts after every run before it ends, and the empty
            # ones go: the runs of disjoint pieces overlap only where their
            # ends round together
            np.maximum(lo, np.maximum.accumulate(np.concatenate(([last], hi[:-1]))) + 1, out=lo)
            lo, hi = lo[lo <= hi], hi[lo <= hi]
            if not lo.size:
                continue
            if hi[-1] - lo[0] < 8 * _laws.CHUNK:
                lengths = np.empty(2 * lo.size - 1, dtype=np.int64)
                lengths[0::2] = hi - lo + 1
                lengths[1::2] = lo[1:] - hi[:-1] - 1
                out[lo[0] : hi[-1] + 1] = np.repeat(np.arange(lengths.size) % 2 == 0, lengths)
            else:
                for first, stop in zip(lo.tolist(), (hi + 1).tolist()):
                    out[first:stop] = True
            last = hi[-1]
        for s, e in self._pieces(level, width):
            ends = np.concatenate([s, e])[:, None]
            rows = np.floor(ends * 2.0**n).astype(np.int64) + near
            rows = rows[(np.abs(rows * 2.0**-n - ends) <= reach) & (rows >= 0) & (rows < out.size)]
            if rows.size:
                out[rows] = self.contains(rows * 2.0**-n, n, level)
        return out

    def _pieces(self, level: int | None, width: int):
        """Yield (s, e), the computed ends of the interval or of the
        level-``level`` Cantor pieces in order, ``width`` values a piece at a
        time.  A Cantor piece's start sums its levels' terms from the
        deepest up: the deepest levels' offsets, as many as a chunk holds,
        are formed once, level by level, and each chunk adds them to the
        starts of a run of its shallower pieces."""
        if self.kind is SetKind.INTERVAL:
            yield np.array([self.a]), np.array([self.b])
            return
        steps = (1.0 - self.r) / (self.m - 1) * self.r ** np.arange(level)
        rows = max(_laws.CHUNK // width, 1)
        deep, top = np.zeros(1), level
        while top > 0 and deep.size * self.m <= rows:
            top -= 1
            deep = (np.arange(self.m)[:, None] * steps[top] + deep).ravel()
        for first, stop in chunks(self.m**top, width * deep.size):
            index, start = np.arange(first, stop), np.zeros(stop - first)
            for j in range(top - 1, -1, -1):
                index, digit = np.divmod(index, self.m)  # the digit of level j + 1
                start += digit * steps[j]
            s = (start[:, None] + deep).ravel()
            yield s, s + self.r**level

    def contains(self, t: np.ndarray, n: int, level: int | None = None) -> np.ndarray:
        """Which times ``t`` lie in B (in the level-``level`` prefractal cover
        for a Cantor set), tested time by time, so that the test of a grid
        time is the same wherever the grid is cut.

        ``level`` overrides the automatic cover depth of the grid of depth n;
        it is ignored for intervals and passed through to Cantor members of a
        union.
        """
        if self.kind is SetKind.FINITE_UNION:
            out = np.zeros(np.shape(t), dtype=bool)
            for member in self.members:
                out |= member.contains(t, n, level)
            return out
        if self.kind is SetKind.INTERVAL:
            return (t >= self.a) & (t <= self.b)
        if level is None:
            level = self.cover_level(n)
        # Piece k of the m first-level pieces starts at k * pitch, evenly
        # spread so that the first starts at 0 and the last ends at 1 (m >= 2).
        pitch = (1.0 - self.r) / (self.m - 1)
        # x holds the times still alive, in order, each rescaled to its
        # position in its piece
        x = np.array(t, dtype=float).ravel()
        alive = np.ones(x.size, dtype=bool)
        growth = 1.0  # r^-j after j levels
        for _ in range(level):
            x -= np.clip(np.floor(x / pitch), 0, self.m - 1) * (1.0 - self.r) / (self.m - 1)
            slack = max(_SLACK, _ROUNDING * growth)
            inside = (x >= -slack) & (x <= self.r + slack)
            if not inside.all():
                alive[alive] = inside
                x = x[inside]
            x /= self.r
            growth /= self.r
        return alive.reshape(np.shape(t))

    def as_dict(self) -> dict:
        """Only the fields that define this kind of set are written."""
        keep = {
            SetKind.INTERVAL: ("a", "b"),
            SetKind.SELF_SIMILAR_CANTOR: ("m", "r"),
            SetKind.FINITE_UNION: ("members",),
        }[self.kind]
        return {k: v for k, v in super().as_dict().items() if k == "kind" or k in keep}


def _reach(level: int) -> float:
    """Distance, in units of t, from a computed end of an interval or of a
    level-``level`` Cantor piece, beyond which :meth:`BorelSetSpec.contains`
    decides a time as the filled runs of :meth:`BorelSetSpec.mask` do.

    :meth:`BorelSetSpec.contains` decides a time unlike the exact cover only
    within _SLACK and _DECIDE ulps of 1 of a level-L piece end: its slack at
    level j is, in units of t, the larger of _SLACK r^(j-1) and an ulp of 1,
    so _SLACK at most.  A computed end sums ``level`` terms, each rounded a
    few times and all together below 1, and then r^L, so it lies within
    level + 8 ulps of 1 of the exact end, which also covers the rounding of
    a row's distance to it."""
    return _SLACK + (_DECIDE + level + 8) * _ROUNDING


def interval(a: float = 0.0, b: float = 1.0) -> BorelSetSpec:
    return BorelSetSpec(SetKind.INTERVAL, a=a, b=b)


def cantor(m: int = 2, r: float = 1.0 / 3.0) -> BorelSetSpec:
    return BorelSetSpec(SetKind.SELF_SIMILAR_CANTOR, m=m, r=r)


def union(*members: BorelSetSpec) -> BorelSetSpec:
    return BorelSetSpec(SetKind.FINITE_UNION, members=tuple(members))


def time_set(arg: str | BorelSetSpec | None) -> BorelSetSpec:
    """A time set from a spec, None ([0, 1]), "cantor" (the middle-thirds
    set), a JSON file or inline JSON."""
    if arg is None:
        return interval(0.0, 1.0)
    if isinstance(arg, BorelSetSpec):
        return arg
    if arg == "cantor":
        return cantor(2, 1.0 / 3.0)
    # os.path.exists, unlike Path.exists, is False for a string too long to name a file
    return BorelSetSpec.from_json(Path(arg).read_text() if os.path.exists(arg) else arg)


def check_time_set(borel: BorelSetSpec) -> None:
    """Reject a time set of Hausdorff dimension 0, an interval with b = a or
    a union of such intervals: its graph has no dimension to estimate."""
    if borel.hausdorff_dim == 0.0:
        raise InvalidInputs(f"time set {borel.to_json()} has Hausdorff dimension 0; an interval needs b > a")


def check_cover_level(borel: BorelSetSpec, level: int | None, n: int) -> None:
    """Reject a cover level below 1, or one whose pieces r^level are shorter,
    for some Cantor member of B, than the step 2^-n of the grid of depth n.
    Compared in log2; as r <= 1/2, a level above n is rejected before the
    product is formed, so that no level overflows."""
    if level is None:
        return
    if level < 1:
        raise InvalidInputs(f"cover level must be >= 1, got {level}")
    for member in borel.members:
        check_cover_level(member, level, n)
    cantor = borel.kind is SetKind.SELF_SIMILAR_CANTOR
    if cantor and (level > n or level * math.log2(borel.r) < -n):
        raise ResolutionTooCoarse(
            f"cover level {level} has pieces shorter than the grid step 2^-{n}"
        )
