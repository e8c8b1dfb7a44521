"""Analytic time sets B in [0, 1] with exactly known Hausdorff dimension.

Three families: intervals, self-similar Cantor sets (m pieces of ratio r,
m*r <= 1, pieces spread evenly so the set spans [0, 1]), and finite unions.
A Cantor set is handled through its level-L prefractal cover of m^L
intervals of length r^L; L is chosen from the grid depth n so that every
cover interval still holds a few grid points.

Every path lies on the same grid t_k = k 2^-n, so the restriction of a path
to B depends only on (B, n, L): :meth:`BorelSetSpec.mask` computes it once
per grid, and the estimators take the mask.  :meth:`BorelSetSpec.contains`
is the same test on given times, such as the rows a path holds.
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
from .laws import chunks

# Grid points each piece of an automatic prefractal cover must hold.
COVER_MIN_POINTS = 2
# Slack of a cover piece's ends, in units of the piece it lies in.
_SLACK = 1e-12
# Rounding error of a time's offset in its level-1 piece, about an ulp of 1;
# each deeper level grows it by 1/r, past _SLACK where r^level is small.
_ROUNDING = float(np.finfo(float).eps)


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
        :meth:`contains` on the grid of depth n, a chunk of grid times at a
        time (its temporaries take about 4 values a time), so that its
        scratch is bounded by the chunk, not by the grid.  The chunks give
        the mask of the whole grid bit for bit: k 2^-n is exact, and
        :meth:`contains` tests each time on its own.
        """
        out = np.empty(2**n + 1, dtype=bool)
        for start, stop in chunks(out.size, 4):
            out[start:stop] = self.contains(np.arange(start, stop) * 2.0**-n, n, level)
        return out

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
