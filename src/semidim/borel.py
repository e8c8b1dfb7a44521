"""Analytic time sets B in [0, 1] with exactly known Hausdorff dimension.

Three families: intervals, self-similar Cantor sets (m pieces of ratio r,
m*r <= 1, pieces spread evenly so the set spans [0, 1]), and finite unions.
A Cantor set is handled through its level-L prefractal cover of m^L
intervals of length r^L; L is chosen from the sampling grid so that every
cover interval still holds a few grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .codec import Record
from .errors import DegenerateSample

# Grid points each piece of an automatic prefractal cover must hold.
COVER_MIN_POINTS = 2


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
            if self.m < 2 or not 0.0 < self.r < 1.0 or self.m * self.r > 1.0 + 1e-12:
                raise ValueError(
                    f"Cantor set needs m >= 2, 0 < r < 1 and m*r <= 1, got m={self.m}, r={self.r}"
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

    def cover_level(self, grid_step: float) -> int:
        """Deepest prefractal level whose pieces hold >= COVER_MIN_POINTS grid points."""
        if self.kind is not SetKind.SELF_SIMILAR_CANTOR:
            return 0
        level = int(math.floor(math.log(grid_step * COVER_MIN_POINTS) / math.log(self.r)))
        return max(1, level)

    def mask(self, times: np.ndarray, level: int | None = None) -> np.ndarray:
        """Boolean mask of grid times lying in B (prefractal cover for Cantor).

        ``level`` overrides the automatic cover depth; it is ignored for
        intervals and passed through to Cantor members of a union.
        """
        t = np.asarray(times, dtype=float)
        if self.kind is SetKind.INTERVAL:
            return (t >= self.a) & (t <= self.b)
        if self.kind is SetKind.FINITE_UNION:
            out = np.zeros(t.shape, dtype=bool)
            for member in self.members:
                out |= member.mask(t, level)
            return out
        if level is None:
            step = _grid_step(t)
            level = self.cover_level(step)
        # Left endpoints of the m first-level pieces, evenly spread so that
        # the first starts at 0 and the last ends at 1 (m >= 2).
        offsets = np.arange(self.m) * (1.0 - self.r) / (self.m - 1)
        pitch = offsets[1] - offsets[0]
        x = t.copy()
        alive = (x >= -1e-12) & (x <= 1.0 + 1e-12)
        for _ in range(level):
            idx = np.clip(np.floor(x / pitch).astype(int), 0, self.m - 1)
            rel = x - offsets[idx]
            inside = (rel >= -1e-12) & (rel <= self.r + 1e-12)
            alive &= inside
            x = np.where(inside, rel / self.r, 0.0)
        return alive

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
    return BorelSetSpec.from_json(Path(arg).read_text() if Path(arg).exists() else arg)


def _grid_step(times: np.ndarray) -> float:
    if times.size < 2:
        raise DegenerateSample("need at least two grid times")
    return float(np.min(np.diff(np.sort(times))))
