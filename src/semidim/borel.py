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

import numpy as np

from .codec import Record
from .errors import DegenerateSample


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

    def _piece_offsets(self) -> np.ndarray:
        # Left endpoints of the m first-level pieces, evenly spread so that
        # the first starts at 0 and the last ends at 1.
        if self.m == 1:
            return np.array([0.0])
        return np.arange(self.m) * (1.0 - self.r) / (self.m - 1)

    def cover_level(self, grid_step: float, min_points: int = 2) -> int:
        """Deepest prefractal level whose pieces hold >= min_points grid points."""
        if self.kind is not SetKind.SELF_SIMILAR_CANTOR:
            return 0
        level = int(math.floor(math.log(grid_step * min_points) / math.log(self.r)))
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
        offsets = self._piece_offsets()
        pitch = offsets[1] - offsets[0] if self.m > 1 else 1.0
        x = t.copy()
        alive = (x >= -1e-12) & (x <= 1.0 + 1e-12)
        for _ in range(level):
            idx = np.clip(np.floor(x / pitch).astype(int), 0, self.m - 1) if self.m > 1 else np.zeros(x.shape, int)
            rel = x - offsets[idx]
            inside = (rel >= -1e-12) & (rel <= self.r + 1e-12)
            alive &= inside
            x = np.where(inside, rel / self.r, 0.0)
        return alive

    def sample_times(
        self, rng: np.random.Generator, n: int, level: int = 20
    ) -> np.ndarray:
        """Draw n times from the natural measure on B.

        Uniform on intervals; the balanced-branch measure (equal mass per
        piece at every level) on Cantor sets; on unions, mass goes to the
        member(s) of maximal dimension, split evenly among ties.
        """
        if self.kind is SetKind.INTERVAL:
            if self.b <= self.a:
                return np.full(n, self.a)
            return rng.uniform(self.a, self.b, size=n)
        if self.kind is SetKind.FINITE_UNION:
            top = self.hausdorff_dim
            carriers = [mb for mb in self.members if mb.hausdorff_dim >= top - 1e-12]
            picks = rng.integers(0, len(carriers), size=n)
            out = np.empty(n)
            for i, member in enumerate(carriers):
                sel = picks == i
                if np.any(sel):
                    out[sel] = member.sample_times(rng, int(sel.sum()), level)
            return out
        offsets = self._piece_offsets()
        branches = rng.integers(0, self.m, size=(n, level))
        t = rng.uniform(0.0, 1.0, size=n) * self.r**level
        scale = 1.0
        for ell in range(level):
            t += offsets[branches[:, ell]] * scale
            scale *= self.r
        return t

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


def _grid_step(times: np.ndarray) -> float:
    if times.size < 2:
        raise DegenerateSample("need at least two grid times")
    return float(np.min(np.diff(np.sort(times))))
