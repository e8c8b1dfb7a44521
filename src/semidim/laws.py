"""Increment samplers for the block laws of the path simulator.

Three families are supported, one per admissible spectral block shape:

* symmetric alpha-stable on R (Chambers-Mallows-Stuck), exact for all
  alpha in (0, 2]; alpha = 2 gives a centered Gaussian of variance
  2 * scale**2 under the standard stable scale convention
  E exp(i theta X) = exp(-(scale * |theta|)**alpha);
* isotropic alpha-stable on R^2 via the sub-Gaussian representation
  sqrt(A) * N(0, 2 * scale**2 * I) with A one-sided (alpha/2)-stable;
* a discrete semistable family with Levy-measure atoms at +-c^(k/alpha)
  of mass c^(-k), k in Z, simulated as compound Poisson above a truncation
  level k_min with Gaussian compensation of the removed small jumps.

The discrete family scales only along the geometric sequence c^k, which is
what distinguishes semistable from stable paths: X(c*dt) matches
c^(1/alpha) * X(dt) in distribution, while intermediate scale factors do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import Record
from .errors import AlphaOutOfRange, BudgetExceeded, TruncationTooCoarse

DEFAULT_K_MIN = -25
# Neglected-tail probability budget used to pick the largest simulated atom.
_ATOM_TAIL_BUDGET = 1e-12
# Most atoms one draw walks, two Poisson draws each: a deeper truncation, or
# a c nearer 1, is rejected before the atom arrays are built.
_MAX_ATOMS = 10**5


def _check_alpha(alpha: float, upper_inclusive: bool = True) -> None:
    ok = 0.0 < alpha <= 2.0 if upper_inclusive else 0.0 < alpha < 2.0
    if not ok:
        bound = "(0, 2]" if upper_inclusive else "(0, 2)"
        raise AlphaOutOfRange(f"alpha must be in {bound}, got {alpha}")


def sample_stable_increment(alpha: float, scale: float, rng: np.random.Generator, size=None):
    """Symmetric alpha-stable variates by the CMS construction.

    The single formula below is continuous in alpha and reduces to tan(U)
    at alpha = 1 and to 2 sin(U) sqrt(W) (exactly Gaussian, variance 2) at
    alpha = 2.
    """
    _check_alpha(alpha)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=size)
    w = rng.exponential(1.0, size=size)
    x = (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )
    return scale * x


def sample_one_sided_stable(gamma: float, rng: np.random.Generator, size=None):
    """Positive gamma-stable variates with E exp(-lam*A) = exp(-lam**gamma)."""
    if not 0.0 < gamma < 1.0:
        raise AlphaOutOfRange(f"one-sided index must be in (0, 1), got {gamma}")
    u = rng.uniform(-math.pi / 2, math.pi / 2, size=size)
    w = rng.exponential(1.0, size=size)
    return (
        np.sin(gamma * (u + math.pi / 2))
        / np.cos(u) ** (1.0 / gamma)
        * (np.cos(gamma * math.pi / 2 + (gamma - 1.0) * u) / w) ** ((1.0 - gamma) / gamma)
    )


def sample_isotropic_stable_2d(alpha: float, scale: float, rng: np.random.Generator, size=None):
    """Isotropic alpha-stable vectors in R^2, shape (..., 2).

    E exp(i <theta, X>) = exp(-(scale * |theta|)**alpha); rotation invariant
    by construction.
    """
    _check_alpha(alpha)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    shape = () if size is None else (size if isinstance(size, tuple) else (size,))
    g = rng.standard_normal(shape + (2,))
    if alpha == 2.0:
        return math.sqrt(2.0) * scale * g
    a = sample_one_sided_stable(alpha / 2.0, rng, size=size)
    return math.sqrt(2.0) * scale * np.sqrt(a)[..., None] * g


def semistable_atom_range(alpha: float, c: float, dt: float, k_min: int, n_samples: int = 1):
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


def sample_semistable_increment(
    alpha: float,
    c: float,
    dt: float,
    rng: np.random.Generator,
    k_min: int = DEFAULT_K_MIN,
    size=None,
):
    """Increments of the discrete semistable law over a time step dt.

    By Poisson thinning, the net signed jump count of atom k is the
    difference N+ - N- of two independent Poisson(dt * c^-k / 2) counts, so
    each atom costs two Poisson draws of n variates with one scalar
    intensity, accumulated as c^(k/alpha) * (N+ - N-) into one float
    vector; memory is O(n).  Atoms are walked from the largest down, so two
    truncation depths k_min share the draws of their common atoms.  Atoms
    with intensity below 1e-3 draw one global Poisson count instead, whose
    jumps land on uniformly chosen samples with random signs.

    TruncationTooCoarse fires when the compensation Gaussian would rival the
    increment's own scale dt^(1/alpha), i.e. when k_min is too shallow for
    this dt (:func:`check_truncation`), and BudgetExceeded when the walk
    would take more than ``_MAX_ATOMS`` atoms.
    """
    _check_alpha(alpha, upper_inclusive=False)
    if c <= 1.0:
        raise ValueError(f"semistable scaling constant must be > 1, got {c}")
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    check_truncation(alpha, c, dt, k_min)
    n = 1 if size is None else int(np.prod(size))
    ks, lam = semistable_atom_range(alpha, c, dt, k_min, n_samples=n)
    sigma = compensation_std(alpha, c, dt, k_min)
    heights = np.power(float(c), ks.astype(float) / alpha)
    out = np.zeros(n)
    for h, lam_k in zip(heights[::-1], lam[::-1]):
        if lam_k >= 1e-3:
            net = rng.poisson(0.5 * lam_k, n) - rng.poisson(0.5 * lam_k, n)
            out += h * net
        else:
            total = rng.poisson(n * lam_k)
            if total:
                where = rng.integers(0, n, size=total)
                signs = 2 * rng.integers(0, 2, size=total) - 1
                np.add.at(out, where, signs * h)
    out += sigma * rng.standard_normal(n)
    if size is None:
        return float(out[0])
    return out.reshape(size)


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
        else:
            _check_alpha(self.alpha)
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    def sample_increments(self, dt: float, n: int, rng: np.random.Generator) -> np.ndarray:
        """n iid increments over time step dt; shape (n,) or (n, 2)."""
        if self.kind is LawKind.STABLE_SYMMETRIC:
            return sample_stable_increment(self.alpha, self.scale * dt ** (1.0 / self.alpha), rng, size=n)
        if self.kind is LawKind.STABLE_ISOTROPIC_2D:
            return sample_isotropic_stable_2d(self.alpha, self.scale * dt ** (1.0 / self.alpha), rng, size=n)
        return self.scale * sample_semistable_increment(
            self.alpha, self.c, dt, rng, k_min=self.k_min, size=n
        )

    def as_dict(self) -> dict:
        """Only the semistable law writes its scaling constant and truncation."""
        out = super().as_dict()
        if self.kind is not LawKind.SEMISTABLE_DISCRETE:
            del out["c"], out["k_min"]
        return out
