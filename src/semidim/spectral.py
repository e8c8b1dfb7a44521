"""Exponent validation, spectral decomposition and scaling operators.

An exponent is a real d x d matrix E together with a scaling constant c > 1.
Its eigenvalue real parts a_1 < ... < a_p (clustered numerically) induce a
direct-sum splitting of R^d into E-invariant subspaces V_1 ... V_p with block
matrices E_j, block dimensions d_j and spectral indices alpha_j = 1/a_j.

The invariant subspaces come from spectral projectors, each a difference of
two projectors (I - sign(E - tau I)) / 2 taken at the gaps tau between the
clusters; the matrix sign is the scaled Newton iteration, so numpy alone
suffices.  Each V_j gets the orthonormal basis of its projector's range, and
the resulting change of basis B satisfies B^{-1} E B = blockdiag(E_1, ..., E_p).
A splitting is refused with IllConditionedBasis when B is worse conditioned
than MAX_BASIS_COND or when some V_j is not invariant to within MAX_LEAK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import Record
from .errors import (
    DegenerateGrid,
    EigenvalueRealPartTooSmall,
    IllConditionedBasis,
    NotSquare,
    ScalingConstantOutOfRange,
)
from .fitting import ScalingFit, fit_loglog

# Eigenvalue real parts closer than this belong to one spectral block.
CLUSTER_TOL = 1e-8
# Slack on the a_j >= 1/2 validity bound, absorbing eigensolver rounding.
EIGENVALUE_TOL = 1e-10
MAX_BASIS_COND = 1e12
# Limits of the Newton sign iteration; see _sign.
SIGN_MAX_STEPS = 100
SIGN_TOL = 1e-14
SIGN_ROUGH = 1e-3
# A projector's singular values are 0 or >= 1; zeros sit below this share of the largest.
RANK_TOL = 1e-8
# A returned splitting leaks at most this share of max(1, max|E|) out of each
# V_j: max |(I - P_j) E P_j| over the oblique projectors P_j.
MAX_LEAK = 1e-10


@dataclass(frozen=True)
class ExponentSpec(Record):
    """A validated exponent matrix with scaling constant c > 1.

    Valid iff the matrix is square, c > 1 and every eigenvalue of the matrix
    has real part >= 1/2 (equivalently every spectral index alpha_j <= 2).
    """

    c: float
    matrix: np.ndarray
    d: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSquare(f"exponent matrix must be square, got shape {m.shape}")
        if not math.isfinite(self.c) or self.c <= 1.0:
            raise ScalingConstantOutOfRange(f"scaling constant must be > 1, got {self.c}")
        if not np.all(np.isfinite(m)):
            raise ValueError("exponent matrix contains non-finite entries")
        eigenvalues = np.linalg.eigvals(m)
        worst = int(np.argmin(eigenvalues.real))
        if eigenvalues.real[worst] < 0.5 - EIGENVALUE_TOL:
            raise EigenvalueRealPartTooSmall(complex(eigenvalues[worst]))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "d", int(m.shape[0]))
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @functools.cached_property
    def decomposition(self) -> "SpectralDecomposition":
        """The spectral decomposition, computed on first use and then kept."""
        return decompose(self)


@dataclass(frozen=True)
class SpectralBlock(Record):
    a: float
    alpha: float
    d: int
    basis: np.ndarray  # d_total x d, columns span V_j
    matrix: np.ndarray  # d x d block E_j in the computed basis


@dataclass(frozen=True)
class SpectralDecomposition(Record):
    p: int
    blocks: tuple[SpectralBlock, ...]
    change_of_basis: np.ndarray
    change_of_basis_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "change_of_basis_inv", _freeze(np.linalg.inv(self.change_of_basis)))

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(b.alpha for b in self.blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.d for b in self.blocks)

    def projector(self, j: int) -> np.ndarray:
        """Oblique projector onto V_j along the other invariant subspaces."""
        sl = slice(sum(self.block_dims[:j]), sum(self.block_dims[: j + 1]))
        return self.change_of_basis[:, sl] @ self.change_of_basis_inv[sl, :]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def validate_exponent(m, c: float) -> ExponentSpec:
    """Check that (m, c) is an admissible exponent; see :class:`ExponentSpec`."""
    return ExponentSpec(c=c, matrix=m)


def _cluster_real_parts(eigenvalues: np.ndarray) -> list[tuple[float, int]]:
    """Group eigenvalue real parts into (a_j, multiplicity) ascending in a_j."""
    parts = np.sort(eigenvalues.real)
    clusters: list[list[float]] = [[parts[0]]]
    for x in parts[1:]:
        if x - clusters[-1][-1] <= CLUSTER_TOL:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [(float(np.mean(cl)), len(cl)) for cl in clusters]


def _sign(m: np.ndarray) -> np.ndarray:
    """Matrix sign of m by the determinant-scaled Newton iteration
    X <- (mu X + (mu X)^-1) / 2 (Higham, Functions of Matrices, ch. 5).

    m is first divided by its largest entry, as the sign is scale-free and
    the scaling keeps det finite; mu = |det X|^(-1/d) comes from slogdet.
    The iteration stops when a step changes X by at most SIGN_TOL of its
    largest entry, or, once steps are below SIGN_ROUGH, when a step no
    longer shrinks: X then sits at its rounding level.  Either way X must
    also be an involution to rounding, max |X X - I| <= d SIGN_TOL max|X|^2,
    or the iteration goes on."""
    x = m / np.max(np.abs(m))
    d = x.shape[0]
    previous = np.inf
    with np.errstate(all="ignore"):
        for _ in range(SIGN_MAX_STEPS):
            try:
                mu = np.exp(-np.linalg.slogdet(x)[1] / d)
                step = 0.5 * (mu * x + np.linalg.inv(x) / mu)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            change = np.max(np.abs(step - x)) / np.max(np.abs(step))
            x = step
            stopped = change <= SIGN_TOL or previous < SIGN_ROUGH and change >= previous
            if stopped and np.max(np.abs(x @ x - np.eye(d))) <= d * SIGN_TOL * np.max(np.abs(x)) ** 2:
                return x
            previous = change
    raise IllConditionedBasis("matrix sign iteration did not converge")


def decompose(spec: ExponentSpec) -> SpectralDecomposition:
    """Spectral decomposition of a valid exponent, blocks ascending in a_j."""
    d = spec.d
    clusters = _cluster_real_parts(spec.eigenvalues)
    p = len(clusters)

    # P_<tau = (I - sign(E - tau I)) / 2 projects onto the sum of the V_j
    # with a_j < tau; cluster j's projector is the difference of the two
    # spanning it, and its leading left singular vectors are an orthonormal
    # basis of V_j.
    below = [np.zeros((d, d))]
    for (a_j, _), (a_next, _) in zip(clusters, clusters[1:]):
        tau = 0.5 * (a_j + a_next)
        below.append(0.5 * (np.eye(d) - _sign(spec.matrix - tau * np.eye(d))))
    below.append(np.eye(d))
    columns = []
    for j, (a_j, mult) in enumerate(clusters):
        u, sv, _ = np.linalg.svd(below[j + 1] - below[j])
        if not (sv[mult - 1] >= 0.5 and np.all(sv[mult:] <= RANK_TOL * sv[0])):
            raise IllConditionedBasis(
                f"spectral projector of the cluster at a={a_j:.6g} does not have rank {mult}"
            )
        columns.append(u[:, :mult])

    basis = np.hstack(columns)
    cond = np.linalg.cond(basis)
    if cond > MAX_BASIS_COND:
        raise IllConditionedBasis(f"change of basis condition number {cond:.3e}")
    block_form = np.linalg.inv(basis) @ spec.matrix @ basis

    blocks = []
    start = 0
    for a_j, mult in clusters:
        stop = start + mult
        blocks.append(
            SpectralBlock(
                a=a_j,
                alpha=1.0 / a_j,
                d=mult,
                basis=_freeze(basis[:, start:stop]),
                matrix=_freeze(block_form[start:stop, start:stop]),
            )
        )
        start = stop
    dec = SpectralDecomposition(
        p=p,
        blocks=tuple(blocks),
        change_of_basis=_freeze(basis),
    )
    # The basis is well enough conditioned; check that it also decouples E.
    bound = MAX_LEAK * max(1.0, float(np.max(np.abs(spec.matrix))))
    with np.errstate(all="ignore"):
        for j, (a_j, _) in enumerate(clusters):
            proj = dec.projector(j)
            leak = np.max(np.abs((np.eye(d) - proj) @ spec.matrix @ proj))
            if not leak <= bound:
                raise IllConditionedBasis(
                    f"invariant subspace at a={a_j:.6g} leaks {leak:.3e}, over {bound:.3e}"
                )
    return dec


def _as_matrix(e) -> np.ndarray:
    if isinstance(e, (ExponentSpec, SpectralBlock)):
        return e.matrix
    return np.asarray(e, dtype=float)


def scaling_operator(e, s: float) -> np.ndarray:
    """s^E = exp(log(s) * E) by scaling-and-squaring; exact identity at s=1."""
    m = _as_matrix(e)
    if not (s > 0 and math.isfinite(s)):
        raise ValueError(f"scale must be a positive finite real, got {s}")
    if s == 1.0:
        return np.eye(m.shape[0])
    import scipy.linalg  # here alone: loading it takes longer than loading semidim

    return scipy.linalg.expm(math.log(s) * m)


def norm_growth_fit(block, grid) -> ScalingFit:
    """Fit the growth exponent of ||t^{E_j}|| (spectral norm) as t -> 0.

    The slope is fitted over the smallest-t quarter of the log-spaced grid,
    where the power law of the growth bound dominates.  For diagonalizable
    blocks of modest conditioning the slope sits within +-0.02 of a_j; for
    defective blocks the logarithmic factor biases it below, within
    [a_j - 0.1, a_j + 0.02] on grids reaching t = 1e-6.
    """
    t = np.unique(np.asarray(grid, dtype=float))
    if t.size < 2:
        raise DegenerateGrid("need at least 2 distinct scales")
    if np.any(t <= 0) or np.any(t > 1):
        raise ValueError("grid values must lie in (0, 1]")
    if t.size < 20 or t[-1] / t[0] < 1e4:
        raise DegenerateGrid("grid must have >= 20 points spanning >= 4 decades")
    m = _as_matrix(block)
    norms = np.array([np.linalg.norm(scaling_operator(m, ti), 2) for ti in t])
    log_t = np.log(t)
    cutoff = log_t[0] + 0.25 * (log_t[-1] - log_t[0])
    tail = log_t <= cutoff
    if np.count_nonzero(tail) < 2:
        tail[: max(2, tail.sum())] = True
    return fit_loglog(t[tail], norms[tail])
