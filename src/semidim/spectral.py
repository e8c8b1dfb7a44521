"""Exponent validation, spectral decomposition and scaling operators.

An exponent is a real d x d matrix E together with a scaling constant c > 1.
Its eigenvalue real parts a_1 < ... < a_p (clustered numerically) induce a
direct-sum splitting of R^d into E-invariant subspaces V_1 ... V_p with block
matrices E_j, block dimensions d_j and spectral indices alpha_j = 1/a_j.

The invariant subspaces are obtained from an ordered real Schur form followed
by Sylvester-equation elimination of the coupling blocks, which is far better
conditioned than polynomial kernels.  The resulting change of basis B
satisfies B^{-1} E B = blockdiag(E_1, ..., E_p).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


def decompose(spec: ExponentSpec) -> SpectralDecomposition:
    """Spectral decomposition of a valid exponent, blocks ascending in a_j."""
    d = spec.d
    clusters = _cluster_real_parts(spec.eigenvalues)
    p = len(clusters)

    # Stage 1: orthogonal reduction to quasi-triangular form with the
    # eigenvalue clusters appearing in ascending-a_j order on the diagonal.
    q_total = np.eye(d)
    t_full = np.array(spec.matrix, dtype=float)
    done = 0
    for j, (a_j, mult) in enumerate(clusters):
        if done + mult == d and j == p - 1:
            sub = t_full[done:, done:]
            t_sub, q_sub = scipy.linalg.schur(sub, output="real")
            sdim = mult
        else:
            upper = 0.5 * (a_j + clusters[j + 1][0])
            sub = t_full[done:, done:]
            t_sub, q_sub, sdim = scipy.linalg.schur(
                sub, output="real", sort=lambda re, im, u=upper: re < u
            )
        if sdim != mult:
            raise IllConditionedBasis(
                f"Schur reordering selected {sdim} eigenvalues for cluster at "
                f"a={a_j:.6g}, expected {mult}"
            )
        emb = np.eye(d)
        emb[done:, done:] = q_sub
        q_total = q_total @ emb
        t_full[done:, done:] = t_sub
        if done:
            t_full[:done, done:] = t_full[:done, done:] @ q_sub
        done += mult

    # Stage 2: annihilate the coupling blocks with Sylvester solves, giving a
    # (generally non-orthogonal) basis in which E is block diagonal.
    s_total = np.eye(d)
    start = 0
    for a_j, mult in clusters[:-1]:
        stop = start + mult
        a_blk = t_full[start:stop, start:stop]
        b_blk = t_full[stop:, stop:]
        c_blk = t_full[start:stop, stop:]
        x = scipy.linalg.solve_sylvester(a_blk, -b_blk, -c_blk)
        s_step = np.eye(d)
        s_step[start:stop, stop:] = x
        s_total = s_total @ s_step
        t_full[start:stop, stop:] = 0.0
        start = stop

    basis = q_total @ s_total
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
    return SpectralDecomposition(
        p=p,
        blocks=tuple(blocks),
        change_of_basis=_freeze(basis),
    )


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
