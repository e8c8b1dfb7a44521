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
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.stats

from .codec import Record
from .errors import BlockLawMismatch, BudgetExceeded, EnsembleTooSmall
from .laws import BlockLaw, LawKind
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


@dataclass(frozen=True)
class LevyPath:
    """A trajectory on the dyadic grid t_k = k * 2^-n, starting at 0."""

    times: np.ndarray  # (N+1,)
    values: np.ndarray  # (N+1, d)
    seed: int
    n: int
    spec: ExponentSpec
    laws: tuple[BlockLaw, ...]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def grid_step(self) -> float:
        return 2.0 ** (-self.n)

    def graph_points(self) -> np.ndarray:
        """Z(t_k) = (t_k, X(t_k)) as an (N+1, d+1) array."""
        return np.column_stack([self.times, self.values])


def _is_rotation_form(m: np.ndarray) -> bool:
    if m.shape != (2, 2):
        return False
    return abs(m[0, 0] - m[1, 1]) <= _BLOCK_FORM_TOL and abs(m[0, 1] + m[1, 0]) <= _BLOCK_FORM_TOL


def _has_real_spectrum(block: SpectralBlock) -> bool:
    eig = np.linalg.eigvals(block.matrix)
    return bool(np.max(np.abs(eig.imag)) <= _BLOCK_FORM_TOL)


def _check_law(block: SpectralBlock, law: BlockLaw, spec_c: float) -> str:
    """Return the simulation strategy for (block, law) or raise."""
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
        return "scalar"
    if law.kind is LawKind.STABLE_ISOTROPIC_2D:
        if block.d != 2 or not _is_rotation_form(block.matrix):
            raise BlockLawMismatch(
                "STABLE_ISOTROPIC_2D requires a 2-d rotation-form block a*I + b*J"
            )
        return "isotropic"
    # STABLE_SYMMETRIC
    if block.d == 1:
        return "scalar"
    if law.alpha == 2.0 and _has_real_spectrum(block):
        return "gaussian_operator"
    raise BlockLawMismatch(
        f"no simulator for a {block.d}-d block with law {law.kind.value} "
        f"at alpha={law.alpha}; multi-dimensional non-rotation blocks are "
        "supported only as Gaussian (alpha=2) with real spectrum"
    )


def _block_strategies(spec: ExponentSpec, laws) -> tuple[tuple[BlockLaw, ...], list]:
    """The laws as a tuple and, per spectral block, (block, law, strategy)."""
    dec = spec.decomposition
    laws = tuple(laws)
    if len(laws) != dec.p:
        raise BlockLawMismatch(f"need {dec.p} block laws, got {len(laws)}")
    return laws, [(b, l, _check_law(b, l, spec.c)) for b, l in zip(dec.blocks, laws)]


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


def _gaussian_operator_block(
    block: SpectralBlock, law: BlockLaw, times: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Cumulative block path with covariance C(t); increments are differences
    of consecutive C."""
    t_pos = times[1:]
    c_t = _gaussian_covariance(block, law, t_pos)
    c_inc = np.diff(np.concatenate([np.zeros((1, block.d, block.d)), c_t]), axis=0)
    c_inc = 0.5 * (c_inc + np.transpose(c_inc, (0, 2, 1)))
    c_inc += 1e-14 * np.trace(c_inc, axis1=1, axis2=2)[:, None, None] * np.eye(block.d)
    chol = np.linalg.cholesky(c_inc)
    z = rng.standard_normal((t_pos.size, block.d))
    increments = np.einsum("kij,kj->ki", chol, z)
    path = np.zeros((times.size, block.d))
    np.cumsum(increments, axis=0, out=path[1:])
    return path


def simulate_path(
    spec: ExponentSpec,
    laws,
    n: int,
    seed: int,
    name: str = "path",
) -> LevyPath:
    """Simulate a path on the dyadic grid of depth n over [0, 1].

    One BlockLaw per spectral block, ordered by ascending a_j.  Fully
    deterministic given (spec, laws, n, seed, name); block streams are
    derived independently so the output does not depend on evaluation order.
    Raises BudgetExceeded, before allocating, when the grid alone would not
    fit in physical memory.
    """
    if n < 0:
        raise ValueError("grid depth must be nonnegative")
    # times and values, plus one block's increments and cumulative path
    needed = 8 * (2**n + 1) * (1 + 3 * spec.d)
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise BudgetExceeded(
            f"a grid of depth n={n} in d={spec.d} needs {needed / 2**30:.3g} GiB, "
            f"more than the {available / 2**30:.3g} GiB of physical memory"
        )
    laws, blocks = _block_strategies(spec, laws)

    n_steps = 2**n
    dt = 2.0 ** (-n)
    times = np.arange(n_steps + 1, dtype=float) * dt
    values = np.zeros((n_steps + 1, spec.d))
    for j, (block, law, strategy) in enumerate(blocks):
        rng = derive_rng(seed, f"{name}/block/{j}")
        if strategy == "gaussian_operator":
            block_path = _gaussian_operator_block(block, law, times, rng)
        else:
            inc = law.sample_increments(dt, n_steps, rng)
            if inc.ndim == 1:
                inc = inc[:, None]
            block_path = np.zeros((n_steps + 1, block.d))
            np.cumsum(inc, axis=0, out=block_path[1:])
        values += block_path @ block.basis.T
    return LevyPath(times=times, values=values, seed=seed, n=n, spec=spec, laws=laws)


def sample_marginal(
    spec: ExponentSpec,
    laws,
    t: float,
    size: int,
    seed: int,
    name: str = "marginal",
) -> np.ndarray:
    """iid samples of X(t), shape (size, d).

    For Levy block laws X(t) equals one increment over [0, t] in
    distribution; the Gaussian operator block draws N(0, C(t)) directly.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    _, blocks = _block_strategies(spec, laws)
    out = np.zeros((size, spec.d))
    for j, (block, law, strategy) in enumerate(blocks):
        rng = derive_rng(seed, f"{name}/block/{j}")
        if strategy == "gaussian_operator":
            c_t = _gaussian_covariance(block, law, np.array([t]))[0]
            chol = np.linalg.cholesky(c_t + 1e-14 * np.trace(c_t) * np.eye(block.d))
            samples = rng.standard_normal((size, block.d)) @ chol.T
        else:
            samples = law.sample_increments(t, size, rng)
            if samples.ndim == 1:
                samples = samples[:, None]
        out += samples @ block.basis.T
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
    threshold.
    """
    if ensemble < 10**4:
        raise EnsembleTooSmall(f"semi-selfsimilarity test needs >= 1e4 samples, got {ensemble}")
    c = spec.c
    if not (0.0 < t and c * t <= 1.0):
        raise ValueError("need 0 < t and c*t <= 1 (inside the horizon)")
    x_t = sample_marginal(spec, laws, t, ensemble, seed, name="ks/base")
    x_ct = sample_marginal(spec, laws, c * t, ensemble, seed, name="ks/scaled")
    operator = spec.matrix
    if perturb_a1:
        operator = operator + perturb_a1 * spec.decomposition.projector(0)
    mapped = x_t @ scaling_operator(operator, c).T
    stats = tuple(
        float(scipy.stats.ks_2samp(x_ct[:, i], mapped[:, i]).statistic)
        for i in range(spec.d)
    )
    threshold = 1.36 * math.sqrt(2.0 / ensemble) * KS_THRESHOLD_SLACK
    return KSReport(
        statistics=stats,
        threshold=threshold,
        passed=all(s < threshold for s in stats),
        t=t,
        c=c,
        ensemble=ensemble,
    )
