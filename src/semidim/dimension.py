"""Closed-form Hausdorff dimensions of the graph and range over a time set.

Inputs are the leading spectral indices alpha_1 > alpha_2 (alpha_2 absent
when there is a single spectral block), the leading block dimension d_1, and
the dimension s of the time set.  Each formula has a SLOW branch, active when
alpha_1 * s <= d_1 (the time set is too thin for the process to matter), and
a FAST branch otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codec import Record
from .errors import InvalidInputs


class Branch(Enum):
    SLOW = "SLOW"
    FAST = "FAST"


class Formula(Enum):
    GRAPH_MULTI = "GRAPH_MULTI"
    GRAPH_1D = "GRAPH_1D"
    RANGE = "RANGE"


@dataclass(frozen=True, slots=True)
class DimensionResult(Record):
    value: float
    branch: Branch
    formula: Formula
    # Set when alpha_2 was defaulted to alpha_1 for a single-block exponent;
    # such inputs are outside the multi-block theory and the FAST branch must
    # then be unreachable.
    alpha2_defaulted: bool = False


def _check_common(alpha1: float, s: float) -> None:
    if not 0.0 < alpha1 <= 2.0:
        raise InvalidInputs(f"alpha1 must be in (0, 2], got {alpha1}")
    if not 0.0 <= s <= 1.0:
        raise InvalidInputs(f"time-set dimension must be in [0, 1], got {s}")


def _resolve_alpha2(alpha1: float, alpha2) -> tuple[float, bool]:
    if alpha2 is None:
        return alpha1, True
    if not 0.0 < alpha2 <= alpha1:
        raise InvalidInputs(
            f"alpha2 must satisfy 0 < alpha2 <= alpha1, got alpha2={alpha2}, alpha1={alpha1}"
        )
    return float(alpha2), False


def graph_dimension(alpha1: float, alpha2, d1: int, s: float) -> DimensionResult:
    """Graph dimension over a time set of dimension s, for d >= 2.

    SLOW branch (alpha1*s <= d1): s * max(alpha1, 1).
    FAST branch: 1 + max(alpha2, 1) * (s - 1/alpha1).

    ``alpha2=None`` encodes a single spectral block; the FAST branch is then
    unreachable for any valid spectral data (p = 1 and d >= 2 force d1 >= 2)
    and triggers InvalidInputs if hit.
    """
    _check_common(alpha1, s)
    if d1 < 1:
        raise InvalidInputs(f"d1 must be a positive integer, got {d1}")
    a2, defaulted = _resolve_alpha2(alpha1, alpha2)
    if alpha1 * s <= d1:
        return DimensionResult(s * max(alpha1, 1.0), Branch.SLOW, Formula.GRAPH_MULTI, defaulted)
    if defaulted:
        raise InvalidInputs(
            "alpha1*s > d1 requires a second spectral index; single-block "
            "exponents with d >= 2 cannot reach this branch"
        )
    value = 1.0 + max(a2, 1.0) * (s - 1.0 / alpha1)
    return DimensionResult(value, Branch.FAST, Formula.GRAPH_MULTI, defaulted)


def graph_dimension_1d(alpha: float, s: float) -> DimensionResult:
    """Graph dimension for a one-dimensional semistable process.

    SLOW branch (alpha*s <= 1): s * max(alpha, 1); FAST: 1 + s - 1/alpha.
    """
    _check_common(alpha, s)
    if alpha * s <= 1.0:
        return DimensionResult(s * max(alpha, 1.0), Branch.SLOW, Formula.GRAPH_1D)
    return DimensionResult(1.0 + s - 1.0 / alpha, Branch.FAST, Formula.GRAPH_1D)


def range_dimension(alpha1: float, alpha2, d1: int, s: float) -> DimensionResult:
    """Range dimension over a time set of dimension s, for d >= 2.

    SLOW branch (alpha1*s <= d1): alpha1 * s; FAST: 1 + alpha2 * (s - 1/alpha1).
    """
    _check_common(alpha1, s)
    if d1 < 1:
        raise InvalidInputs(f"d1 must be a positive integer, got {d1}")
    a2, defaulted = _resolve_alpha2(alpha1, alpha2)
    if alpha1 * s <= d1:
        return DimensionResult(alpha1 * s, Branch.SLOW, Formula.RANGE, defaulted)
    if defaulted:
        raise InvalidInputs(
            "alpha1*s > d1 requires a second spectral index; single-block "
            "exponents with d >= 2 cannot reach this branch"
        )
    value = 1.0 + a2 * (s - 1.0 / alpha1)
    return DimensionResult(value, Branch.FAST, Formula.RANGE, defaulted)


def dimensions_from_spectrum(alphas, block_dims, s: float) -> dict:
    """Graph and range dimensions straight from decomposition output.

    Dispatches to the one-dimensional formula when the state space is R^1.
    The range of a one-dimensional process over B has dimension
    min(1, alpha * s), reported here for completeness.
    """
    alphas = list(alphas)
    dims = list(block_dims)
    d = sum(dims)
    alpha1 = alphas[0]
    if d == 1:
        graph = graph_dimension_1d(alpha1, s)
        rng_val = min(1.0, alpha1 * s)
        rng = DimensionResult(
            rng_val,
            Branch.SLOW if alpha1 * s <= 1.0 else Branch.FAST,
            Formula.RANGE,
        )
    else:
        alpha2 = alphas[1] if len(alphas) > 1 else None
        graph = graph_dimension(alpha1, alpha2, dims[0], s)
        rng = range_dimension(alpha1, alpha2, dims[0], s)
    return {"graph": graph, "range": rng}
