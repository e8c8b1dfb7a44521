"""Closed-form Hausdorff dimensions of the graph and range over a time set,
and the sojourn-time cases.

Inputs are the leading spectral indices alpha_1 > alpha_2, the leading block
dimension d_1, and the dimension s of the time set.  A missing second index
(a single spectral block) counts as alpha_2 = 0; the graph lives in R^{d+1},
whose time coordinate carries an index of 1, so the same formulas give the
one-dimensional results: graph 1 + s - 1/alpha, range min(1, alpha*s).  Each
formula has a SLOW branch, active when alpha_1 * s <= d_1 (the time set is
too thin for the process to matter), and a FAST branch otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codec import Record
from .errors import InvalidInputs


class Branch(Enum):
    SLOW = "SLOW"
    FAST = "FAST"


@dataclass(frozen=True, slots=True)
class DimensionResult(Record):
    value: float
    branch: Branch


# A missing second spectral index (a single block) counts as alpha_2 = 0.
NO_SECOND_INDEX = 0.0


def _check(alpha1: float, alpha2, d1: int, s: float) -> float:
    """Validate the inputs and return alpha_2, 0 for a single block."""
    if not 0.0 < alpha1 <= 2.0:
        raise InvalidInputs(f"alpha1 must be in (0, 2], got {alpha1}")
    if not 0.0 <= s <= 1.0:
        raise InvalidInputs(f"time-set dimension must be in [0, 1], got {s}")
    if d1 < 1:
        raise InvalidInputs(f"d1 must be a positive integer, got {d1}")
    if alpha2 is None:
        return NO_SECOND_INDEX
    if not 0.0 < alpha2 <= alpha1:
        raise InvalidInputs(
            f"alpha2 must satisfy 0 < alpha2 <= alpha1, got alpha2={alpha2}, alpha1={alpha1}"
        )
    return float(alpha2)


def graph_dimension(alpha1: float, alpha2, d1: int, s: float) -> DimensionResult:
    """Graph dimension over a time set of dimension s.

    SLOW branch (alpha1*s <= d1): s * max(alpha1, 1).
    FAST branch: 1 + max(alpha2, 1) * (s - 1/alpha1).

    ``alpha2=None`` encodes a single spectral block.
    """
    a2 = _check(alpha1, alpha2, d1, s)
    if alpha1 * s <= d1:
        return DimensionResult(s * max(alpha1, 1.0), Branch.SLOW)
    return DimensionResult(1.0 + max(a2, 1.0) * (s - 1.0 / alpha1), Branch.FAST)


def range_dimension(alpha1: float, alpha2, d1: int, s: float) -> DimensionResult:
    """Range dimension over a time set of dimension s.

    SLOW branch (alpha1*s <= d1): alpha1 * s; FAST: 1 + alpha2 * (s - 1/alpha1).
    """
    a2 = _check(alpha1, alpha2, d1, s)
    if alpha1 * s <= d1:
        return DimensionResult(alpha1 * s, Branch.SLOW)
    return DimensionResult(1.0 + a2 * (s - 1.0 / alpha1), Branch.FAST)


def _leading(alphas, block_dims) -> tuple[float, float | None, int]:
    return alphas[0], alphas[1] if len(alphas) > 1 else None, block_dims[0]


def dimensions_from_spectrum(alphas, block_dims, s: float) -> dict:
    """Graph and range dimensions straight from decomposition output."""
    alpha1, alpha2, d1 = _leading(alphas, block_dims)
    return {
        "graph": graph_dimension(alpha1, alpha2, d1, s),
        "range": range_dimension(alpha1, alpha2, d1, s),
    }


def classify_sojourn_case(alphas, block_dims) -> tuple[str, float, float]:
    """Sojourn case label and scaling exponents (graph, range).

    Graph exponents by case: (i) alpha_1 <= d_1, alpha_1 >= 1 -> alpha_1;
    (ii) alpha_1 <= d_1, alpha_1 < 1 -> 1; (iii) alpha_1 > d_1 = 1,
    alpha_2 >= 1 -> 1 + alpha_2 (1 - 1/alpha_1); (iv) alpha_1 > d_1 = 1,
    alpha_2 < 1 -> 2 - 1/alpha_1.  The range exponent is alpha_1 when
    alpha_1 <= d_1 and 1 + alpha_2 (1 - 1/alpha_1) otherwise.  With
    alpha_2 = 0, a single-block process in R^1 with alpha > 1 is case (iv)
    with range exponent 1.
    """
    a1, alpha2, d1 = _leading(alphas, block_dims)
    if a1 <= d1:
        if a1 >= 1.0:
            return "i", a1, a1
        return "ii", 1.0, a1
    a2 = NO_SECOND_INDEX if alpha2 is None else alpha2
    range_exp = 1.0 + a2 * (1.0 - 1.0 / a1)
    if a2 >= 1.0:
        return "iii", range_exp, range_exp
    return "iv", 2.0 - 1.0 / a1, range_exp
