"""Correlation measures for two-qubit states, in bits.

Runtime closed forms (`report_for_bd` reads every number off them):
`correlation_bits`, `classical_correlation`, `bd_mutual_information`,
`discord_bd` (`clamped_discord` of the two before it), which read a
`BellDiagonalParams` checked once when it was built. Measured references,
which the oracle and the tests check them against:
`complementary_correlations` (same-axis outcome tables), `holevo_quantity`
(Bob measures along a unit Bloch vector n, projectors (I +- n . sigma)/2
from `matcore.bloch_operator`), `total_mutual_information`.
"""

from dataclasses import dataclass, fields

import numpy as np

from .matcore import (
    DERIVED_TOL,
    LOG2,
    PROB_CLAMP,
    STATE_TOL,
    UNIT_TOL,
    ZERO_BRANCH,
    bloch_operator,
    entropy_of_probabilities,
    von_neumann_entropy,
)
from .states import BellDiagonalParams, DensityMatrix


def outcome_mutual_information(p) -> float:
    """Shannon mutual information of a 2x2 outcome table p(i, j), in bits.

    The table must sum to 1 and have no entry below 0, both within
    STATE_TOL: a validated state's table sums to its trace and has no entry
    below its least eigenvalue. Natural-log internals, converted once to
    bits. Summed directly, not as H(A) + H(B) - H(AB): that difference
    cancels on weakly correlated tables (relative error 3e-13, against
    2e-15 here).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2):
        raise ValueError(f"outcome table must be 2x2, got shape {p.shape}")
    # written so that a NaN entry fails
    if not (p.min() >= -STATE_TOL and abs(p.sum() - 1.0) <= STATE_TOL):
        raise ValueError(f"outcome table {p.tolist()} is not a probability table within {STATE_TOL:g}")
    p = np.clip(p, 0.0, None)
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    acc = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if p[i, j] > ZERO_BRANCH:
                acc += p[i, j] * np.log(p[i, j] / (pa[i] * pb[j]))
    return float(acc / LOG2)


# _AXIS_PROJECTORS[k, i]: projector (I +- sigma_k)/2 on outcome i (+1, then
# -1) of the measurement along axis k (x, y, z)
_AXIS_PROJECTORS = bloch_operator(np.stack([np.eye(3), -np.eye(3)], axis=1))
_AXIS_PROJECTORS.flags.writeable = False


def complementary_correlations(rho: DensityMatrix) -> tuple[float, float, float]:
    """I(sigma_i : sigma_i) for same-axis measurements along x, y, z; the three
    outcome tables come from one contraction with the stacked projectors."""
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
    r = rho.matrix.reshape(2, 2, 2, 2)
    tables = np.einsum("abce,kica,kjeb->kij", r, _AXIS_PROJECTORS, _AXIS_PROJECTORS).real
    return tuple(outcome_mutual_information(t) for t in tables)


def holevo_quantity(rho: DensityMatrix, n) -> float:
    """Holevo quantity of Alice's conditional ensemble when Bob measures
    along the unit Bloch vector n.

    chi = S(sum_i p_i rho_i^A) - sum_i p_i S(rho_i^A), in bits. Outcomes of
    probability zero are skipped.
    """
    n = np.asarray(n, dtype=float)
    # written so that a NaN component fails
    if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= UNIT_TOL:
        raise ValueError(f"measurement direction {n.tolist()} is not a unit 3-vector")
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
    r = rho.matrix.reshape(2, 2, 2, 2)
    avg = np.zeros((2, 2), dtype=complex)
    cond_term = 0.0
    for proj in bloch_operator(np.stack([n, -n])):
        # Tr_B[rho (I (x) Pi)], unnormalized conditional state on Alice
        x = np.einsum("abce,eb->ac", r, proj)
        p = np.trace(x).real
        avg += x
        if p > ZERO_BRANCH:
            cond_term += p * von_neumann_entropy(x / p)
    return von_neumann_entropy(avg) - cond_term


def correlation_bits(c: float) -> float:
    """(1+c)/2 log2(1+c) + (1-c)/2 log2(1-c); even in c, 1 bit at |c| = 1.

    For |c| < 1/2 as (c atanh(c) + log1p(-c^2)/2)/ln 2, which rounds no 1 + c
    before a log, and else directly, where log1p would lose digits (8e-12 at
    c = 0.999999): within 2e-15 relative down to tiny |c| (7.2e-17 bits at 1e-8).
    """
    c = abs(float(c))
    if not c <= 1 + PROB_CLAMP:  # written so that a NaN fails
        raise ValueError(f"correlation coefficient {c} outside [-1, 1]")
    c = min(c, 1.0)
    if c < 0.5:
        return float((c * np.arctanh(c) + np.log1p(-c * c) / 2) / LOG2)
    acc = (1 + c) / 2 * np.log(1 + c) + ((1 - c) / 2 * np.log(1 - c) if c < 1.0 else 0.0)
    return float(acc / LOG2)


def classical_correlation(p: BellDiagonalParams) -> float:
    """Maximum Holevo quantity over Bob's projective measurements, closed form.

    Attained along the axis carrying the largest |c_i|.
    """
    return correlation_bits(max(abs(p.c1), abs(p.c2), abs(p.c3)))


def q1(p: BellDiagonalParams) -> float:
    """Outcome mutual information for z-axis measurements on both sides."""
    return correlation_bits(p.c3)


def total_mutual_information(rho: DensityMatrix) -> float:
    """S(rho_A) + S(rho_B) - S(rho), in bits."""
    sa = rho.partial_trace([0]).entropy()
    sb = rho.partial_trace([1]).entropy()
    return sa + sb - rho.entropy()


def bd_mutual_information(p: BellDiagonalParams) -> float:
    """Closed form 2 - S(rho) for Bell-diagonal states."""
    return 2.0 - entropy_of_probabilities(sorted(p.eigenvalues))


def clamped_discord(mutual_info: float, classical_c: float) -> float:
    """Discord I - C, clamped at zero against float noise."""
    d = mutual_info - classical_c
    if not d >= -DERIVED_TOL:  # written so that a NaN fails
        raise AssertionError(f"closed-form discord came out negative or NaN: {d}")
    return max(d, 0.0)


def discord_bd(p: BellDiagonalParams) -> float:
    """Quantum discord of a Bell-diagonal state, closed form: the clamped
    difference of `bd_mutual_information` and `classical_correlation`."""
    return clamped_discord(bd_mutual_information(p), classical_correlation(p))


@dataclass(frozen=True)
class CorrelationReport:
    """All scalar measures for one state."""

    i_x: float
    i_y: float
    i_z: float
    classical_c: float
    discord: float
    q1: float
    mutual_info: float
    negativity: float
    e_r: float
    all_complementary_nonzero: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
