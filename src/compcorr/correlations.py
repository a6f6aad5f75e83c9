"""Correlation measures for two-qubit states, in bits.

Runtime closed forms (`report_for_bd` reads every number off them):
`correlation_bits`, `classical_correlation`, `bd_mutual_information`,
`discord_bd` (`clamped_discord` of the two before it), which read a
`BellDiagonalParams` checked once when it was built; Q1 is the report's
i_z, `correlation_bits` of T_zz. Measured references,
which the oracle and the tests check them against:
`complementary_correlations` (same-axis `outcome_tables`), `holevo_quantity`
(Bob measures along a unit Bloch vector n, projectors (I +- n . sigma)/2
from `matcore.bloch_operator`), `total_mutual_information`; a state and
what they derive from it are solved by eigvalsh alike, with no second check.
"""

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DERIVED_TOL,
    EIG_CLAMP_TOL,
    LOG2,
    PROB_CLAMP,
    STATE_TOL,
    UNIT_TOL,
    ZERO_BRANCH,
    bloch_operator,
    entropy_of_probabilities,
)
from .states import BellDiagonalParams, DensityMatrix, require_qubits


def outcome_mutual_information(p):
    """Shannon mutual information of a 2x2 outcome table p(i, j), in bits;
    of a stack (..., 2, 2) of tables, an array of the stack's leading shape.

    Each table must sum to 1 and have no entry below 0, both within
    STATE_TOL: a validated state's table sums to its trace and has no entry
    below its least eigenvalue. The first table that fails is named in the
    ValueError. Natural-log internals, converted once to bits. Summed
    directly, not as H(A) + H(B) - H(AB): that difference cancels on weakly
    correlated tables (relative error 3e-13, against 2e-15 here). The four
    terms of a table are added in row-major order, so every value of a
    stack is bit for bit that of its table alone.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-2:] != (2, 2):
        raise ValueError(f"outcome table must be 2x2, got shape {p.shape}")
    flat = p.reshape(-1, 4)
    # written so that a NaN entry fails
    ok = (flat.min(axis=1) >= -STATE_TOL) & (np.abs(flat.sum(axis=1) - 1.0) <= STATE_TOL)
    if not ok.all():
        k = int(np.argmin(ok))
        at = f" at {tuple(map(int, np.unravel_index(k, p.shape[:-2])))}" if p.ndim > 2 else ""
        raise ValueError(
            f"outcome table {flat[k].reshape(2, 2).tolist()}{at} is not a probability table within {STATE_TOL:g}"
        )
    p = np.clip(p, 0.0, None)
    live = p > ZERO_BRANCH
    # a live entry has positive marginals, so only live ratios are formed
    ratio = np.divide(p, p.sum(axis=-1)[..., :, None] * p.sum(axis=-2)[..., None, :], out=np.ones_like(p), where=live)
    terms = np.multiply(p, np.log(ratio), out=np.zeros_like(p), where=live)
    acc = terms[..., 0, 0] + terms[..., 0, 1] + terms[..., 1, 0] + terms[..., 1, 1]
    return float(acc / LOG2) if p.ndim == 2 else acc / LOG2


# AXIS_PROJECTORS[k, i]: projector (I +- sigma_k)/2 on outcome i (+1, then
# -1) of the measurement along axis k (x, y, z)
AXIS_PROJECTORS = bloch_operator(np.stack([np.eye(3), -np.eye(3)], axis=1))
AXIS_PROJECTORS.flags.writeable = False


def outcome_tables(m: np.ndarray) -> np.ndarray:
    """Same-axis outcome tables Tr[m (Pi_ki (x) Pi_kj)] of (..., 4, 4)
    two-qubit matrices m as one real (..., 3, 2, 2) array, axes x, y, z;
    each matrix of a stack gets the bits of its own call."""
    r = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...abce,kica,kjeb->...kij", r, AXIS_PROJECTORS, AXIS_PROJECTORS).real


def complementary_correlations(rho: DensityMatrix) -> tuple[float, float, float]:
    """I(sigma_i : sigma_i) for same-axis measurements along x, y, z; the three
    `outcome_tables` are scored as one stack."""
    require_qubits(rho, 2)
    return tuple(outcome_mutual_information(outcome_tables(rho.matrix)).tolist())


def holevo_quantity(rho: DensityMatrix, n) -> float:
    """Holevo quantity of Alice's conditional ensemble when Bob measures
    along the unit Bloch vector n.

    chi = S(sum_i p_i rho_i^A) - sum_i p_i S(rho_i^A), in bits. Outcomes of
    probability zero are skipped, and an eigenvalue lam of rho_i^A with
    p_i lam >= -EIG_CLAMP_TOL, a check on rho's scale, scores as 0.
    """
    n = np.asarray(n, dtype=float)
    # written so that a NaN component fails
    if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= UNIT_TOL:
        raise ValueError(f"measurement direction {n.tolist()} is not a unit 3-vector")
    require_qubits(rho, 2)
    r = rho.matrix.reshape(2, 2, 2, 2)
    avg = np.zeros((2, 2), dtype=complex)
    cond_term = 0.0
    for proj in bloch_operator(np.stack([n, -n])):
        # Tr_B[rho (I (x) Pi)], unnormalized conditional state on Alice
        x = np.einsum("abce,eb->ac", r, proj)
        p = np.trace(x).real
        avg += x
        if p > ZERO_BRANCH:
            lam = np.linalg.eigvalsh(x / p)
            np.maximum(lam, 0.0, out=lam, where=p * lam >= -EIG_CLAMP_TOL)
            cond_term += p * entropy_of_probabilities(lam)
    return float(entropy_of_probabilities(np.linalg.eigvalsh(avg)) - cond_term)


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


def total_mutual_information(rho: DensityMatrix) -> float:
    """S(rho_A) + S(rho_B) - S(rho), in bits."""
    require_qubits(rho, 2)
    r = rho.matrix.reshape(2, 2, 2, 2)
    sa, sb = (entropy_of_probabilities(np.linalg.eigvalsh(r.trace(axis1=k, axis2=k + 2))) for k in (1, 0))
    return sa + sb - entropy_of_probabilities(np.linalg.eigvalsh(rho.matrix))


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
    difference of `bd_mutual_information` and `classical_correlation`.

    D - Q1 is a mutual information. The Bell states are the joint
    eigenstates of the parities P_x = XX, P_y = YY and P_z = ZZ, with
    P_y = -P_x P_z, and their signs on (phi+, phi-, psi+, psi-) are the rows
    of `states._BELL_SIGNS`. Any two parities fix the third, so the Bell
    eigenvalues lambda are the joint distribution of any two of them:
    H(P_k, P_l) = H(lambda), E[P_k] = c_k and H(P_k) = 1 -
    correlation_bits(c_k). Let k be the axis of the largest |c|, so that
    C = correlation_bits(c_k), and l another axis, Q1 = correlation_bits(c_l);
    the ordered frame takes the median |c|. With I = 2 - H(lambda)
    (S. Luo, PRA 77, 042303 (2008)),

        D - Q1 = 2 - H(lambda) - correlation_bits(c_k) - correlation_bits(c_l)
               = H(P_k) + H(P_l) - H(P_k, P_l) = I(P_k : P_l) >= 0.

    It vanishes iff P_k and P_l are independent. For two +-1 variables that
    is E[P_k P_l] = E[P_k] E[P_l], and P_k P_l = -P_m for the third axis m,
    so D = Q1 exactly on the surface c_m = -c_k c_l.
    """
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
