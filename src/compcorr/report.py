"""Assemble the full per-state correlation report."""

from .correlations import CorrelationReport, bd_mutual_information, classical_correlation, clamped_discord
from .correlations import correlation_bits
from .entanglement import all_correlations_nonzero, negativity_bd, rel_entropy_entanglement_bd
from .states import IDENTITY_FRAME, BellDiagonalParams, DensityMatrix, bd_params_of


def report_for_bd(p: BellDiagonalParams, RA=IDENTITY_FRAME, RB=IDENTITY_FRAME) -> CorrelationReport:
    """Report for the state of triple p in the frame RA, RB of `bd_params_of`
    (I for a triple as given), every field a closed form of p, RA and RB.

    C, D, I, negativity and E_r are local-unitary invariants of p. The
    same-axis outcome table along k is (1 +- T_kk)/4, so i_x, i_y, i_z (and
    q1 = i_z) are `correlation_bits` of the diagonal of T = RA^T diag(p) RB,
    clipped into [-1, 1]. `complementary_correlations`,
    `total_mutual_information` and `negativity` measure them on the state,
    as the references the oracle and the tests check.

    The closed forms run on Python floats, the diagonal summed in np.einsum's
    order; the logs stay numpy's (`math.log` and its kin differ in the last
    bit on some inputs), so every field is bit for bit the array formulas'.
    """
    ra, rb = RA.tolist(), RB.tolist()
    diag = [ra[0][k] * p.c1 * rb[0][k] + ra[1][k] * p.c2 * rb[1][k] + ra[2][k] * p.c3 * rb[2][k] for k in range(3)]
    i_x, i_y, i_z = (correlation_bits(min(max(t, -1.0), 1.0)) for t in diag)
    c, i = classical_correlation(p), bd_mutual_information(p)
    return CorrelationReport(
        i_x=i_x,
        i_y=i_y,
        i_z=i_z,
        classical_c=c,
        discord=clamped_discord(i, c),
        q1=i_z,
        mutual_info=i,
        negativity=negativity_bd(p),
        e_r=rel_entropy_entanglement_bd(p),
        all_complementary_nonzero=all_correlations_nonzero(diag),
    )


def report_for_state(rho: DensityMatrix) -> CorrelationReport:
    return report_for_bd(*bd_params_of(rho))
