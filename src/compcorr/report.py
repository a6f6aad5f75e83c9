"""Assemble the full per-state correlation report."""

import numpy as np

from .correlations import CorrelationReport, bd_mutual_information, classical_correlation, clamped_discord
from .correlations import correlation_bits
from .entanglement import all_correlations_nonzero, negativity_bd, rel_entropy_entanglement_bd
from .states import BellDiagonalParams, DensityMatrix, bd_params_of, bell_diagonal


def report_for_state(rho: DensityMatrix) -> CorrelationReport:
    """Report for a two-qubit state with maximally mixed marginals, every
    field a closed form of the triple p and rotations RA, RB of `bd_params_of`.

    C, D, I, negativity and E_r are local-unitary invariants of p. The
    same-axis outcome table along k is (1 +- T_kk)/4, so i_x, i_y, i_z (and
    q1 = i_z) are `correlation_bits` of the diagonal of T = RA^T diag(p) RB,
    clipped into [-1, 1]. `complementary_correlations`,
    `total_mutual_information` and `negativity` measure them on the state,
    as the references the oracle and the tests check.
    """
    p, RA, RB = bd_params_of(rho)
    diag = np.einsum("jk,j,jk->k", RA, p.as_array(), RB)
    i_x, i_y, i_z = (correlation_bits(c) for c in np.clip(diag, -1.0, 1.0))
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


def report_for_bd(p: BellDiagonalParams) -> CorrelationReport:
    return report_for_state(bell_diagonal(p))
