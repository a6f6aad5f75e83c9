"""Assemble the full per-state correlation report."""

import numpy as np

from .correlations import CorrelationReport, bd_mutual_information, classical_correlation, clamped_discord
from .correlations import correlation_bits
from .entanglement import all_correlations_nonzero, negativity_bd, rel_entropy_entanglement_bd
from .states import BellDiagonalParams, DensityMatrix, bell_diagonal, bloch_decompose, require_mixed_marginals
from .states import round_onto_tetrahedron, signed_svd


def report_for_state(rho: DensityMatrix) -> CorrelationReport:
    """Report for a two-qubit state with maximally mixed marginals, every
    field a closed form of T, with no eigensolve, partial trace or outcome table.

    The same-axis outcome table along k is (1 +- T_kk)/4, so i_x, i_y, i_z
    (and q1 = i_z) are `correlation_bits` of T's diagonal, clipped into
    [-1, 1]. C, D, I, negativity and E_r are local-unitary invariants, read
    off the signed singular values of T (RA T RB^T with RA, RB in SO(3))
    rounded onto the tetrahedron. `complementary_correlations`,
    `total_mutual_information` and `negativity` measure the same numbers on
    the state; they are the references the oracle and the tests check.
    """
    dec = bloch_decompose(rho)
    require_mixed_marginals(dec)
    diag = np.diag(dec.T)
    i_x, i_y, i_z = (correlation_bits(c) for c in np.clip(diag, -1.0, 1.0))
    p = round_onto_tetrahedron(signed_svd(dec.T)[1])
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
