"""Assemble the full per-state correlation report."""

import numpy as np

from .correlations import (
    CorrelationReport,
    classical_correlation,
    complementary_correlations,
    discord_bd,
    total_mutual_information,
)
from .entanglement import all_correlations_nonzero, negativity, rel_entropy_entanglement_bd
from .matcore import DERIVED_TOL
from .states import (
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    bloch_decompose,
    require_mixed_marginals,
    signed_svd,
)

# c_n = sum_k _BELL_SIGNS[n, k] lambda_k over Bell-basis eigenvalues (phi+, phi-, psi+, psi-)
_BELL_SIGNS = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]], dtype=float)


def report_for_state(rho: DensityMatrix) -> CorrelationReport:
    """Report for a two-qubit state with maximally mixed marginals.

    Axis-dependent entries (i_x, i_y, i_z, q1) are measured on the state as
    given. The local-unitary invariants (classical correlation, discord,
    relative entropy of entanglement) are evaluated on the Bell-diagonal
    triple, the signed singular values of the correlation matrix T: local
    unitaries act on T as RA T RB^T with RA, RB in SO(3), so no rotated
    state is built.
    """
    dec = bloch_decompose(rho)
    require_mixed_marginals(dec)
    p = BellDiagonalParams(*signed_svd(dec.T)[1])
    p.validate(tol=DERIVED_TOL)
    if not p.is_physical():
        # within DERIVED_TOL of the tetrahedron but outside PHYSICALITY_TOL, which
        # the closed forms check: clip the Bell-basis eigenvalues and read c back
        lam = np.clip(p.eigenvalues(), 0.0, None)
        p = BellDiagonalParams(*(_BELL_SIGNS @ (lam / lam.sum())))
    i_x, i_y, i_z = complementary_correlations(rho)
    return CorrelationReport(
        i_x=i_x,
        i_y=i_y,
        i_z=i_z,
        classical_c=classical_correlation(p),
        discord=discord_bd(p),
        q1=i_z,
        mutual_info=total_mutual_information(rho),
        negativity=negativity(rho, 0),
        e_r=rel_entropy_entanglement_bd(p),
        all_complementary_nonzero=all_correlations_nonzero(np.diag(dec.T)),
    )


def report_for_bd(p: BellDiagonalParams) -> CorrelationReport:
    return report_for_state(bell_diagonal(p))
