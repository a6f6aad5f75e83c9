"""PPT verdicts, negativity, and Bell-diagonal relative entropy of entanglement."""

from dataclasses import dataclass

import numpy as np

from .matcore import PPT_TOL, entropy_of_probabilities, hermitian_spectrum
from .states import BellDiagonalParams, DensityMatrix


def _cut_label(factor: int, n: int) -> str:
    letters = "ABCDEFGH"
    rest = "".join(letters[i] for i in range(n) if i != factor)
    return f"{letters[factor]}|{rest}"


@dataclass(frozen=True)
class PptVerdict:
    """Partial-transpose spectrum across one bipartition, ascending, with the
    verdict read off its minimum."""

    spectrum: tuple[float, ...]
    cut: str

    @property
    def min_eigenvalue(self) -> float:
        return self.spectrum[0]

    @property
    def is_ppt(self) -> bool:
        return self.min_eigenvalue >= -PPT_TOL


def pt_spectrum(rho: DensityMatrix, factor: int) -> np.ndarray:
    """Spectrum of the partial transpose on one factor, ascending."""
    if factor < 0 or factor >= len(rho.dims):
        raise ValueError(f"invalid cut: factor {factor} of {len(rho.dims)}")
    return hermitian_spectrum(rho.partial_transpose(factor))


def negativity(rho: DensityMatrix, factor: int = 0) -> float:
    """Sum of |negative eigenvalues| of the partial transpose across the cut."""
    lam = pt_spectrum(rho, factor)
    return float(np.abs(lam[lam < 0]).sum())


def ppt_verdict(rho: DensityMatrix, factor: int = 0) -> PptVerdict:
    return PptVerdict(tuple(pt_spectrum(rho, factor).tolist()), _cut_label(factor, len(rho.dims)))


def negativity_bd(p: BellDiagonalParams) -> float:
    """Negativity, Bell-diagonal closed form: the partial transpose has
    eigenvalues 1/2 - lambda_k, so only a lambda_max above 1/2 counts."""
    return max(0.0, max(p.eigenvalues) - 0.5)


def rel_entropy_entanglement_bd(p: BellDiagonalParams) -> float:
    """Relative entropy of entanglement, Bell-diagonal closed form.

    Zero when the largest Bell-basis eigenvalue is at most 1/2, otherwise
    1 - H2(lambda_max) bits.
    """
    lmax = max(p.eigenvalues)
    if lmax <= 0.5:
        return 0.0
    return 1.0 - entropy_of_probabilities([lmax, 1 - lmax])


def all_correlations_nonzero(diag) -> bool:
    """Every diagonal correlation |T_kk| above PPT_TOL. With maximally mixed
    marginals i_k = 0 iff T_kk = 0, and i_k (about 0.72 T_kk^2 bits) itself
    falls below PPT_TOL already at |T_kk| of about 1e-6. On a Bell-diagonal
    triple (`p.as_array()`) this is necessary, not sufficient, for the state
    to be entangled."""
    return bool(np.all(np.abs(diag) > PPT_TOL))
