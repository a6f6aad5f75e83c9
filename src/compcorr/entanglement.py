"""PPT verdicts, negativity, and Bell-diagonal relative entropy of entanglement."""

from dataclasses import dataclass

import numpy as np

from .correlations import correlation_bits
from .matcore import PHYSICALITY_TOL, PPT_TOL, hermitian_spectrum
from .states import BellDiagonalParams, DensityMatrix


CUT_LABELS = {2: ("A|B", "B|A"), 3: ("A|BC", "B|AC", "C|AB")}  # the cut across each factor, by factor count


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
    return hermitian_spectrum(rho.partial_transpose(factor))


def negativity(rho: DensityMatrix, factor: int = 0) -> float:
    """Sum of |negative eigenvalues| of the partial transpose across the cut."""
    lam = pt_spectrum(rho, factor)
    return float(np.abs(lam[lam < 0]).sum())


def ppt_verdict(rho, factor=0):
    """PPT verdict of a two- or three-factor state across one factor's cut, or,
    given a sequence of states with equal dims and a sequence of factors, a tuple
    of verdicts per state. Every partial transpose is solved in one stacked eigvalsh."""
    single = isinstance(rho, DensityMatrix)
    states, factors = ((rho,), (factor,)) if single else (tuple(rho), tuple(factor))
    dims = states[0].dims
    n, labels = len(dims), CUT_LABELS.get(len(dims), ())
    if any(s.dims != dims for s in states) or not all(0 <= f < len(labels) for f in factors):
        raise ValueError(f"no cut across factors {factors} of states with dims {dims}")
    # no Hermiticity check: PT and a CNOT stage permute the entries of M - M^dagger, which DensityMatrix checked
    m = np.stack([s.matrix for s in states]).reshape((len(states),) + dims + dims)
    pts = np.stack([np.swapaxes(m, 1 + f, 1 + f + n) for f in factors], axis=1)
    spectra = np.linalg.eigvalsh(pts.reshape((-1,) + states[0].matrix.shape)).reshape(pts.shape[:2] + (-1,))
    out = tuple(tuple(PptVerdict(tuple(s), labels[f]) for s, f in zip(row, factors)) for row in spectra.tolist())
    return out[0][0] if single else out


def negativity_bd(p: BellDiagonalParams) -> float:
    """Negativity, Bell-diagonal closed form: the partial transpose has eigenvalues 1/2 - lambda_k,
    so N = lambda_max - 1/2 (exact, by Sterbenz, as lambda_max is in [1/4, 1]) counts above
    PHYSICALITY_TOL. Every Bell-diagonal entanglement verdict reads this one margin."""
    n = max(p.eigenvalues) - 0.5
    return n if n > PHYSICALITY_TOL else 0.0


def is_separable_bd(p: BellDiagonalParams) -> bool:
    """PPT, so separable for two qubits: `negativity_bd(p)` is 0. On the
    tetrahedron that is sum|c_k| <= 1 <=> lambda_max <= 1/2 (R. Horodecki and
    M. Horodecki, PRA 54, 1838 (1996)). Each lambda is (1 + s.c)/4 for one of the
    four s with s1 s2 s3 = -1, and s.c <= sum|c_k| gives =>. The four t with
    t1 t2 t3 = +1 have t.c <= 1, as -t is such an s and its lambda is >= 0; so a
    sign pattern t of c with t.c = sum|c_k| > 1 has t1 t2 t3 = -1, a lambda > 1/2."""
    return negativity_bd(p) == 0.0


def require_separable(p: BellDiagonalParams) -> None:
    """Raise unless p is a separable correlation triple."""
    if not is_separable_bd(p):
        raise ValueError(f"input state {p.c1, p.c2, p.c3} is entangled; the protocol requires a separable resource")


def rel_entropy_entanglement_bd(p: BellDiagonalParams) -> float:
    """Relative entropy of entanglement, Bell-diagonal closed form: 1 - H2(lambda_max)
    bits, `correlation_bits(2 N)` for N of `negativity_bd` (0 if separable). As 1 +- 2 N
    are exact floats, it does not cancel next to the boundary as 1 - H2 does in floats."""
    return correlation_bits(2 * negativity_bd(p))


def all_correlations_nonzero(diag) -> bool:
    """Every diagonal correlation |T_kk| above PPT_TOL. With maximally mixed
    marginals i_k = 0 iff T_kk = 0, and i_k (about 0.72 T_kk^2 bits) itself
    falls below PPT_TOL already at |T_kk| of about 1e-6. On a Bell-diagonal
    triple (`p.as_array()`) this is necessary, not sufficient, for the state
    to be entangled."""
    return all(abs(t) > PPT_TOL for t in diag)
