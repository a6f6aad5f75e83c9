"""State constructors: Bell-diagonal families, Bloch decomposition, signed SVD.

Bell-diagonal states are parameterized by the correlation triple (c1, c2, c3)
of rho = (1/4)(I (x) I + sum_n c_n sigma_n (x) sigma_n). Their four eigenvalues
in the Bell basis are closed-form and are used throughout as the exact
reference against numeric eigensolves.
"""

import copy
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    DERIVED_TOL,
    MARGINAL_TOL,
    PHYSICALITY_TOL,
    SIGMAS,
    STATE_TOL,
    entropy_of_probabilities,
    is_hermitian,
    partial_trace,
    partial_transpose,
)

_BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
# c_n = sum_k _BELL_SIGNS[n, k] lambda_k over Bell-basis eigenvalues (phi+, phi-, psi+, psi-)
_BELL_SIGNS = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]], dtype=float)

# PAULI_PRODUCTS[i, j] = sigma_i (x) sigma_j, with sigma_0 = I: every Pauli
# coefficient Tr[rho (sigma_i (x) sigma_j)] is read, and every state
# (1/4) sum c_ij sigma_i (x) sigma_j built, by one contraction with it.
PAULI_PRODUCTS = np.einsum("iab,jcd->ijacbd", SIGMAS, SIGMAS).reshape(4, 4, 4, 4)
PAULI_PRODUCTS.flags.writeable = False

IDENTITY_FRAME = np.eye(3)  # RA = RB = I of `bd_params_of`: the frame of a triple as given
IDENTITY_FRAME.flags.writeable = False


def _pauli_sum(c: np.ndarray) -> np.ndarray:
    """The 4x4 matrix (1/4) sum_ij c_ij sigma_i (x) sigma_j."""
    return np.einsum("ij,ijkl->kl", c, PAULI_PRODUCTS) / 4.0


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive semidefinite matrix with factor dims.

    Equality and hashing are by identity, since the fields are arrays.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    # ascending and read-only: the PSD check's eigensolve, kept for spectrum()
    # and entropy() since the matrix cannot change
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dims = tuple(self.dims)
        if not dims or not all(isinstance(d, numbers.Real) and math.isfinite(d) and int(d) == d >= 1 for d in dims):
            raise ValueError(f"factor dims {dims} must name at least one factor, each an integer >= 1")
        total = math.prod(dims)
        if m.shape != (total, total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        if not is_hermitian(m):
            raise ValueError(f"density matrix is not Hermitian within {STATE_TOL:g}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > STATE_TOL:
            raise ValueError(f"trace {tr} differs from 1 by more than {STATE_TOL:g}")
        spectrum = np.linalg.eigvalsh(m)
        if spectrum[0] < -STATE_TOL:
            raise ValueError(f"negative eigenvalue {spectrum[0]:.3e} below -{STATE_TOL:g}")
        m.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(map(int, dims)))
        object.__setattr__(self, "_spectrum", spectrum)

    def permuted(self, grid) -> "DensityMatrix":
        """This state conjugated by a basis permutation, given as its np.ix_
        index grid. The spectrum is this state's, so it is kept, not solved
        again, and nothing is re-validated."""
        m = self.matrix[grid]
        m.flags.writeable = False
        out = copy.copy(self)  # dims and spectrum as they are, no __post_init__
        object.__setattr__(out, "matrix", m)
        return out

    def partial_trace(self, keep) -> "DensityMatrix":
        reduced = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(reduced, tuple(self.dims[k] for k in sorted(keep)))

    def partial_transpose(self, factor: int) -> np.ndarray:
        return partial_transpose(self.matrix, self.dims, factor)

    def spectrum(self) -> np.ndarray:
        return self._spectrum

    def entropy(self) -> float:
        return entropy_of_probabilities(self._spectrum)


@dataclass(frozen=True)
class BellDiagonalParams:
    """A point (c1, c2, c3) of the Bell-diagonal tetrahedron, checked once on
    construction: finite, with every Bell-basis eigenvalue at least
    -PHYSICALITY_TOL. The fields are Python floats. `eigenvalues` keeps the
    four, in the order of _BELL_LABELS, for the closed forms; it is neither
    compared nor hashed."""

    c1: float
    c2: float
    c3: float
    eigenvalues: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = (float(self.c1), float(self.c2), float(self.c3))
        if not all(map(math.isfinite, c)):
            raise ValueError(f"non-finite correlation triple {c}")
        lam = _bell_eigenvalues(*c)
        i = min(range(4), key=lam.__getitem__)
        if lam[i] < -PHYSICALITY_TOL:
            raise ValueError(
                f"unphysical correlation triple {c}: Bell-basis eigenvalue for {_BELL_LABELS[i]} is {lam[i]:.6g}"
            )
        for name, v in zip(("c1", "c2", "c3"), c):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "eigenvalues", lam)

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=float)


def _bell_eigenvalues(c1: float, c2: float, c3: float) -> tuple[float, float, float, float]:
    """The four Bell-basis eigenvalues of the triple, in the order of _BELL_LABELS."""
    return ((1 + c1 - c2 + c3) / 4, (1 - c1 + c2 + c3) / 4, (1 + c1 + c2 - c3) / 4, (1 - c1 - c2 - c3) / 4)


def is_physical(c) -> bool:
    """Whether a raw triple passes the eigenvalue check of BellDiagonalParams; a NaN fails."""
    return all(x >= -PHYSICALITY_TOL for x in _bell_eigenvalues(*c))


@dataclass(frozen=True)
class BlochDecomposition:
    """Local Bloch vectors and the 3x3 correlation matrix of a two-qubit state."""

    a: np.ndarray
    b: np.ndarray
    T: np.ndarray


# the Bell vectors, in the order of _BELL_LABELS
PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) * (1 / np.sqrt(2))


def bell_diagonal(p: BellDiagonalParams) -> DensityMatrix:
    """Build the state (1/4)(I (x) I + sum_n c_n sigma_n (x) sigma_n)."""
    return DensityMatrix(_pauli_sum(np.diag([1.0, p.c1, p.c2, p.c3])), (2, 2))


def bd_spectrum(p: BellDiagonalParams) -> np.ndarray:
    """The four closed-form eigenvalues, sorted ascending."""
    return np.sort(p.eigenvalues)


def bd_rank(p: BellDiagonalParams) -> int:
    return sum(x > PHYSICALITY_TOL for x in p.eigenvalues)


def bloch_decompose(rho: DensityMatrix) -> BlochDecomposition:
    """Extract local Bloch vectors and the correlation matrix T."""
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
    c = np.einsum("ijkl,lk->ij", PAULI_PRODUCTS, rho.matrix).real  # Tr[rho P_ij]
    return BlochDecomposition(a=c[1:, 0], b=c[0, 1:], T=c[1:, 1:])


def _det3(m: np.ndarray) -> float:
    """Determinant by cofactor expansion; +-1 up to rounding on an SVD's orthogonal factor."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def signed_svd(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(RA, s, RB) with RA, RB in SO(3) and RA T RB^T = diag(s): an SVD with the
    signs of improper factors absorbed into s[2], since only SO(3) rotations
    lift to local unitaries."""
    U, s, Vt = np.linalg.svd(T)
    if _det3(U) < 0:
        U[:, 2] *= -1
        s[2] *= -1
    if _det3(Vt) < 0:
        Vt[2, :] *= -1
        s[2] *= -1
    return U.T, s, Vt


def family_eq15(c3: float) -> DensityMatrix:
    """Mixture (1+c3)/2 |psi+><psi+| + (1-c3)/2 |phi+><phi+| for |c3| <= 1."""
    c3 = float(c3)
    if abs(c3) > 1:
        raise ValueError(f"c3 = {c3} outside [-1, 1]")
    m = (1 + c3) / 2 * np.outer(PSI_PLUS, PSI_PLUS.conj()) + (1 - c3) / 2 * np.outer(
        PHI_PLUS, PHI_PLUS.conj()
    )
    return DensityMatrix(m, (2, 2))


def werner(p: float) -> DensityMatrix:
    """Singlet-weighted Werner state p |psi-><psi-| + (1-p) I/4.

    Bell-diagonal with c1 = c2 = c3 = -p; physical for p in [-1/3, 1].
    """
    p = float(p)
    if not (-1 / 3 - PHYSICALITY_TOL <= p <= 1 + PHYSICALITY_TOL):
        raise ValueError(f"Werner weight {p} outside physical range [-1/3, 1]")
    m = p * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - p) * np.eye(4) / 4
    return DensityMatrix(m, (2, 2))


def classically_correlated() -> DensityMatrix:
    """The state (|00><00| + |11><11|) / 2, Bell-diagonal with c = (0, 0, 1)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    return DensityMatrix(m, (2, 2))


def round_onto_tetrahedron(c) -> BellDiagonalParams:
    """The triple c read off the T of a validated state, as a checked value.

    c must be physical within DERIVED_TOL. A physical triple is kept as it
    is. One within that slack but outside PHYSICALITY_TOL is rounded onto
    the tetrahedron: its Bell-basis eigenvalues are clipped to 0 and
    renormalised, and c is read back.
    """
    try:
        return BellDiagonalParams(*c)
    except ValueError:
        lam = np.array(_bell_eigenvalues(*c))
        if not lam.min() >= -DERIVED_TOL:  # written so that a NaN fails
            raise
    lam = np.clip(lam, 0.0, None)
    return BellDiagonalParams(*(_BELL_SIGNS @ (lam / lam.sum())))


def bd_params_of(rho: DensityMatrix) -> tuple[BellDiagonalParams, np.ndarray, np.ndarray]:
    """(p, RA, RB) for a state whose local Bloch vectors vanish within
    MARGINAL_TOL: its triple p, rounded onto the tetrahedron, and RA, RB in
    SO(3) with RA T RB^T = diag(p). They lift to the local unitaries taking
    the state to its normal form bell_diagonal(p) (R. Horodecki and
    M. Horodecki, PRA 54, 1838 (1996)). A diagonal T keeps its frame, with
    RA = RB = I, since r_a, s_c and the witness of `edss_useful` depend on
    which axis carries which c_k; a `bell_diagonal` state's T has exact 0s
    off the diagonal. Any other T goes through `signed_svd`, since a
    diagonal taken within m of T can be sqrt(6) m off its singular values.
    """
    dec = bloch_decompose(rho)
    na, nb = np.linalg.norm(dec.a), np.linalg.norm(dec.b)
    if not max(na, nb) <= MARGINAL_TOL:
        raise ValueError(f"state does not have maximally mixed marginals: |a| = {na:.3e}, |b| = {nb:.3e}")
    (t11, t12, t13), (t21, t22, t23), (t31, t32, t33) = dec.T.tolist()
    if t12 == t13 == t21 == t23 == t31 == t32 == 0.0:
        return round_onto_tetrahedron((t11, t22, t33)), IDENTITY_FRAME, IDENTITY_FRAME
    RA, s, RB = signed_svd(dec.T)
    return round_onto_tetrahedron(s.tolist()), RA, RB


def random_bd_params(rng: np.random.Generator) -> BellDiagonalParams:
    """Uniform sample of the physical Bell-diagonal tetrahedron (rejection)."""
    while True:
        c = rng.uniform(-1, 1, 3).tolist()
        if is_physical(c):
            return BellDiagonalParams(*c)


def random_density_matrix(rng: np.random.Generator, dims) -> DensityMatrix:
    """Ginibre-distributed full-rank random state."""
    dims = tuple(dims)
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def save_state(rho: DensityMatrix, path) -> None:
    """Write a state file: dims plus row-major real and imaginary parts."""
    doc = {
        "dims": list(rho.dims),
        "matrix_re": rho.matrix.real.ravel().tolist(),
        "matrix_im": rho.matrix.imag.ravel().tolist(),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_state(path) -> DensityMatrix:
    """Read a state file; Hermiticity / trace / PSD are re-verified on load."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"state file must hold a JSON object, not a {type(doc).__name__}")
    try:
        dims, re = tuple(doc["dims"]), np.array(doc["matrix_re"], dtype=float)  # DensityMatrix checks the dims
        n = math.isqrt(re.size)
        m = re.reshape(n, n) + 1j * np.array(doc["matrix_im"], dtype=float).reshape(n, n)
    except KeyError as e:
        raise ValueError(f"state file lacks the key {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"malformed state file: {e}") from e
    return DensityMatrix(m, dims)
