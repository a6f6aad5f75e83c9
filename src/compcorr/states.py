"""State constructors: Bell-diagonal families, Bloch decomposition, signed SVD.

Bell-diagonal states are parameterized by the correlation triple (c1, c2, c3)
of rho = (1/4)(I (x) I + sum_n c_n sigma_n (x) sigma_n). Their four eigenvalues
in the Bell basis are closed-form and are used throughout as the exact
reference against numeric eigensolves.
"""

import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    DERIVED_TOL,
    MARGINAL_TOL,
    PHYSICALITY_TOL,
    SIGMAS,
    STATE_TOL,
)

_BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")
# c_n = sum_k _BELL_SIGNS[n, k] lambda_k over Bell-basis eigenvalues (phi+, phi-, psi+, psi-)
_BELL_SIGNS = np.array([[1, -1, 1, -1], [-1, 1, 1, -1], [1, 1, -1, -1]], dtype=float)

# PAULI_PRODUCTS[i, j] = sigma_i (x) sigma_j, with sigma_0 = I: every Pauli
# coefficient Tr[rho (sigma_i (x) sigma_j)] is read by one contraction with it
PAULI_PRODUCTS = np.einsum("iab,jcd->ijacbd", SIGMAS, SIGMAS).reshape(4, 4, 4, 4)
PAULI_PRODUCTS.flags.writeable = False

IDENTITY_FRAME = np.eye(3)  # RA = RB = I of `bd_params_of`: the frame of a triple as given
IDENTITY_FRAME.flags.writeable = False


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive semidefinite 2**n x 2**n matrix on n >= 1
    qubits, checked once, here: what is derived from it is solved, not checked again.
    It keeps only `matrix` and `dims`, (2,) * n, which n real numbers equal to 2
    give (2.0, numpy 2s) and no other dims; a caller solves the matrix for its spectrum.

    Equality and hashing are by identity, since the fields are arrays.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        try:
            dims = tuple(self.dims)
            n = len(dims)
        except TypeError:  # not iterable, such as 2 or None
            dims, n = self.dims, 0
        # types first: an array-valued entry compares to 2 as an array; an int skips the slower ABC check
        qubits = n and all(type(d) is int or isinstance(d, numbers.Real) for d in dims) and dims == (2,) * n
        if not (qubits and m.shape == (2**n, 2**n)):
            raise ValueError(
                f"factor dims {dims} must name at least one factor, each 2, one per qubit of the {m.shape} matrix"
            )
        # entries near the float maximum may sum to inf or NaN, which the checks
        # refuse. Every non-finite entry makes the residual inf or NaN, so it
        # fails first and `isfinite` runs only to name the refusal.
        with np.errstate(over="ignore", invalid="ignore"):
            skew = abs(m - m.T.conj()).max()
            tr = m.trace().real
        if not skew <= STATE_TOL:
            if not np.isfinite(m).all():
                raise ValueError("density matrix has a non-finite entry")
            raise ValueError(f"density matrix is not Hermitian within {STATE_TOL:g}")
        if not abs(tr - 1.0) <= STATE_TOL:  # written so that a NaN fails
            raise ValueError(f"trace {tr} differs from 1 by more than {STATE_TOL:g}")
        least = np.linalg.eigvalsh(m)[0]
        if least < -STATE_TOL:
            raise ValueError(f"negative eigenvalue {least:.3e} below -{STATE_TOL:g}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", (2,) * n)


_QUBIT_COUNTS = ("single-qubit", "two-qubit")


def require_qubits(rho: DensityMatrix, n: int, what: str = "state") -> None:
    """Refuse rho unless it is a state of n qubits, n 1 or 2, naming it as what."""
    if len(rho.dims) != n:
        raise ValueError(f"expected a {_QUBIT_COUNTS[n - 1]} {what}, got dims {rho.dims}")


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
        lam = bell_eigenvalues(*c)
        if not on_tetrahedron(lam):
            i = min(range(4), key=lam.__getitem__)
            raise ValueError(
                f"unphysical correlation triple {c}: Bell-basis eigenvalue for {_BELL_LABELS[i]} is {lam[i]:.6g}"
            )
        for name, v in zip(("c1", "c2", "c3"), c):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "eigenvalues", lam)

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=float)


def bell_eigenvalues(c1: float, c2: float, c3: float) -> tuple[float, float, float, float]:
    """The four Bell-basis eigenvalues of the triple, in the order of _BELL_LABELS."""
    return ((1 + c1 - c2 + c3) / 4, (1 - c1 + c2 + c3) / 4, (1 + c1 + c2 - c3) / 4, (1 - c1 - c2 - c3) / 4)


def on_tetrahedron(lam, tol=PHYSICALITY_TOL):
    """The physicality rule: whether a triple's Bell-basis eigenvalues lam, four
    floats or four arrays, are each at least -tol, so that it lies on the
    tetrahedron within tol. A NaN fails, and so does every non-finite
    triple, as one of its eigenvalues is NaN or -inf."""
    l0, l1, l2, l3 = lam
    return (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol) & (l3 >= -tol)


def bd_matrix(c1, c2, c3) -> np.ndarray:
    """The matrix (1/4)(I (x) I + sum_n c_n sigma_n (x) sigma_n) from its 8
    nonzero entries: (1 +- c3)/4 on the diagonal, (c1 - c2)/4 at (0, 3) and
    (3, 0), (c1 + c2)/4 at (1, 2) and (2, 1). Three floats give one 4x4
    matrix and three length-n arrays an (n, 4, 4) stack, each matrix bit for
    bit that of its triple. Nothing is checked."""
    m = np.zeros(np.shape(c1) + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = (1 + c3) / 4
    m[..., 1, 1] = m[..., 2, 2] = (1 - c3) / 4
    # + 0.0 turns a sum of signed zeros into +0.0, as the Pauli sum's zero terms do
    m[..., 0, 3] = m[..., 3, 0] = (c1 - c2 + 0.0) / 4
    m[..., 1, 2] = m[..., 2, 1] = (c1 + c2 + 0.0) / 4
    return m


def bell_diagonal(p: BellDiagonalParams) -> DensityMatrix:
    """The state of `bd_matrix`, fully validated; `np.linalg.eigvalsh` of
    its matrix is the numeric reference for the closed-form eigenvalues."""
    return DensityMatrix(bd_matrix(p.c1, p.c2, p.c3), (2, 2))


def bd_rank(p: BellDiagonalParams) -> int:
    return sum(x > PHYSICALITY_TOL for x in p.eigenvalues)


def bloch_decompose(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of a two-qubit state: Alice's and Bob's local Bloch vectors
    and the 3x3 correlation matrix."""
    require_qubits(rho, 2)
    c = np.einsum("ijkl,lk->ij", PAULI_PRODUCTS, rho.matrix).real  # Tr[rho P_ij]
    return c[1:, 0], c[0, 1:], c[1:, 1:]


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
    """Mixture (1+c3)/2 |psi+><psi+| + (1-c3)/2 |phi+><phi+|, c = (1, c3, -c3), physical for |c3| <= 1."""
    c3 = float(c3)
    return bell_diagonal(BellDiagonalParams(1.0, c3, -c3))


def werner(p: float) -> DensityMatrix:
    """Singlet-weighted Werner state p |psi-><psi-| + (1-p) I/4.

    Bell-diagonal with c1 = c2 = c3 = -p; physical for p in [-1/3, 1].
    """
    p = float(p)
    return bell_diagonal(BellDiagonalParams(-p, -p, -p))


def classically_correlated() -> DensityMatrix:
    """The state (|00><00| + |11><11|) / 2, Bell-diagonal with c = (0, 0, 1)."""
    return bell_diagonal(BellDiagonalParams(0.0, 0.0, 1.0))


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
        lam = bell_eigenvalues(*c)
        if not on_tetrahedron(lam, DERIVED_TOL):
            raise
    lam = np.clip(lam, 0.0, None)
    return BellDiagonalParams(*(_BELL_SIGNS @ (lam / lam.sum())))


def _norm(x: np.ndarray) -> float:
    """`np.linalg.norm` of a real 1-D array, bit for bit, as it computes
    it, with none of its dispatch: the square root of the dot of its ravel."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


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
    a, b, T = bloch_decompose(rho)
    na, nb = _norm(a), _norm(b)
    if not max(na, nb) <= MARGINAL_TOL:
        raise ValueError(f"state does not have maximally mixed marginals: |a| = {na:.3e}, |b| = {nb:.3e}")
    (t11, t12, t13), (t21, t22, t23), (t31, t32, t33) = T.tolist()
    if t12 == t13 == t21 == t23 == t31 == t32 == 0.0:
        return round_onto_tetrahedron((t11, t22, t33)), IDENTITY_FRAME, IDENTITY_FRAME
    RA, s, RB = signed_svd(T)
    return round_onto_tetrahedron(s.tolist()), RA, RB


def as_int(x, name: str) -> int:
    """x as an int, refused with a ValueError that names it unless it is an
    integer; a bool is not one. The callers check its range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} {x!r} is not an integer")
    return int(x)


def bd_block(c) -> np.ndarray:
    """Correlation triples as one (n, 3) float array, each row checked as
    `BellDiagonalParams` checks its triple: the first row that fails raises
    that constructor's ValueError. A non-finite or huge row fails through
    NaN or infinite eigenvalues, formed here without numpy's warnings."""
    try:
        c = np.array(c, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValueError(f"triples must form an (n, 3) array of numbers: {e}") from e
    if c.ndim != 2 or c.shape[1] != 3:
        raise ValueError(f"triples must form an (n, 3) array, got shape {c.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        ok = on_tetrahedron(bell_eigenvalues(*c.T))
    if not ok.all():
        BellDiagonalParams(*c[np.argmin(ok)].tolist())
    return c


def random_bd_block(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform samples of the physical Bell-diagonal tetrahedron
    (rejection) as one (n, 3) block of the rows that `bd_block` accepts.

    The rows are those of a loop that draws `rng.uniform(-1, 1, 3)` until
    n triples lie on the tetrahedron, since `Generator.uniform` draws one
    double per entry, in order; where it leaves the generator is no part of
    the result. `on_tetrahedron` keeps the physical tries, drawn in blocks;
    they are the rows `bd_block` accepts, so no second check runs.
    """
    n = as_int(n, "sample count")
    if n < 0:
        raise ValueError(f"sample count {n} must be at least 0")
    tries = np.empty((0, 3))
    while True:  # about one try in three is physical
        tries = np.concatenate([tries, rng.uniform(-1, 1, (3 * n + 32, 3))])
        kept = np.flatnonzero(on_tetrahedron(bell_eigenvalues(*tries.T)))
        if len(kept) >= n:
            break
    return tries[kept[:n]]


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
        dims = doc["dims"]  # DensityMatrix checks the dims
        re, im = (np.array(doc[key], dtype=object) for key in ("matrix_re", "matrix_im"))
        # as floats, json's true and "0.25" read as 1 and 0.25, and an int that no float holds raises
        for x in (*re.flat, *im.flat):
            if not (type(x) is float or type(x) is int and abs(x) <= sys.float_info.max):
                raise ValueError(f"entry {reprlib.repr(x)} is not a float or an int within float range")
        n = math.isqrt(re.size)
        m = re.astype(float).reshape(n, n) + 1j * im.astype(float).reshape(n, n)
    except KeyError as e:
        raise ValueError(f"state file lacks the key {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"malformed state file: {e}") from e
    return DensityMatrix(m, dims)
