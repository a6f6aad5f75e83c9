"""Helpers the tests share: the Bell vectors, the physicality rule on a raw
triple, checked Bell-diagonal draws as objects, Ginibre random states, the
dims that `DensityMatrix` refuses, and the swapaxes partial transpose that
is the reference for `matcore.pt_spectra`'s gather. pytest puts this
directory on sys.path, so tests import it by name."""

import numpy as np

from compcorr.states import BellDiagonalParams, DensityMatrix, bell_eigenvalues, on_tetrahedron, random_bd_block

# the Bell vectors, in the order (phi+, phi-, psi+, psi-) of the Bell-basis eigenvalues
PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) * (1 / np.sqrt(2))


# dims that a 4x4 matrix refuses: no factor, factors other than 2, a bool, a
# str, NaN, inf, an int that no float holds, array-valued entries, a
# non-iterable, and qubits that do not fit
REFUSED_DIMS = [
    (),
    (1,),
    (3,),
    (4,),
    (-1, -1),
    (2, 0),
    (2.9, 2),
    (True, 2),
    ("2", 2),
    (float("nan"), 2),
    (float("inf"), 2),
    (10**400, 2),
    (np.array([2]), 2),
    (np.array([2, 2]), 2),
    2,
    None,
    (2,),
    (2, 2, 2),
]


def dims_refusal(dims, shape) -> str:
    """The message that `DensityMatrix` refuses the dims of a matrix of the shape with."""
    return f"factor dims {dims} must name at least one factor, each 2, one per qubit of the {shape} matrix"


def is_physical(c) -> bool:
    """Whether a raw triple passes the eigenvalue check of BellDiagonalParams; a NaN fails."""
    return bool(on_tetrahedron(bell_eigenvalues(*c)))


def random_bd_params(rng: np.random.Generator, n: int | None = None):
    """One uniform sample of the physical Bell-diagonal tetrahedron, or,
    given n, a list of n: the rows of one `random_bd_block` draw. One at a
    time, each call is a fresh block draw, so the samples are not those of
    one draw of n."""
    if n is None:
        return BellDiagonalParams(*random_bd_block(rng, 1)[0].tolist())
    return [BellDiagonalParams(*c) for c in random_bd_block(rng, n).tolist()]


def random_density_matrix(rng: np.random.Generator, dims) -> DensityMatrix:
    """Ginibre-distributed full-rank random state."""
    dims = tuple(dims)
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def partial_transpose(m: np.ndarray, dims, factor: int) -> np.ndarray:
    """m with tensor factor `factor` transposed: its row and column axes of
    that factor swapped in the (dims + dims) view."""
    dims = tuple(dims)
    r = np.swapaxes(m.reshape(dims + dims), factor, factor + len(dims))
    return r.reshape(m.shape)
