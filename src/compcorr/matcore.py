"""Dense complex linear algebra for small multi-qubit operators, and the
helpers every module shares: the tolerance table, the angle-to-Bloch map,
the Bloch-to-operator map (I + v . sigma)/2 and the number formatter.

Everything here works on plain numpy arrays of qubit registers, in dimensions
2, 4 and 8, and reads a register of n qubits off its size 2**n. Qubit
ordering is big-endian: factor 0 is the leftmost tensor slot.
"""

from functools import cache

import numpy as np

# Tolerance table: one constant per meaning.
# Hermiticity, unit trace (or unit sum) and PSD checks on a supplied matrix.
STATE_TOL = 1e-10
# Eigenvalues in [-EIG_CLAMP_TOL, 0) are treated as float noise and clamped
# to zero before entropies; anything more negative is a genuine error.
EIG_CLAMP_TOL = 1e-8
# Local Bloch vectors (and off-diagonal correlations) below this vanish.
MARGINAL_TOL = 1e-8
# Slack for a value derived through rounding: a triple read off the normal
# form (the bound `round_onto_tetrahedron` gives `states.on_tetrahedron`), a
# closed-form discord that must not be negative.
DERIVED_TOL = 1e-9
# Closed-form Bell-basis eigenvalues are exact up to rounding: the bound of
# the physicality rule, `states.on_tetrahedron`, and of `bd_rank`.
PHYSICALITY_TOL = 1e-12
# Norm check on the unit Bloch vector of Bob's measurement in the Holevo
# quantity.
UNIT_TOL = 1e-12
# Rounding allowed on a correlation coefficient above 1.
PROB_CLAMP = 1e-12
# Measurement branches with weight below this contribute nothing.
ZERO_BRANCH = 1e-15
# Separates "zero" from "entangled" on partial-transpose eigenvalues: the
# bound of the PPT rule, `entanglement.reads_ppt`; `all_correlations_nonzero`
# reads it as the least nonzero correlation.
PPT_TOL = 1e-12
# Orthonormality and squared cross-basis overlaps of measurement bases.
MUB_TOL = 1e-12

LOG2 = np.log(2.0)

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
SIGMAS = np.stack((I2,) + PAULIS)  # sigma_0 = I, then sigma_x, sigma_y, sigma_z
_PAULI_ROWS = SIGMAS[1:].reshape(3, 4)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of stacks (..., r, c) of them
    matrix by matrix: bit for bit np.kron of each, whose entrywise products
    it forms as one broadcast."""
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    return p.reshape(p.shape[:-4] + (p.shape[-4] * p.shape[-3], p.shape[-2] * p.shape[-1]))


def bloch_vector(theta, phi) -> np.ndarray:
    """Unit Bloch vector(s) of polar angle theta and azimuth phi, stacked
    on a last axis of length 3. One pair of angles gives a (3,) array with
    no stack."""
    s = np.sin(theta)
    v = (s * np.cos(phi), s * np.sin(phi), np.cos(theta))
    return np.stack(v, axis=-1) if np.ndim(s) else np.array(v)


def bloch_operator(v) -> np.ndarray:
    """(I + v . sigma)/2 for Bloch vector(s) v stacked on a last axis of
    length 3: the qubit state of Bloch vector v, and for a unit v the
    projector on the +1 outcome along v (-v gives the -1 outcome).

    One vector is built entry by entry from Python floats, bit for bit the
    stacked form: each entry of v . sigma has one nonzero term, so the
    matrix product is exact; I's zeros turn a signed zero into +0.0, which
    `+ 0.0` does here; and the complex division by 2 halves both parts."""
    v = np.asarray(v, dtype=float)
    if v.shape == (3,):
        x, y, z = v.tolist()
        x, y = x + 0.0, y + 0.0
        return np.array([[(1 + z) / 2, complex(x / 2, (0.0 - y) / 2)], [complex(x / 2, y / 2), (1 - z) / 2]], dtype=complex)
    return (I2 + (v @ _PAULI_ROWS).reshape(v.shape[:-1] + (2, 2))) / 2


def fmt(v) -> str:
    """The one number format for text and CSV output: '' for None, lowercase
    booleans, plain integers, 12 significant digits, and sequences joined by
    spaces."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return " ".join(fmt(x) for x in v)
    return f"{v:.12g}"


@cache
def pt_index(n: int, factors: tuple[int, ...]) -> np.ndarray:
    """Read-only (len(factors), 4**n) gather index of an n-qubit register:
    row i lists, for each entry of a flattened 2**n x 2**n matrix, the flat
    position that its partial transpose on qubit factors[i] reads."""
    flat = np.arange(4**n).reshape((2,) * (2 * n))
    index = np.stack([np.swapaxes(flat, f, f + n).ravel() for f in factors])
    index.flags.writeable = False
    return index


def pt_spectra(stack: np.ndarray, factors) -> np.ndarray:
    """Ascending spectra of the partial transpose on each qubit of `factors`
    of every matrix of an (n, d, d) stack, d = 2**q for q qubits, as an
    (n, len(factors), d) array, all from one stacked eigvalsh. A (1, d, d)
    stack gives the bits of one eigvalsh of the d x d partial transpose. The
    transposes are one gather of the flattened stack through `pt_index`.

    No Hermiticity check: a partial transpose permutes the entries of
    M - M^dagger, so the caller's check on M covers it."""
    factors, d = tuple(factors), stack.shape[-1]
    q = d.bit_length() - 1
    if d != 2**q or not all(0 <= f < q for f in factors):
        raise ValueError(f"factor indices {factors} are not qubits of a {d} x {d} matrix")
    pts = stack.reshape(len(stack), d * d)[:, pt_index(q, factors)]
    return np.linalg.eigvalsh(pts.reshape(-1, d, d)).reshape(len(stack), len(factors), d)


def entropy_of_probabilities(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0.

    Tiny negative entries (float noise from eigensolves) are dropped as zeros;
    entries below -EIG_CLAMP_TOL, NaN and infinite entries raise.

    The entries are summed left to right as Python floats, each term with
    the scalar np.log, whose bits are the array np.log's (math.log's are
    not always). np.sum also adds fewer than 8 entries left to right, so
    for such inputs (every runtime caller passes at most 4) the result is
    bit for bit -np.sum(nz * np.log(nz)) / LOG2 over the positive entries
    nz; from 8 entries on, np.sum sums pairwise and the two can differ in
    the last bits.
    """
    ps = p.ravel().tolist() if isinstance(p, np.ndarray) else [float(x) for x in p]
    if not ps:
        raise ValueError("entropy of an empty probability list")
    if not all(x >= -EIG_CLAMP_TOL for x in ps):  # written so that a NaN fails
        raise ValueError(f"probability {np.min(ps):.3e} is NaN or below -{EIG_CLAMP_TOL:g}")
    acc = 0.0
    for x in ps:
        if x > 0.0:
            acc += x * np.log(x)
    h = float(-acc / LOG2)
    if not h > -np.inf:  # an infinite entry makes h -inf
        raise ValueError(f"entropy of {ps} is not finite")
    return h
