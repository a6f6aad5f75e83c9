"""Dense complex linear algebra for small multi-qubit operators, and the
helpers every module shares: the tolerance table, the angle-to-Bloch map,
the Bloch-to-operator map (I + v . sigma)/2 and the number formatter.

Everything here works on plain numpy arrays in dimensions 2, 4 and 8.
Qubit ordering is big-endian: factor 0 is the leftmost tensor slot.
"""

from functools import reduce

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
# form, a closed-form discord that must not be negative.
DERIVED_TOL = 1e-9
# Closed-form Bell-basis eigenvalues are exact up to rounding.
PHYSICALITY_TOL = 1e-12
# Norm check on the unit Bloch vector of Bob's measurement in the Holevo
# quantity.
UNIT_TOL = 1e-12
# Rounding allowed on a correlation coefficient above 1.
PROB_CLAMP = 1e-12
# Measurement branches with weight below this contribute nothing.
ZERO_BRANCH = 1e-15
# Separates "zero" from "entangled" on partial-transpose eigenvalues.
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


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right: bit for bit
    np.kron, whose entrywise products it forms as one broadcast per pair."""
    if not ops:
        raise ValueError("kron needs at least one operand")
    return reduce(lambda a, b: (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1), ops)


def bloch_vector(theta, phi) -> np.ndarray:
    """Unit Bloch vector(s) of polar angle theta and azimuth phi, stacked
    on a last axis of length 3."""
    s = np.sin(theta)
    return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1)


def bloch_operator(v) -> np.ndarray:
    """(I + v . sigma)/2 for Bloch vector(s) v stacked on a last axis of
    length 3: the qubit state of Bloch vector v, and for a unit v the
    projector on the +1 outcome along v (-v gives the -1 outcome)."""
    v = np.asarray(v, dtype=float)
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


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= STATE_TOL)


def _check_dims(m: np.ndarray, dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match factor dims {dims}")
    return dims


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    `dims` lists the dimension of each factor; `keep` lists factor indices
    (big-endian order) that survive. Returns the reduced matrix.
    """
    dims = _check_dims(m, dims)
    n = len(dims)
    keep = sorted(int(k) for k in keep)
    if not keep:
        raise ValueError("must keep at least one factor")
    for k in keep:
        if k < 0 or k >= n:
            raise ValueError(f"factor index {k} out of range for {n} factors")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate factor index in keep")

    r = m.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    live = list(dims)
    for i in sorted(traced, reverse=True):
        r = np.trace(r, axis1=i, axis2=i + len(live))
        live.pop(i)
    d = int(np.prod([dims[k] for k in keep]))
    return r.reshape(d, d)


def partial_transpose(m: np.ndarray, dims, factor: int) -> np.ndarray:
    """Transpose a single tensor factor, leaving the others alone."""
    dims = _check_dims(m, dims)
    n = len(dims)
    factor = int(factor)
    if factor < 0 or factor >= n:
        raise ValueError(f"factor index {factor} out of range for {n} factors")
    r = m.reshape(dims + dims)
    r = np.swapaxes(r, factor, factor + n)
    return r.reshape(m.shape)


def hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted ascending."""
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def entropy_of_probabilities(p: np.ndarray) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0.

    Tiny negative entries (float noise from eigensolves) are dropped as zeros;
    entries below -EIG_CLAMP_TOL, NaN and infinite entries raise.
    """
    p = np.asarray(p, dtype=float)
    if not p.min() >= -EIG_CLAMP_TOL:  # written so that a NaN fails
        raise ValueError(f"probability {p.min():.3e} is NaN or below -{EIG_CLAMP_TOL:g}")
    nz = p[p > 0.0]
    h = float(-np.sum(nz * np.log(nz)) / LOG2)
    if not h > -np.inf:  # an infinite entry makes h -inf
        raise ValueError(f"entropy of {p.tolist()} is not finite")
    return h


def von_neumann_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy in bits of a positive semidefinite matrix."""
    return entropy_of_probabilities(hermitian_spectrum(m))
