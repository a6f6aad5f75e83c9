import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcorr.matcore import (
    EIG_CLAMP_TOL,
    I2,
    LOG2,
    PAULIS,
    SIGMA_Z,
    bloch_operator,
    bloch_vector,
    entropy_of_probabilities,
    fmt,
    kron,
    pt_spectra,
)
from compcorr.states import DensityMatrix
from testkit import PHI_PLUS, partial_transpose, random_density_matrix


def test_kron_identity():
    np.testing.assert_allclose(kron(I2, I2), np.eye(4))


def test_kron_diagonal():
    np.testing.assert_allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))


def test_kron_dims():
    a = np.ones((2, 2))
    b = np.ones((4, 4))
    assert kron(a, b).shape == (8, 8)


def test_kron_associative():
    rng = np.random.default_rng(7)

    def complex_2x2():
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    for _ in range(20):
        a, b, c = complex_2x2(), complex_2x2(), complex_2x2()
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-12


def test_kron_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(8)

    def cplx(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def same_bits(x, y):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    for _ in range(20):
        a, b, c, d = cplx(2), cplx(2), cplx(4), cplx(4)
        assert same_bits(kron(a, b), np.kron(a, b))
        assert same_bits(kron(c, d), np.kron(c, d))
        assert same_bits(kron(a, c), np.kron(a, c))
        assert same_bits(kron(kron(a, b), c), np.kron(np.kron(a, b), c))


def test_kron_of_stacks_is_each_kron_bit_for_bit():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 5, 2, 2)) + 1j * rng.normal(size=(2, 5, 2, 2))
    c = rng.normal(size=(5, 4, 3))
    got = kron(kron(a, b), c)
    assert got.shape == (5, 16, 12)
    for k in range(5):
        assert got[k].tobytes() == np.kron(np.kron(a[k], b[k]), c[k]).tobytes()
    # a single matrix broadcasts against a stack
    assert kron(a[0], b).tobytes() == np.stack([np.kron(a[0], m) for m in b]).tobytes()


def test_partial_transpose_bell_spectrum():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    lam = np.linalg.eigvalsh(partial_transpose(rho, (2, 2), 0))
    np.testing.assert_allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_hermiticity():
    rng = np.random.default_rng(3)
    states = [random_density_matrix(rng, (2, 2)) for _ in range(100)]
    for rho in states:
        pt = partial_transpose(rho.matrix, (2, 2), 0)
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-12)
        assert abs(np.trace(pt).real - 1.0) < 1e-12
        back = partial_transpose(pt, (2, 2), 0)
        assert np.max(np.abs(back - rho.matrix)) < 1e-14


def test_partial_transpose_product_is_psd():
    rng = np.random.default_rng(4)
    ra = random_density_matrix(rng, (2,)).matrix
    rb = random_density_matrix(rng, (2,)).matrix
    lam = np.linalg.eigvalsh(partial_transpose(kron(ra, rb), (2, 2), 0))
    assert lam.min() > -1e-12


@pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2)])
def test_pt_spectra_are_the_single_solves_bit_for_bit(dims):
    rng = np.random.default_rng(22)
    stack = np.stack([random_density_matrix(rng, dims).matrix for _ in range(300)])
    factors = tuple(range(len(dims)))
    spectra = pt_spectra(stack, factors)
    assert spectra.shape == (300, len(dims), stack.shape[-1])
    for m, row in zip(stack, spectra):
        for f, lam in zip(factors, row):
            single = np.linalg.eigvalsh(partial_transpose(m, dims, f))
            assert lam.tobytes() == single.tobytes() == pt_spectra(m[None], (f,))[0, 0].tobytes()


def test_pt_spectra_size_must_match_the_dims():
    # the register is read off the size, which must be 2**n for n qubits
    for d in (3, 6):
        with pytest.raises(ValueError, match=rf"^factor indices \(0,\) are not qubits of a {d} x {d} matrix$"):
            pt_spectra((np.eye(d) / d)[None], (0,))


def test_pt_spectra_of_an_empty_stack():
    assert pt_spectra(np.zeros((0, 8, 8), dtype=complex), (2,)).shape == (0, 1, 8)


@pytest.mark.parametrize("factor", [2, -1])
def test_pt_spectra_bad_factor(factor):
    with pytest.raises(ValueError, match=rf"^factor indices \(0, {factor}\) are not qubits of a 4 x 4 matrix$"):
        pt_spectra((np.eye(4) / 4)[None], (0, factor))


def _entropy(rho: DensityMatrix) -> float:
    """S(rho) in bits, as the measured references score a state."""
    return entropy_of_probabilities(np.linalg.eigvalsh(rho.matrix))


def test_entropy_examples():
    pure = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
    assert _entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert _entropy(DensityMatrix(np.eye(2) / 2, (2,))) == pytest.approx(1.0, abs=1e-12)
    assert _entropy(DensityMatrix(np.eye(4) / 4, (2, 2))) == pytest.approx(2.0, abs=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density_matrix(rng, (2, 2))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
        assert _entropy(rotated) == pytest.approx(_entropy(rho), abs=1e-10)


def test_entropy_rejects_genuinely_negative():
    with pytest.raises(ValueError, match="below -1e-08"):
        entropy_of_probabilities(np.linalg.eigvalsh(np.diag([1.0 + 1e-6, -1e-6])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_rejects_a_non_finite_probability(bad):
    # a NaN would be dropped by the p > 0 mask (entropy 1.0) and an infinity
    # would give -inf, so both must raise
    with pytest.raises(ValueError, match="NaN|not finite"):
        entropy_of_probabilities([0.5, bad, 0.5])


def _entropy_numpy(p):
    """The numpy form of `entropy_of_probabilities`: one array log and one
    np.sum over the positive entries."""
    p = np.asarray(p, dtype=float)
    if not p.min() >= -EIG_CLAMP_TOL:
        raise ValueError(f"probability {p.min():.3e} is NaN or below -{EIG_CLAMP_TOL:g}")
    nz = p[p > 0.0]
    h = float(-np.sum(nz * np.log(nz)) / LOG2)
    if not h > -np.inf:
        raise ValueError(f"entropy of {p.tolist()} is not finite")
    return h


# zeros, tiny negatives down to -EIG_CLAMP_TOL, and positive entries over
# many decades, as eigensolves and closed forms produce them
entries = st.one_of(
    st.just(0.0),
    st.just(-EIG_CLAMP_TOL),
    st.floats(-EIG_CLAMP_TOL, 0.0),
    st.floats(0.0, 1.0),
    st.floats(1e-300, 1e-3),
)


@given(st.lists(entries, min_size=1, max_size=7), st.booleans())
@settings(max_examples=200, deadline=None)
def test_entropy_is_the_numpy_form_bit_for_bit(p, as_array):
    # np.sum adds fewer than 8 entries left to right, as the Python loop does
    arg = np.array(p) if as_array else p
    assert np.float64(entropy_of_probabilities(arg)).tobytes() == np.float64(_entropy_numpy(p)).tobytes()


@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, -2e-8, 0.5], [np.inf, np.nan], [-1.0]])
def test_entropy_error_messages_are_the_numpy_forms(p):
    with pytest.raises(ValueError) as want:
        _entropy_numpy(p)
    with pytest.raises(ValueError) as got:
        entropy_of_probabilities(np.array(p))
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        entropy_of_probabilities(p)


def test_entropy_of_no_probabilities():
    with pytest.raises(ValueError, match="empty"):
        entropy_of_probabilities([])


def test_bloch_vector_batches_and_scalars():
    theta, phi = np.array([0.0, np.pi / 2, 0.7]), np.array([0.3, np.pi / 2, 1.1])
    n = bloch_vector(theta, phi)
    assert n.shape == (3, 3)
    np.testing.assert_allclose(n[0], [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(n[1], [0, 1, 0], atol=1e-15)
    np.testing.assert_array_equal(bloch_vector(theta[2], phi[2]), n[2])
    np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-15)


def test_bloch_operator_stacks_over_leading_axes():
    rng = np.random.default_rng(8)
    v = rng.uniform(-0.5, 0.5, size=(4, 2, 3))
    got = bloch_operator(v)
    assert got.shape == (4, 2, 2, 2)
    for idx in np.ndindex(4, 2):
        np.testing.assert_array_equal(got[idx], bloch_operator(v[idx]))
        # a state of Bloch vector v: unit trace, and Tr[rho sigma_k] = v_k
        assert np.trace(got[idx]) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose([np.trace(got[idx] @ s).real for s in PAULIS], v[idx], atol=1e-15)


# Bloch components with signed zeros, subnormals and the unit ends
bloch_components = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]), st.floats(-1, 1))


@given(st.tuples(bloch_components, bloch_components, bloch_components))
@settings(max_examples=300, deadline=None)
def test_one_bloch_vector_is_its_one_row_stack_bit_for_bit(v):
    # one vector is built entry by entry; the stack by the matrix product with the Pauli rows
    assert bloch_operator(v).tobytes() == bloch_operator(np.array([v]))[0].tobytes()


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=100, deadline=None)
def test_one_pair_of_angles_is_its_one_row_stack_bit_for_bit(theta, phi):
    assert bloch_vector(theta, phi).tobytes() == bloch_vector(np.array([theta]), np.array([phi]))[0].tobytes()


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (True, "true"),
        (np.False_, "false"),
        (3, "3"),
        (np.int64(-2), "-2"),
        (0.0, "0"),
        (-0.015703281145182324, "-0.0157032811452"),
        ([1.3659098493868664, 0.0, 0.8], "1.36590984939 0 0.8"),
        (np.array([0.5, -0.125]), "0.5 -0.125"),
    ],
)
def test_fmt_rules(value, text):
    assert fmt(value) == text
