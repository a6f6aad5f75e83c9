import numpy as np
import pytest

from compcorr.matcore import (
    I2,
    PAULIS,
    SIGMA_Z,
    bloch_operator,
    bloch_vector,
    entropy_of_probabilities,
    fmt,
    hermitian_spectrum,
    kron,
    partial_trace,
    partial_transpose,
    von_neumann_entropy,
)
from compcorr.oracle import check_involution, check_kron
from compcorr.states import PHI_PLUS, random_density_matrix


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

    assert check_kron([(complex_2x2(), complex_2x2(), complex_2x2()) for _ in range(20)]).passed


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
        assert same_bits(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_partial_trace_bell():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), [0]), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product():
    rng = np.random.default_rng(1)
    ra = random_density_matrix(rng, (2,)).matrix
    rb = random_density_matrix(rng, (2,)).matrix
    np.testing.assert_allclose(partial_trace(kron(ra, rb), (2, 2), [0]), ra, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    rho = random_density_matrix(rng, (2, 2, 2)).matrix
    reduced = partial_trace(rho, (2, 2, 2), [0, 1])
    assert abs(np.trace(reduced).real - 1.0) < 1e-12


def test_partial_trace_bad_index():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, (2, 2), [2])


def test_partial_transpose_bell_spectrum():
    rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
    lam = hermitian_spectrum(partial_transpose(rho, (2, 2), 0))
    np.testing.assert_allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_hermiticity():
    rng = np.random.default_rng(3)
    states = [random_density_matrix(rng, (2, 2)) for _ in range(100)]
    for rho in states:
        pt = partial_transpose(rho.matrix, (2, 2), 0)
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-12)
        assert abs(np.trace(pt).real - 1.0) < 1e-12
    assert check_involution(states).passed


def test_partial_transpose_product_is_psd():
    rng = np.random.default_rng(4)
    ra = random_density_matrix(rng, (2,)).matrix
    rb = random_density_matrix(rng, (2,)).matrix
    lam = hermitian_spectrum(partial_transpose(kron(ra, rb), (2, 2), 0))
    assert lam.min() > -1e-12


def test_partial_transpose_bad_factor():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4) / 4, (2, 2), 5)


def test_hermitian_spectrum_examples():
    np.testing.assert_allclose(hermitian_spectrum(np.eye(4) / 4), [0.25] * 4)
    np.testing.assert_allclose(hermitian_spectrum(np.diag([0.9, 0.1])), [0.1, 0.9])


def test_hermitian_spectrum_rejects_nonhermitian():
    with pytest.raises(ValueError):
        hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_spectrum_sums_to_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_density_matrix(rng, (2, 2)).matrix
        assert abs(hermitian_spectrum(rho).sum() - np.trace(rho).real) < 1e-10


def test_entropy_examples():
    pure = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density_matrix(rng, (2, 2)).matrix
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


def test_entropy_rejects_genuinely_negative():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.0 + 1e-6, -1e-6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_rejects_a_non_finite_probability(bad):
    # a NaN would be dropped by the p > 0 mask (entropy 1.0) and an infinity
    # would give -inf, so both must raise
    with pytest.raises(ValueError, match="NaN|not finite"):
        entropy_of_probabilities([0.5, bad, 0.5])


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
