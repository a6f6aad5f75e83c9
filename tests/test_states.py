import json

import numpy as np
import pytest

from compcorr.entanglement import is_separable_bd
from compcorr.matcore import PHYSICALITY_TOL, kron
from compcorr.oracle import check_spectra
from compcorr.states import (
    PHI_PLUS,
    PSI_PLUS,
    BellDiagonalParams,
    DensityMatrix,
    _pauli_sum,
    bd_params_of,
    bd_spectrum,
    bell_diagonal,
    bloch_decompose,
    classically_correlated,
    family_eq15,
    is_physical,
    load_state,
    random_bd_params,
    random_density_matrix,
    round_onto_tetrahedron,
    save_state,
    signed_svd,
    werner,
)


def random_su2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    return u / np.sqrt(np.linalg.det(u))


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        m = np.eye(4) / 4
        m = m.astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2, (2, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex), (2, 2))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 2, 2))

    def test_rejects_factor_dims_below_one(self, tmp_path):
        with pytest.raises(ValueError, match=r"dims \(-1, -1\)"):
            DensityMatrix(np.eye(1), (-1, -1))
        path = tmp_path / "state.json"
        path.write_text('{"dims": [-1, -1], "matrix_re": [1.0], "matrix_im": [0.0]}')
        with pytest.raises(ValueError, match=r"dims \(-1, -1\)"):
            load_state(path)
        with pytest.raises(ValueError, match=r"dims \(\) must name at least one factor"):
            DensityMatrix(np.eye(1), ())
        # a fractional dim is refused, not truncated to 2
        with pytest.raises(ValueError, match=r"dims \(2.9, 2\)"):
            DensityMatrix(np.eye(4) / 4, (2.9, 2))
        mixed = (np.eye(4) / 4).ravel().tolist()
        path.write_text(json.dumps({"dims": [2.9, 2], "matrix_re": mixed, "matrix_im": [0.0] * 16}))
        with pytest.raises(ValueError, match=r"dims \(2.9, 2\)"):
            load_state(path)

    def test_immutable(self):
        rho = bell_diagonal(BellDiagonalParams(0, 0, 0))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9

    def test_equality_and_hash_by_identity(self):
        p = BellDiagonalParams(0.3, -0.3, 0.3)
        rho, other = bell_diagonal(p), bell_diagonal(p)
        assert rho == rho
        assert (rho == other) is False  # no ambiguous array truth value
        assert hash(rho) == hash(rho) and len({rho, other}) == 2


class TestBellDiagonal:
    def test_maximally_mixed(self):
        rho = bell_diagonal(BellDiagonalParams(0, 0, 0))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_unphysical_reports_eigenvalue(self):
        with pytest.raises(ValueError, match="-0.5"):
            bell_diagonal(BellDiagonalParams(1, 1, 1))

    def test_params_are_a_checked_value(self):
        # checked on construction; Python floats; the kept eigenvalues are
        # neither compared nor hashed
        p = BellDiagonalParams(np.float64(0.5), 0, np.float64(-0.25))
        assert all(type(x) is float for x in (p.c1, p.c2, p.c3))
        assert p.eigenvalues == (0.3125, 0.0625, 0.4375, 0.1875)
        q = BellDiagonalParams(0.5, 0.0, -0.25)
        assert p == q and hash(p) == hash(q) and "eigenvalues" not in repr(p)
        with pytest.raises(ValueError, match="psi- is -0.5"):
            BellDiagonalParams(1, 1, 1)
        with pytest.raises(ValueError, match="non-finite"):
            BellDiagonalParams(0.0, float("inf"), 0.0)
        assert not is_physical((1, 1, 1)) and not is_physical((0.0, float("nan"), 0.0))
        assert is_physical((1, -1, 1))

    def test_rounding_onto_the_tetrahedron(self):
        # psi- eigenvalue -5e-11: within DERIVED_TOL, clipped to 0
        p = round_onto_tetrahedron((0.0, 0.0, 1 + 2e-10))
        assert p.as_array() == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
        assert min(p.eigenvalues) >= -PHYSICALITY_TOL
        # -2.5e-9, beyond it
        with pytest.raises(ValueError, match="unphysical correlation triple"):
            round_onto_tetrahedron((0.0, 0.0, 1 + 1e-8))

    def test_pure_bell_state(self):
        rho = bell_diagonal(BellDiagonalParams(1, -1, 1))
        np.testing.assert_allclose(rho.matrix, np.outer(PHI_PLUS, PHI_PLUS.conj()), atol=1e-14)

    def test_spectrum_examples(self):
        np.testing.assert_allclose(bd_spectrum(BellDiagonalParams(0, 0, 0)), [0.25] * 4)
        np.testing.assert_allclose(bd_spectrum(BellDiagonalParams(0, 0, 1)), [0, 0, 0.5, 0.5], atol=1e-15)

    def test_spectrum_matches_numeric(self):
        lam = bd_spectrum(BellDiagonalParams(0.5, 0.25, 0.25))
        numeric = bell_diagonal(BellDiagonalParams(0.5, 0.25, 0.25)).spectrum()
        np.testing.assert_allclose(lam, numeric, atol=1e-12)

    def test_spectrum_crosscheck_sampled(self):
        rng = np.random.default_rng(11)
        assert check_spectra([random_bd_params(rng) for _ in range(1000)]).passed

    def test_random_bd_params_matches_a_reference_rejection_loop(self):
        # one uniform draw of three per try, kept when its closed-form
        # Bell-basis eigenvalues are all at least -PHYSICALITY_TOL
        rng = np.random.default_rng(0)
        want = []
        while len(want) < 1000:
            c = rng.uniform(-1, 1, 3)
            c1, c2, c3 = c
            lam = np.array([1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3]) / 4
            if lam.min() >= -PHYSICALITY_TOL:
                want.append(c)
        rng = np.random.default_rng(0)
        got = [random_bd_params(rng).as_array() for _ in range(1000)]
        np.testing.assert_array_equal(got, want)

    def test_separability(self):
        assert is_separable_bd(BellDiagonalParams(0, 0, 1))
        assert not is_separable_bd(BellDiagonalParams(1, -1, 1))
        # max closed-form eigenvalue is 0.475
        assert is_separable_bd(BellDiagonalParams(0.3, -0.3, 0.3))

    def test_separability_agrees_with_negativity(self):
        from compcorr.entanglement import negativity

        rng = np.random.default_rng(12)
        for _ in range(300):
            p = random_bd_params(rng)
            neg = negativity(bell_diagonal(p), 0)
            assert is_separable_bd(p) == (neg < 1e-12)


class TestBlochDecomposition:
    def test_bell_diagonal_inverse(self):
        p = BellDiagonalParams(0.4, -0.2, 0.1)
        dec = bloch_decompose(bell_diagonal(p))
        np.testing.assert_allclose(dec.a, 0, atol=1e-12)
        np.testing.assert_allclose(dec.b, 0, atol=1e-12)
        np.testing.assert_allclose(dec.T, np.diag([0.4, -0.2, 0.1]), atol=1e-12)

    def test_product_state(self):
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1
        rho = DensityMatrix(kron(zero, np.eye(2) / 2), (2, 2))
        dec = bloch_decompose(rho)
        np.testing.assert_allclose(dec.a, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(dec.b, 0, atol=1e-12)
        np.testing.assert_allclose(dec.T, 0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_density_matrix(rng, (2, 2))
            dec = bloch_decompose(rho)
            c = np.block([[np.ones((1, 1)), dec.b[None, :]], [dec.a[:, None], dec.T]])
            back = DensityMatrix(_pauli_sum(c), (2, 2))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_bd_recovery_tight(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_bd_params(rng)
            dec = bloch_decompose(bell_diagonal(p))
            np.testing.assert_allclose(np.diag(dec.T), p.as_array(), atol=1e-12)


class TestNormalForm:
    """The local-unitary normal form of a state with maximally mixed
    marginals is the Bell-diagonal state of the signed singular values of T."""

    @staticmethod
    def _assert_recovers(rho, p, atol):
        T = bloch_decompose(rho).T
        RA, s, RB = signed_svd(T)
        np.testing.assert_allclose(RA @ T @ RB.T, np.diag(s), rtol=0, atol=atol)
        np.testing.assert_allclose(sorted(np.abs(s)), sorted(np.abs(p.as_array())), rtol=0, atol=atol)
        # det T = c1 c2 c3 is invariant under local unitaries
        assert np.prod(s) == pytest.approx(np.prod(p.as_array()), rel=0, abs=atol)

    def test_bell_diagonal_input_stays_diagonal(self):
        p = BellDiagonalParams(0.5, 0.2, -0.1)
        self._assert_recovers(bell_diagonal(p), p, 1e-14)

    def test_locally_rotated_state_recovers_coefficients(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            p = random_bd_params(rng)
            local = kron(random_su2(rng), random_su2(rng))
            rotated = DensityMatrix(local @ bell_diagonal(p).matrix @ local.conj().T, (2, 2))
            self._assert_recovers(rotated, p, 1e-12)


class TestFamilies:
    def test_family_pure_limit(self):
        rho = family_eq15(1.0)
        np.testing.assert_allclose(rho.matrix, np.outer(PSI_PLUS, PSI_PLUS.conj()), atol=1e-14)

    def test_family_boundary(self):
        np.testing.assert_allclose(family_eq15(0.0).spectrum(), [0, 0, 0.5, 0.5], atol=1e-12)

    def test_family_correlation_matrix(self):
        for c3 in (-0.7, 0.2, 0.5):
            dec = bloch_decompose(family_eq15(c3))
            np.testing.assert_allclose(np.diag(dec.T), [1, c3, -c3], atol=1e-12)
            np.testing.assert_allclose(dec.a, 0, atol=1e-12)

    def test_family_out_of_range(self):
        with pytest.raises(ValueError):
            family_eq15(1.2)

    def test_werner(self):
        np.testing.assert_allclose(werner(0).matrix, np.eye(4) / 4, atol=1e-14)
        assert werner(1).spectrum()[-1] == pytest.approx(1.0, abs=1e-12)
        # separability boundary at p = 1/3: max eigenvalue (1 + 3p)/4 = 1/2
        assert werner(1 / 3).spectrum()[-1] == pytest.approx(0.5, abs=1e-12)
        dec = bloch_decompose(werner(0.4))
        np.testing.assert_allclose(np.diag(dec.T), [-0.4, -0.4, -0.4], atol=1e-12)
        with pytest.raises(ValueError):
            werner(1.5)

    def test_classically_correlated(self):
        rho = classically_correlated()
        dec = bloch_decompose(rho)
        np.testing.assert_allclose(np.diag(dec.T), [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(rho.spectrum(), [0, 0, 0.5, 0.5], atol=1e-14)
        from compcorr.entanglement import negativity

        assert negativity(rho, 0) == 0.0


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(rng, (2, 2))
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert loaded.dims == (2, 2)
        np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)

    def test_load_verifies(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dims": [2], "matrix_re": [1.5, 0, 0, -0.5], "matrix_im": [0, 0, 0, 0]}'
        )
        with pytest.raises(ValueError):
            load_state(path)

    def test_bd_params_of(self):
        p = BellDiagonalParams(0.2, -0.1, 0.3)
        got, RA, RB = bd_params_of(bell_diagonal(p))
        assert got.as_array() == pytest.approx(p.as_array(), abs=1e-12)
        np.testing.assert_array_equal(RA, np.eye(3))
        np.testing.assert_array_equal(RB, np.eye(3))
        with pytest.raises(ValueError, match="marginals"):
            bd_params_of(DensityMatrix(np.diag([1, 0, 0, 0]).astype(complex), (2, 2)))
