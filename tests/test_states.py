import json
import math
import re
import reprlib

import numpy as np
import pytest

from compcorr.entanglement import is_separable_bd
from compcorr.matcore import PHYSICALITY_TOL, kron
from compcorr.oracle import check_spectra
from compcorr.states import (
    PAULI_PRODUCTS,
    BellDiagonalParams,
    DensityMatrix,
    _norm,
    bd_block,
    bd_params_of,
    bell_diagonal,
    bloch_decompose,
    classically_correlated,
    family_eq15,
    load_state,
    random_bd_block,
    round_onto_tetrahedron,
    save_state,
    signed_svd,
    werner,
)
from testkit import (
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    REFUSED_DIMS,
    dims_refusal,
    is_physical,
    random_bd_params,
    random_density_matrix,
)


def _rejection_loop(rng, n):
    """n triples of a loop that draws one uniform triple per try and keeps
    it when its closed-form Bell-basis eigenvalues are all at least
    -PHYSICALITY_TOL: the reference for `random_bd_block`."""
    out = []
    while len(out) < n:
        c = rng.uniform(-1, 1, 3)
        c1, c2, c3 = c
        lam = np.array([1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3]) / 4
        if lam.min() >= -PHYSICALITY_TOL:
            out.append(c)
    return out


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

    # sums of entries near the float maximum overflow, which numpy warned of
    @pytest.mark.parametrize(
        "entries, dims, message",
        [
            ({(0, 1): 1.7e308, (1, 0): -1.7e308}, (2,), "not Hermitian"),
            ({(0, 1): 1.7e308, (1, 0): 1.7e308}, (2,), "negative eigenvalue"),
            ({(0, 0): 1.7e308, (1, 1): 1.7e308}, (2,), "trace inf"),
            ({(k, k): (-1) ** (k // 2) * 1.7e308 for k in range(8)}, (2, 2, 2), "trace nan"),
        ],
    )
    def test_rejects_entries_near_the_float_maximum(self, entries, dims, message):
        d = math.prod(dims)
        m = np.eye(d, dtype=complex) / d
        for at, x in entries.items():
            m[at] = x
        with pytest.raises(ValueError, match=message):
            DensityMatrix(m, dims)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 2, 2))

    @pytest.mark.parametrize("dims", REFUSED_DIMS)
    def test_rejects_factor_dims_below_one(self, dims, tmp_path):
        # every dims but (2,) * n for a 2**n x 2**n matrix, from the constructor and from a state file
        message = f"^{re.escape(dims_refusal(dims, (4, 4)))}$"
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.eye(4) / 4, dims)
        if isinstance(dims, tuple) and any(isinstance(d, np.ndarray) for d in dims):
            return  # no state file holds an array
        path = tmp_path / "state.json"
        mixed = (np.eye(4) / 4).ravel().tolist()
        doc = {"dims": list(dims) if isinstance(dims, tuple) else dims, "matrix_re": mixed, "matrix_im": [0.0] * 16}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_state(path)

    @pytest.mark.parametrize("dims", [(2.0, 2), (np.int64(2), 2), (np.float64(2.0), 2.0), [2, 2], np.array([2, 2])])
    def test_accepts_qubit_dims_as_int_2s(self, dims):
        rho = DensityMatrix(np.eye(4) / 4, dims)
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)

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
        np.testing.assert_allclose(np.sort(BellDiagonalParams(0, 0, 0).eigenvalues), [0.25] * 4)
        np.testing.assert_allclose(np.sort(BellDiagonalParams(0, 0, 1).eigenvalues), [0, 0, 0.5, 0.5], atol=1e-15)

    def test_spectrum_matches_numeric(self):
        lam = np.sort(BellDiagonalParams(0.5, 0.25, 0.25).eigenvalues)
        numeric = np.linalg.eigvalsh(bell_diagonal(BellDiagonalParams(0.5, 0.25, 0.25)).matrix)
        np.testing.assert_allclose(lam, numeric, atol=1e-12)

    def test_spectrum_crosscheck_sampled(self):
        rng = np.random.default_rng(11)
        assert check_spectra(random_bd_block(rng, 1000)).passed

    def test_random_bd_params_matches_a_reference_rejection_loop(self):
        # the block draw, and testkit's list over it, give the loop's triples
        loop, block, rows = (np.random.default_rng(0) for _ in range(3))
        want = _rejection_loop(loop, 1000)
        np.testing.assert_array_equal(random_bd_block(block, 1000), want)
        np.testing.assert_array_equal([p.as_array() for p in random_bd_params(rows, 1000)], want)

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
            neg = negativity(bell_diagonal(p))
            assert is_separable_bd(p) == (neg < 1e-12)


class TestBlockDraws:
    """The block draw is bit for bit the rejection loop it stands for."""

    # at seed 3 a first block of 3032 tries holds only 963 physical
    # triples, so a second block is drawn
    @pytest.mark.parametrize("n, seed", [(0, 0), (1, 1), (7, 2), (1000, 0), (1000, 3)])
    def test_bell_diagonal_block(self, n, seed):
        singles, blocks = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _rejection_loop(singles, n)
        got = random_bd_block(blocks, n)
        assert got.shape == (n, 3) and got.tobytes() == np.array(want).reshape(n, 3).tobytes()

    @pytest.mark.parametrize(
        "row",
        [
            (np.nan, 0.0, 0.0),
            (0.0, np.inf, 0.0),
            # their Bell-basis eigenvalues are NaN or infinite, which numpy warned of
            (np.inf, np.inf, 0.0),
            (np.inf, -np.inf, 0.0),
            (1e308, -1e308, 0.0),
            (1.0, 1.0, 1.0),
            (0.0, 0.0, 1.0 + 1e-9),
            (-1.0, -1.0, -1.0 - 1e-11),
        ],
    )
    def test_block_refuses_a_row_as_the_constructor_does(self, row):
        with pytest.raises(ValueError) as want:
            BellDiagonalParams(*row)
        good = random_bd_block(np.random.default_rng(63), 4)
        # the first failing row is named, a later one is not reached
        block = np.concatenate([good[:2], [row], good[2:], [(1.0, 1.0, 1.0)]])
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            bd_block(block)

    def test_a_check_refuses_a_non_finite_sample(self):
        with pytest.raises(ValueError, match=r"^non-finite correlation triple \(inf, inf, 0\.0\)$"):
            check_spectra([[np.inf, np.inf, 0.0]])

    # a list of BellDiagonalParams, the checks' removed input form, is refused too
    @pytest.mark.parametrize("c", [[], [0.1, 0.2, 0.3], np.zeros((2, 4)), [BellDiagonalParams(0, 0, 0)]])
    def test_block_must_have_rows_of_three(self, c):
        with pytest.raises(ValueError, match=r"triples must form an \(n, 3\) array"):
            bd_block(c)

    @pytest.mark.parametrize("n", [2.5, math.nan, True, np.bool_(True), 3.0, "3"])
    def test_block_forms_refuse_a_count_that_is_not_an_integer(self, n):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"^sample count {re.escape(repr(n))} is not an integer$"):
            random_bd_block(rng, n)

    def test_block_forms_take_numpy_integers_and_refuse_negative_counts(self):
        rng = np.random.default_rng(0)
        assert random_bd_block(rng, np.int64(3)).shape == (3, 3)
        with pytest.raises(ValueError, match="sample count -1 must be at least 0"):
            random_bd_block(rng, -1)


class TestBlochDecomposition:
    def test_bell_diagonal_inverse(self):
        p = BellDiagonalParams(0.4, -0.2, 0.1)
        a, b, T = bloch_decompose(bell_diagonal(p))
        np.testing.assert_allclose(a, 0, atol=1e-12)
        np.testing.assert_allclose(b, 0, atol=1e-12)
        np.testing.assert_allclose(T, np.diag([0.4, -0.2, 0.1]), atol=1e-12)

    def test_product_state(self):
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1
        rho = DensityMatrix(kron(zero, np.eye(2) / 2), (2, 2))
        a, b, T = bloch_decompose(rho)
        np.testing.assert_allclose(a, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(b, 0, atol=1e-12)
        np.testing.assert_allclose(T, 0, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_density_matrix(rng, (2, 2))
            a, b, T = bloch_decompose(rho)
            c = np.block([[np.ones((1, 1)), b[None, :]], [a[:, None], T]])
            back = DensityMatrix(np.einsum("ij,ijkl->kl", c, PAULI_PRODUCTS) / 4.0, (2, 2))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)

    def test_bd_recovery_tight(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_bd_params(rng)
            _, _, T = bloch_decompose(bell_diagonal(p))
            np.testing.assert_allclose(np.diag(T), p.as_array(), atol=1e-12)


class TestNormalForm:
    """The local-unitary normal form of a state with maximally mixed
    marginals is the Bell-diagonal state of the signed singular values of T."""

    @staticmethod
    def _assert_recovers(rho, p, atol):
        _, _, T = bloch_decompose(rho)
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

    def test_families_are_their_bell_vector_mixtures(self):
        def proj(v):
            return np.outer(v, v.conj())

        for c3 in np.linspace(-1, 1, 41):
            want = (1 + c3) / 2 * proj(PSI_PLUS) + (1 - c3) / 2 * proj(PHI_PLUS)
            np.testing.assert_allclose(family_eq15(c3).matrix, want, rtol=0, atol=1e-15)
        for p in np.linspace(-1 / 3, 1, 41):
            want = p * proj(PSI_MINUS) + (1 - p) * np.eye(4) / 4
            np.testing.assert_allclose(werner(p).matrix, want, rtol=0, atol=1e-15)
        assert classically_correlated().matrix.tobytes() == np.diag([0.5, 0, 0, 0.5]).astype(complex).tobytes()

    def test_family_boundary(self):
        np.testing.assert_allclose(np.linalg.eigvalsh(family_eq15(0.0).matrix), [0, 0, 0.5, 0.5], atol=1e-12)

    def test_family_correlation_matrix(self):
        for c3 in (-0.7, 0.2, 0.5):
            a, _, T = bloch_decompose(family_eq15(c3))
            np.testing.assert_allclose(np.diag(T), [1, c3, -c3], atol=1e-12)
            np.testing.assert_allclose(a, 0, atol=1e-12)

    def test_family_out_of_range(self):
        with pytest.raises(ValueError, match=r"^unphysical correlation triple \(1\.0, 1\.2, -1\.2\)"):
            family_eq15(1.2)
        with pytest.raises(ValueError, match="^non-finite correlation triple"):
            family_eq15(math.nan)

    def test_werner(self):
        np.testing.assert_allclose(werner(0).matrix, np.eye(4) / 4, atol=1e-14)
        assert np.linalg.eigvalsh(werner(1).matrix)[-1] == pytest.approx(1.0, abs=1e-12)
        # separability boundary at p = 1/3: max eigenvalue (1 + 3p)/4 = 1/2
        assert np.linalg.eigvalsh(werner(1 / 3).matrix)[-1] == pytest.approx(0.5, abs=1e-12)
        _, _, T = bloch_decompose(werner(0.4))
        np.testing.assert_allclose(np.diag(T), [-0.4, -0.4, -0.4], atol=1e-12)
        with pytest.raises(ValueError, match=r"^unphysical correlation triple \(-1\.5, -1\.5, -1\.5\)"):
            werner(1.5)
        with pytest.raises(ValueError, match="^non-finite correlation triple"):
            werner(math.nan)

    def test_werner_takes_the_constructors_band(self):
        # the Bell-basis eigenvalue (1 - p)/4 or (1 + 3p)/4 may reach -PHYSICALITY_TOL
        for p in (1 + 3e-12, -1 / 3 - 1e-12):
            assert np.array_equal(werner(p).matrix, bell_diagonal(BellDiagonalParams(-p, -p, -p)).matrix)
        with pytest.raises(ValueError, match="unphysical"):
            werner(1 + 5e-12)

    def test_classically_correlated(self):
        rho = classically_correlated()
        _, _, T = bloch_decompose(rho)
        np.testing.assert_allclose(np.diag(T), [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix), [0, 0, 0.5, 0.5], atol=1e-14)
        from compcorr.entanglement import negativity

        assert negativity(rho) == 0.0


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

    # json reads true as a bool and "0.25" as a str, which np.array(..., dtype=float)
    # took for 1 and 0.25; an int that no float holds ended in an OverflowError
    @pytest.mark.parametrize("key", ["matrix_re", "matrix_im"])
    @pytest.mark.parametrize("entry", [False, True, "0.25", 10**400, -(10**400), None])
    def test_load_refuses_a_matrix_entry_that_is_not_a_number(self, tmp_path, key, entry):
        doc = {"dims": [2, 2], "matrix_re": (np.eye(4) / 4).ravel().tolist(), "matrix_im": [0.0] * 16}
        doc[key][1] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        message = f"malformed state file: entry {reprlib.repr(entry)} is not a float or an int within float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_state(path)

    def test_load_reads_an_int_entry(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2], "matrix_re": [1, 0, 0, 0], "matrix_im": [0, 0, 0, 0]}))
        assert load_state(path).matrix.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_bd_params_of(self):
        p = BellDiagonalParams(0.2, -0.1, 0.3)
        got, RA, RB = bd_params_of(bell_diagonal(p))
        assert got.as_array() == pytest.approx(p.as_array(), abs=1e-12)
        np.testing.assert_array_equal(RA, np.eye(3))
        np.testing.assert_array_equal(RB, np.eye(3))
        with pytest.raises(ValueError, match="marginals"):
            bd_params_of(DensityMatrix(np.diag([1, 0, 0, 0]).astype(complex), (2, 2)))

    def test_marginal_norm_is_numpys_bit_for_bit(self):
        # 10,000 seeded vectors cut as bloch_decompose cuts a and b out of
        # the real part of a complex (4, 4) array: strided columns and rows
        rng = np.random.default_rng(71)
        scales = 10.0 ** rng.integers(-150, 150, (2500, 1, 1))
        blocks = ((rng.normal(size=(2500, 4, 4)) + 1j * rng.normal(size=(2500, 4, 4))) * scales).real
        for c in blocks:
            for v in (c[1:, 0], c[0, 1:]):
                assert _norm(v).hex() == float(np.linalg.norm(v)).hex()
        for v in (blocks[:, 1:, 0], rng.normal(size=(2500, 3)) * scales[:, 0]):
            for row in v:
                assert _norm(row).hex() == float(np.linalg.norm(row)).hex()
