import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compcorr import correlations
from compcorr.correlations import (
    clamped_discord,
    classical_correlation,
    complementary_correlations,
    correlation_bits,
    discord_bd,
    holevo_quantity,
    outcome_mutual_information,
    outcome_tables,
    total_mutual_information,
)
from compcorr.matcore import LOG2, STATE_TOL, ZERO_BRANCH, bloch_operator, bloch_vector, kron
from compcorr.oracle import check_z_correlation
from compcorr.states import (
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    classically_correlated,
    random_bd_block,
)
from testkit import PHI_PLUS, is_physical, random_bd_params, random_density_matrix


def binary_entropy(x):
    acc = 0.0
    for t in (x, 1 - x):
        if t > 0:
            acc -= t * np.log2(t)
    return acc


class TestProjectiveMeasurement:
    """A measurement is its unit Bloch vector n, with projectors
    bloch_operator(n) and bloch_operator(-n)."""

    def test_projector_algebra(self):
        n = bloch_vector(0.7, 1.3)
        p0, p1 = bloch_operator(n), bloch_operator(-n)
        np.testing.assert_allclose(p0 @ p0, p0, atol=1e-12)
        np.testing.assert_allclose(p1 @ p1, p1, atol=1e-12)
        np.testing.assert_allclose(p0 @ p1, 0, atol=1e-12)
        np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="not a unit 3-vector"):
            holevo_quantity(bell_diagonal(BellDiagonalParams(0.5, 0.25, 0.25)), [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("n", [[np.nan, 0.0, 0.0], [1.0, 0.0, np.nan], [np.inf, 0.0, 0.0], [1.0, 0.0]])
    def test_rejects_non_finite_or_misshapen_direction(self, n):
        rho = bell_diagonal(BellDiagonalParams(0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match=r"measurement direction \[.*\] is not a unit 3-vector"):
            holevo_quantity(rho, n)


class TestJointDistribution:
    """The 2x2 tables of same-axis outcomes (the `axis_tables` fixture), and
    the table check in `outcome_mutual_information`: sum 1 and no entry
    below 0, both within STATE_TOL."""

    def test_uniform_for_maximally_mixed(self, axis_tables):
        tables = axis_tables(bell_diagonal(BellDiagonalParams(0, 0, 0)))
        np.testing.assert_allclose(tables, 0.25, atol=1e-12)

    def test_bell_state_perfectly_correlated_xx(self, axis_tables):
        rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        xx = axis_tables(rho)[0]
        assert xx[0, 0] + xx[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_classically_correlated_zz(self, axis_tables):
        zz = axis_tables(classically_correlated())[2]
        np.testing.assert_allclose(zz, [[0.5, 0], [0, 0.5]], atol=1e-12)

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError, match="not a probability table"):
            outcome_mutual_information(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            outcome_mutual_information(np.full(4, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        t = np.full((2, 2), 0.25)
        t[0, 1] = bad
        with pytest.raises(ValueError, match=f"outcome table .*{bad}"):
            outcome_mutual_information(t)

    def test_entry_below_zero_within_state_tol_is_rounding(self):
        # the z table of the state of c = (0, 0, 1 + 2e-10), which DensityMatrix accepts
        t = np.array([[0.5 + 5e-11, -5e-11], [-5e-11, 0.5 + 5e-11]])
        assert outcome_mutual_information(t) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_entry_below_zero_beyond_state_tol(self):
        with pytest.raises(ValueError, match="not a probability table"):
            outcome_mutual_information(np.array([[0.5 + 2e-10, -2e-10], [0.0, 0.5]]))


class TestOutcomeMutualInformation:
    def test_uniform_is_zero(self):
        assert outcome_mutual_information(np.full((2, 2), 0.25)) == 0.0

    def test_perfect_correlation_is_one_bit(self):
        t = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert outcome_mutual_information(t) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_parties(self):
        rng = np.random.default_rng(20)
        t = rng.dirichlet(np.ones(4)).reshape(2, 2)
        a = outcome_mutual_information(t)
        b = outcome_mutual_information(t.T)
        assert a == pytest.approx(b, abs=1e-12)

    def test_bell_diagonal_reduction(self):
        # same-axis table has uniform marginals and correlation c_i, so the
        # mutual information reduces to 1 - H2((1 + |c_i|)/2)
        rng = np.random.default_rng(21)
        for _ in range(30):
            p = random_bd_params(rng)
            got = complementary_correlations(bell_diagonal(p))
            for g, c in zip(got, p.as_array()):
                assert g == pytest.approx(1 - binary_entropy((1 + abs(c)) / 2), abs=1e-10)


def _outcome_mutual_information_loop(p):
    """`outcome_mutual_information` of one 2x2 table as a loop over its
    entries, each term added to a Python float in row-major order."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    pa, pb = p.sum(axis=1), p.sum(axis=0)
    acc = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if p[i, j] > ZERO_BRANCH:
                acc += p[i, j] * np.log(p[i, j] / (pa[i] * pb[j]))
    return float(acc / LOG2)


def _seeded_tables():
    rng = np.random.default_rng(24)
    tables = list(rng.dirichlet(np.ones(4), size=300).reshape(-1, 2, 2))
    for _ in range(50):  # the same-axis tables of Ginibre states
        tables += list(outcome_tables(random_density_matrix(rng, (2, 2)).matrix))
    # zeros, entries under ZERO_BRANCH, entries just below 0 within STATE_TOL
    tables += [
        np.array([[0.5, 0.0], [0.0, 0.5]]),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.5, 1e-16], [0.25, 0.25 - 1e-16]]),
        np.array([[0.5 + 5e-11, -5e-11], [-5e-11, 0.5 + 5e-11]]),
        np.full((2, 2), 0.25),
    ]
    return np.array(tables)


class TestOutcomeMutualInformationStack:
    def test_stack_is_each_table_alone_bit_for_bit(self):
        tables = _seeded_tables()
        want = np.array([_outcome_mutual_information_loop(t) for t in tables])
        got = outcome_mutual_information(tables)
        assert got.shape == (len(tables),) and got.tobytes() == want.tobytes()
        assert [outcome_mutual_information(t) for t in tables] == want.tolist()
        assert type(outcome_mutual_information(tables[0])) is float
        # any leading shape
        assert outcome_mutual_information(tables[:300].reshape(3, 100, 2, 2)).tobytes() == want[:300].tobytes()

    @pytest.mark.parametrize("bad", [[[0.5, 0.5], [0.5, 0.5]], [[0.25, np.nan], [0.25, 0.25]], [[0.5, -1e-9], [0.0, 0.5]]])
    def test_stack_names_the_first_bad_table(self, bad):
        tables = np.full((6, 2, 2), 0.25)
        tables[3] = bad
        tables[5] = [[1.0, 1.0], [1.0, 1.0]]  # a later bad table is not reached
        message = f"outcome table {np.array(bad).tolist()} at (3,) is not a probability table within {STATE_TOL:g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            outcome_mutual_information(tables)
        with pytest.raises(ValueError, match=re.escape("at (1, 0)")):
            outcome_mutual_information(tables.reshape(2, 3, 2, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message.replace(' at (3,)', ''))}$"):
            outcome_mutual_information(np.array(bad))

    def test_complementary_correlations_scores_one_stack(self, monkeypatch):
        shapes = []
        original = correlations.outcome_mutual_information
        monkeypatch.setattr(correlations, "outcome_mutual_information", lambda t: shapes.append(t.shape) or original(t))
        got = complementary_correlations(random_density_matrix(np.random.default_rng(25), (2, 2)))
        assert shapes == [(3, 2, 2)] and all(type(v) is float for v in got)


class TestComplementaryCorrelations:
    def test_classically_correlated(self):
        i_x, i_y, i_z = complementary_correlations(classically_correlated())
        assert (i_x, i_y) == pytest.approx((0, 0), abs=1e-12)
        assert i_z == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_saturates(self):
        rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        i_x, i_y, i_z = complementary_correlations(rho)
        assert (i_x, i_y, i_z) == pytest.approx((1, 1, 1), abs=1e-12)
        assert i_x + i_z == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = bell_diagonal(BellDiagonalParams(0, 0, 0))
        assert complementary_correlations(rho) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            p = random_bd_params(rng)
            base = complementary_correlations(bell_diagonal(p))
            # flipping two coefficients keeps the state physical
            flipped = BellDiagonalParams(-p.c1, -p.c2, p.c3)
            got = complementary_correlations(bell_diagonal(flipped))
            assert got == pytest.approx(base, abs=1e-12)

    def test_zero_iff_zero_coefficient(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_bd_params(rng)
            if not is_physical((p.c1, 0.0, p.c3)):
                continue
            vals = complementary_correlations(bell_diagonal(BellDiagonalParams(p.c1, 0.0, p.c3)))
            assert vals[1] == pytest.approx(0.0, abs=1e-12)
            if abs(p.c1) > 1e-6:
                assert vals[0] > 1e-12


class TestHolevo:
    def test_bell_diagonal_along_x(self):
        p = BellDiagonalParams(0.5, 0.25, 0.25)
        got = holevo_quantity(bell_diagonal(p), [1.0, 0.0, 0.0])
        assert got == pytest.approx(correlation_bits(0.5), abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        rho = bell_diagonal(BellDiagonalParams(0, 0, 0))
        assert holevo_quantity(rho, bloch_vector(1.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(24)
        ra = random_density_matrix(rng, (2,))
        rb = random_density_matrix(rng, (2,))
        rho = DensityMatrix(kron(ra.matrix, rb.matrix), (2, 2))
        assert holevo_quantity(rho, [0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-10)


class TestClosedForms:
    def test_classical_correlation_examples(self):
        assert classical_correlation(BellDiagonalParams(0, 0, 0)) == 0.0
        assert classical_correlation(BellDiagonalParams(0, 0, 1)) == pytest.approx(1.0)

    def test_classical_correlation_uses_largest_coefficient(self):
        assert classical_correlation(BellDiagonalParams(0.1, -0.6, 0.2)) == pytest.approx(
            correlation_bits(0.6), abs=1e-15
        )

    def test_q1_examples(self):
        assert correlation_bits(BellDiagonalParams(0.3, 0.1, 0).c3) == 0.0
        assert correlation_bits(BellDiagonalParams(0, 0, 1).c3) == pytest.approx(1.0)
        assert correlation_bits(BellDiagonalParams(0, 0, -1).c3) == pytest.approx(1.0)

    def test_q1_matches_measured_z_correlation(self):
        rng = np.random.default_rng(25)
        assert check_z_correlation(random_bd_block(rng, 100)).passed

    def test_total_mutual_information(self):
        rng = np.random.default_rng(26)
        ra = random_density_matrix(rng, (2,))
        rb = random_density_matrix(rng, (2,))
        product = DensityMatrix(kron(ra.matrix, rb.matrix), (2, 2))
        assert total_mutual_information(product) == pytest.approx(0.0, abs=1e-10)
        bell = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        assert total_mutual_information(bell) == pytest.approx(2.0, abs=1e-12)
        assert total_mutual_information(classically_correlated()) == pytest.approx(1.0, abs=1e-12)

    def test_total_mutual_information_refuses_a_three_qubit_state(self):
        with pytest.raises(ValueError, match=r"^expected a two-qubit state, got dims \(2, 2, 2\)$"):
            total_mutual_information(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))

    def test_bd_mutual_information_matches_measured(self):
        from compcorr.correlations import bd_mutual_information

        rng = np.random.default_rng(27)
        for _ in range(50):
            p = random_bd_params(rng)
            assert bd_mutual_information(p) == pytest.approx(
                total_mutual_information(bell_diagonal(p)), abs=1e-10
            )

    def test_discord_examples(self):
        assert discord_bd(BellDiagonalParams(0, 0, 1)) == pytest.approx(0.0, abs=1e-12)
        assert discord_bd(BellDiagonalParams(1, -1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_discord_zeroed_coefficient_comparison(self):
        d_full = discord_bd(BellDiagonalParams(0.5, 0.25, 0.25))
        d_zeroed = discord_bd(BellDiagonalParams(0.5, 0, 0.25))
        assert d_full > d_zeroed + 1e-3

    def test_discord_nonnegative_sampled(self):
        rng = np.random.default_rng(28)
        for _ in range(500):
            assert discord_bd(random_bd_params(rng)) >= 0.0

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            classical_correlation(BellDiagonalParams(1, 1, 1))

    @given(st.one_of(st.floats(0, 1), st.floats(-150, 0).map(lambda e: 10.0**e)))
    @example(1e-8)  # the direct form returned 0 here
    @example(1.13e-5)  # and was 8.6e-7 off here
    @example(0.0)
    @example(1.0)
    @settings(max_examples=300, deadline=None)
    def test_correlation_bits_is_accurate_down_to_tiny_c(self, c):
        # the series sum_k c^(2k) / (2k (2k - 1)) / ln 2 is exact at tiny c,
        # where the direct form's 1 +- c would need ever more digits
        with mpmath.workdps(60):
            x = mpmath.mpf(c)
            if x < 0.5:
                ref = mpmath.fsum(x ** (2 * k) / (2 * k * (2 * k - 1)) for k in range(1, 100))
            else:
                ref = (1 + x) / 2 * mpmath.log(1 + x) + ((1 - x) / 2 * mpmath.log(1 - x) if x < 1 else 0)
            ref = float(ref / mpmath.log(2))
        # 2e-15 relative where the value is a normal float, a few units of the last place below
        assert correlation_bits(c) == pytest.approx(ref, rel=2e-15, abs=1e-322)
        assert correlation_bits(-c) == correlation_bits(c)

    def test_nan_fails(self):
        with pytest.raises(ValueError, match="outside"):
            correlation_bits(float("nan"))
        with pytest.raises(AssertionError, match="nan"):
            clamped_discord(float("nan"), 0.0)
