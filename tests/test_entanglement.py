from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcorr.correlations import correlation_bits
from compcorr.entanglement import (
    PptVerdict,
    all_correlations_nonzero,
    negativity,
    rel_entropy_entanglement_bd,
)
from compcorr.matcore import PPT_TOL, kron, pt_spectra
from compcorr.states import (
    _BELL_SIGNS,
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    bell_eigenvalues,
    family_eq15,
)
from testkit import PHI_PLUS, is_physical, random_bd_params, random_density_matrix


def test_negativity_bell_state():
    rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
    assert negativity(rho) == pytest.approx(0.5, abs=1e-12)


def test_negativity_zero_for_separable_bd():
    rng = np.random.default_rng(30)
    for _ in range(200):
        p = random_bd_params(rng)
        if max(p.eigenvalues) <= 0.5:
            assert negativity(bell_diagonal(p)) < 1e-12


def test_negativity_zero_when_any_coefficient_vanishes():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = random_bd_params(rng)
        if not is_physical((p.c1, 0.0, p.c3)):
            continue
        assert negativity(bell_diagonal(BellDiagonalParams(p.c1, 0.0, p.c3))) < 1e-12


def test_negativity_iff_large_eigenvalue():
    for p in random_bd_params(np.random.default_rng(32), 10_000):
        neg = negativity(bell_diagonal(p))
        assert (neg > 1e-12) == (max(p.eigenvalues) > 0.5 + 1e-12)


def test_zeroed_coefficient_pt_spectrum_identity():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = random_bd_params(rng)
        if not is_physical((0.0, p.c2, p.c3)):
            continue
        rho = bell_diagonal(BellDiagonalParams(0.0, p.c2, p.c3))
        lam = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(pt_spectra(rho.matrix[None], (0,))[0, 0], lam, atol=1e-10)


def test_ppt_verdict_product_three_qubit():
    rng = np.random.default_rng(34)
    a, b, c = (random_density_matrix(rng, (2,)).matrix for _ in range(3))
    rho = DensityMatrix(kron(kron(a, b), c), (2, 2, 2))
    assert pt_spectra(rho.matrix[None], (0,))[0, 0, 0] >= -PPT_TOL
    assert negativity(rho) < PPT_TOL


def test_ppt_verdict_bell_with_pure_factor():
    vec = np.kron(PHI_PLUS, [1, 0])
    rho = DensityMatrix(np.outer(vec, vec.conj()), (2, 2, 2))
    lam = pt_spectra(rho.matrix[None], (0,))[0, 0]
    assert lam[0] == pytest.approx(-0.5, abs=1e-12)
    assert negativity(rho) == pytest.approx(0.5, abs=1e-12)
    # a verdict keeps the spectrum it was read from, and compares by value
    v = PptVerdict(tuple(lam.tolist()), "A|BC")
    assert not v.is_ppt
    assert v.min_eigenvalue == v.spectrum[0] and v == PptVerdict(tuple(lam.tolist()), "A|BC")


def test_ppt_verdict_sign_flipped_separable():
    assert negativity(bell_diagonal(BellDiagonalParams(0.3, -0.3, 0.3))) == 0.0


def test_rel_entropy_examples():
    assert rel_entropy_entanglement_bd(BellDiagonalParams(0.3, -0.3, 0.3)) == 0.0
    assert rel_entropy_entanglement_bd(BellDiagonalParams(1, -1, 1)) == pytest.approx(1.0)


def test_rel_entropy_equals_q1_on_family():
    from compcorr.states import bd_params_of

    for c3 in np.linspace(-0.9, 0.9, 10):
        p, _, _ = bd_params_of(family_eq15(c3))
        assert rel_entropy_entanglement_bd(p) == pytest.approx(correlation_bits(c3), abs=1e-12)
        assert rel_entropy_entanglement_bd(p) == pytest.approx(correlation_bits(p.c3), abs=1e-12)


def test_necessary_condition():
    assert not all_correlations_nonzero(BellDiagonalParams(0.5, 0, 0.25).as_array())
    assert negativity(bell_diagonal(BellDiagonalParams(0.5, 0, 0.25))) < 1e-12
    assert all_correlations_nonzero(BellDiagonalParams(1, -1, 1).as_array())
    # necessary but not sufficient: all coefficients nonzero yet separable
    p = BellDiagonalParams(0.3, -0.3, 0.3)
    assert all_correlations_nonzero(p.as_array())
    assert negativity(bell_diagonal(p)) < 1e-12


def test_contrapositive_sampled():
    rng = np.random.default_rng(35)
    for _ in range(200):
        p = random_bd_params(rng)
        if not all_correlations_nonzero(p.as_array()):
            assert negativity(bell_diagonal(p)) < 1e-12


def _triple_with_eigenvalue(k, lam_k, weights):
    """The float triple whose Bell-basis eigenvalue k is lam_k, the other
    three sharing 1 - lam_k in proportion to weights."""
    w = np.asarray(weights, dtype=float)
    return (_BELL_SIGNS @ np.insert(w / w.sum() * (1 - lam_k), k, lam_k)).tolist()


def _exact_margin(c) -> Fraction:
    """lambda_max - 1/2 of the triple, in exact rational arithmetic."""
    return max(bell_eigenvalues(*map(Fraction, c))) - Fraction(1, 2)


def test_rel_entropy_matches_an_exact_reference():
    # 1 - H2(lambda) at 60 digits, lambda the exact Bell eigenvalue of the
    # float triple; margins lambda_max - 1/2 log-uniform in [1e-6, 0.5]. The
    # route through 1 - H2 in floats cancels here (relative error up to 9e-5).
    rng = np.random.default_rng(36)
    worst, n = 0.0, 0
    with mpmath.workdps(60):
        while n < 2000:
            c = _triple_with_eigenvalue(rng.integers(4), 0.5 + 10 ** rng.uniform(-6, np.log10(0.5)), rng.random(3))
            margin = _exact_margin(c)
            if not (is_physical(c) and Fraction(1, 10**6) <= margin <= Fraction(1, 2)):
                continue
            n += 1
            lam = mpmath.mpf(margin.numerator) / margin.denominator + mpmath.mpf(0.5)
            ref = 1 + lam * mpmath.log(lam, 2) + (1 - lam) * mpmath.log(1 - lam, 2)
            worst = max(worst, float(abs(rel_entropy_entanglement_bd(BellDiagonalParams(*c)) - ref) / ref))
    assert worst <= 1e-9


def _fraction_triples():
    """Rational triples of the tetrahedron (every Bell-basis eigenvalue >= 0,
    exactly): generic ones, ones on a face c_k = 0, and ones with
    |c1| + |c2| + |c3| within 1e-12 of 1."""
    q = st.fractions(-1, 1, max_denominator=10**9)
    generic = st.tuples(q, q, q)
    face = st.tuples(q, q, st.integers(0, 2)).map(lambda t: tuple(np.insert([t[0], t[1]], t[2], 0).tolist()))
    near = st.builds(
        lambda a, b, delta, signs: tuple(s * x for s, x in zip(signs, (a, b, 1 + delta - a - b))),
        st.fractions(0, 1, max_denominator=10**9),
        st.fractions(0, 1, max_denominator=10**9),
        st.integers(-10**4, 10**4).map(lambda k: Fraction(k, 10**16)),
        st.tuples(*[st.sampled_from((-1, 1))] * 3),
    ).filter(lambda c: sum(map(abs, c)) - 1 <= Fraction(1, 10**12))
    return st.one_of(generic, face, near).map(lambda c: tuple(map(Fraction, c))).filter(
        lambda c: min(bell_eigenvalues(*c)) >= 0
    )


@given(_fraction_triples())
@settings(max_examples=200, deadline=None)
def test_l1_norm_of_the_triple_decides_entanglement_exactly(c):
    # |c1| + |c2| + |c3| > 1 <=> lambda_max > 1/2, in exact arithmetic
    assert (sum(map(abs, c)) > 1) == (max(bell_eigenvalues(*c)) > Fraction(1, 2))
