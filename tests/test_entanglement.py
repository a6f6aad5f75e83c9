import numpy as np
import pytest

from compcorr.correlations import correlation_bits
from compcorr.entanglement import (
    all_correlations_nonzero,
    negativity,
    ppt_verdict,
    pt_spectrum,
    rel_entropy_entanglement_bd,
)
from compcorr.matcore import kron
from compcorr.states import (
    PHI_PLUS,
    BellDiagonalParams,
    DensityMatrix,
    bd_spectrum,
    bell_diagonal,
    family_eq15,
    is_physical,
    random_bd_params,
    random_density_matrix,
)
from compcorr.correlations import q1


def test_negativity_bell_state():
    rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
    assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-12)


def test_negativity_zero_for_separable_bd():
    rng = np.random.default_rng(30)
    for _ in range(200):
        p = random_bd_params(rng)
        if bd_spectrum(p)[-1] <= 0.5:
            assert negativity(bell_diagonal(p), 0) < 1e-12


def test_negativity_zero_when_any_coefficient_vanishes():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = random_bd_params(rng)
        if not is_physical((p.c1, 0.0, p.c3)):
            continue
        assert negativity(bell_diagonal(BellDiagonalParams(p.c1, 0.0, p.c3)), 0) < 1e-12


def test_negativity_iff_large_eigenvalue():
    rng = np.random.default_rng(32)
    for _ in range(10_000):
        p = random_bd_params(rng)
        neg = negativity(bell_diagonal(p), 0)
        assert (neg > 1e-12) == (bd_spectrum(p)[-1] > 0.5 + 1e-12)


def test_zeroed_coefficient_pt_spectrum_identity():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = random_bd_params(rng)
        if not is_physical((0.0, p.c2, p.c3)):
            continue
        rho = bell_diagonal(BellDiagonalParams(0.0, p.c2, p.c3))
        np.testing.assert_allclose(pt_spectrum(rho, 0), rho.spectrum(), atol=1e-10)


def test_ppt_verdict_product_three_qubit():
    rng = np.random.default_rng(34)
    parts = [random_density_matrix(rng, (2,)).matrix for _ in range(3)]
    rho = DensityMatrix(kron(*parts), (2, 2, 2))
    assert ppt_verdict(rho, 0).is_ppt


def test_ppt_verdict_bell_with_pure_factor():
    vec = np.kron(PHI_PLUS, [1, 0])
    rho = DensityMatrix(np.outer(vec, vec.conj()), (2, 2, 2))
    v = ppt_verdict(rho, 0)
    assert not v.is_ppt
    assert v.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert v.cut == "A|BC"
    # the verdict keeps the spectrum it was read from, and compares by value
    np.testing.assert_array_equal(v.spectrum, pt_spectrum(rho, 0))
    assert v.min_eigenvalue == v.spectrum[0] and v == ppt_verdict(rho, 0)


def test_ppt_verdict_sign_flipped_separable():
    v = ppt_verdict(bell_diagonal(BellDiagonalParams(0.3, -0.3, 0.3)), 0)
    assert v.is_ppt


def test_ppt_verdict_invalid_cut():
    rho = bell_diagonal(BellDiagonalParams(0, 0, 0))
    with pytest.raises(ValueError):
        ppt_verdict(rho, 3)


def test_rel_entropy_examples():
    assert rel_entropy_entanglement_bd(BellDiagonalParams(0.3, -0.3, 0.3)) == 0.0
    assert rel_entropy_entanglement_bd(BellDiagonalParams(1, -1, 1)) == pytest.approx(1.0)


def test_rel_entropy_equals_q1_on_family():
    from compcorr.states import bd_params_of

    for c3 in np.linspace(-0.9, 0.9, 10):
        p, _, _ = bd_params_of(family_eq15(c3))
        assert rel_entropy_entanglement_bd(p) == pytest.approx(correlation_bits(c3), abs=1e-12)
        assert rel_entropy_entanglement_bd(p) == pytest.approx(q1(p), abs=1e-12)


def test_necessary_condition():
    assert not all_correlations_nonzero(BellDiagonalParams(0.5, 0, 0.25).as_array())
    assert negativity(bell_diagonal(BellDiagonalParams(0.5, 0, 0.25)), 0) < 1e-12
    assert all_correlations_nonzero(BellDiagonalParams(1, -1, 1).as_array())
    # necessary but not sufficient: all coefficients nonzero yet separable
    p = BellDiagonalParams(0.3, -0.3, 0.3)
    assert all_correlations_nonzero(p.as_array())
    assert negativity(bell_diagonal(p), 0) < 1e-12


def test_contrapositive_sampled():
    rng = np.random.default_rng(35)
    for _ in range(200):
        p = random_bd_params(rng)
        if not all_correlations_nonzero(p.as_array()):
            assert negativity(bell_diagonal(p), 0) < 1e-12
