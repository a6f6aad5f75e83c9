import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from compcorr.correlations import correlation_bits, discord_bd, q1
from compcorr.edss import _pt_minima, ancilla_state, run_protocol
from compcorr.entanglement import negativity
from compcorr.oracle import check_involution
from compcorr.states import BellDiagonalParams, bd_spectrum, bell_diagonal, is_separable_bd


def physical_triples():
    return (
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        )
        .map(lambda t: BellDiagonalParams(*t))
        .filter(lambda p: p.is_physical())
    )


def separable_triples():
    return physical_triples().filter(is_separable_bd)


def _send_step(p, theta, phi, r):
    """(r_x, r_perp) of the ancilla and the 8x8 A|BC and C|AB verdicts after Alice's CNOT."""
    trace = run_protocol(bell_diagonal(p), ancilla_state(theta, phi, r))
    v_a, v_c, _ = trace.stage_verdicts["after_alice"]
    s = np.sin(theta)
    return r * s * np.cos(phi), r * np.hypot(s * np.sin(phi), np.cos(theta)), v_a, v_c


@given(physical_triples())
@settings(max_examples=80, deadline=None)
def test_spectrum_is_a_distribution(p):
    lam = bd_spectrum(p)
    assert abs(lam.sum() - 1.0) < 1e-12
    assert lam.min() >= -1e-12


@given(st.floats(-1, 1, allow_nan=False))
def test_correlation_bits_bounds_and_evenness(c):
    v = correlation_bits(c)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == correlation_bits(-c)


@given(physical_triples())
@settings(max_examples=60, deadline=None)
def test_q1_even_in_c3(p):
    flipped = BellDiagonalParams(p.c1, -p.c2, -p.c3)
    assert abs(q1(p) - q1(flipped)) < 1e-15


@given(physical_triples())
@settings(max_examples=60, deadline=None)
def test_discord_within_information_bounds(p):
    d = discord_bd(p)
    assert 0.0 <= d <= 1.0 + 1e-9


@given(physical_triples())
@settings(max_examples=40, deadline=None)
def test_partial_transpose_involution_and_negativity_sign(p):
    rho = bell_diagonal(p)
    assert check_involution([rho]).passed
    assert negativity(rho, 0) >= 0.0


@given(
    separable_triples(),
    st.floats(0, np.pi),
    st.floats(0, 2 * np.pi),  # covers y components and negative r_x
    st.floats(0, 1),
)
@settings(max_examples=80, deadline=None)
def test_pt_minima_match_protocol_verdicts(p, theta, phi, r):
    r_x, r_perp, v_a, v_c = _send_step(p, theta, phi, r)
    m_a, m_c = _pt_minima(p, r_x, r_perp)
    assert abs(m_a - v_a.min_eigenvalue) <= 1e-12
    assert abs(m_c - v_c.min_eigenvalue) <= 1e-12


@given(
    st.one_of(separable_triples(), st.floats(-1, 1).map(lambda c3: BellDiagonalParams(0.0, 0.0, c3))),
    st.floats(0, np.pi),
    st.floats(0, 2 * np.pi),
)
@settings(max_examples=80, deadline=None)
def test_pure_ancilla_cuts_go_npt_together(p, theta, phi):
    # with r_perp > 0 both cuts are NPT iff some partner pair of Bell-basis
    # eigenvalues differs; (0, 0, c3) makes both pairs equal
    lam = p.eigenvalues()
    gap = max(abs(lam[0] - lam[1]), abs(lam[2] - lam[3]))
    assume(gap == 0.0 or gap > 1e-6)
    r_x, r_perp, v_a, v_c = _send_step(p, theta, phi, 1.0)
    assume(r_perp > 0.3)
    m_a, m_c = _pt_minima(p, r_x, r_perp)
    npt = gap > 0.0
    assert (m_a < -1e-12) == (m_c < -1e-12) == npt
    assert (not v_a.is_ppt) == (not v_c.is_ppt) == npt
