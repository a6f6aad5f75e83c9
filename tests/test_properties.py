import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from compcorr.correlations import correlation_bits, discord_bd
from compcorr.edss import ancilla_state, edss_useful, run_protocol
from compcorr.entanglement import all_correlations_nonzero, is_separable_bd, negativity
from compcorr.entanglement import negativity_bd, rel_entropy_entanglement_bd
from compcorr.matcore import PPT_TOL
from compcorr.report import report_for_bd
from compcorr.states import _BELL_SIGNS, BellDiagonalParams, bell_diagonal, bell_eigenvalues
from testkit import is_physical, partial_transpose


def physical_triples():
    return (
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        )
        .filter(is_physical)
        .map(lambda t: BellDiagonalParams(*t))
    )


def separable_triples():
    return physical_triples().filter(is_separable_bd)


def _pure_send_step(p, theta, phi):
    """r_perp of the pure ancilla and the 8x8 A|BC and C|AB verdicts after Alice's CNOT."""
    trace = run_protocol(bell_diagonal(p), ancilla_state(theta, phi, 1.0))
    v_a, v_c, _ = trace.stage_verdicts["after_alice"]
    return np.hypot(np.sin(theta) * np.sin(phi), np.cos(theta)), v_a, v_c


@given(physical_triples())
@settings(max_examples=80, deadline=None)
def test_spectrum_is_a_distribution(p):
    lam = np.sort(p.eigenvalues)
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
    assert abs(correlation_bits(p.c3) - correlation_bits(flipped.c3)) < 1e-15


@given(physical_triples())
@settings(max_examples=60, deadline=None)
def test_discord_within_information_bounds(p):
    d = discord_bd(p)
    assert 0.0 <= d <= 1.0 + 1e-9


def _parity_mutual_information(lam, k, l):
    """I(P_k : P_l) in bits of two Bell parities, from their joint
    distribution: Bell state j has the signs _BELL_SIGNS[:, j]."""
    table = {}
    for j, w in enumerate(lam):
        key = (_BELL_SIGNS[k, j], _BELL_SIGNS[l, j])
        table[key] = table.get(key, 0.0) + max(w, 0.0)
    pk = {a: sum(w for (x, _), w in table.items() if x == a) for a in (-1.0, 1.0)}
    pl = {b: sum(w for (_, y), w in table.items() if y == b) for b in (-1.0, 1.0)}
    # divided in turn: the product pk * pl underflows to 0 for subnormal weights
    return sum(w * math.log2(w / pk[a] / pl[b]) for (a, b), w in table.items() if w > 0)


# Bell weights with zeros (faces of the tetrahedron) and repeats, which tie
# |c_k| = |c_l|: equal weights on phi+ and phi- give c1 = c2, for example
bell_weights = st.lists(st.one_of(st.just(0.0), st.just(0.5), st.floats(0, 1)), min_size=4, max_size=4)


@given(bell_weights)
@example([0.5, 0.5, 0.0, 0.0])
@example([1.0, 0.0, 0.0, 0.0])
@example([0.0, 0.25, 5e-324, 0.25])  # a subnormal weight
@settings(max_examples=100, deadline=None)
def test_discord_minus_q1_is_a_parity_mutual_information(w):
    assume(sum(w) > 0)
    p = BellDiagonalParams(*(_BELL_SIGNS @ (np.array(w) / sum(w))))
    c = (p.c1, p.c2, p.c3)
    k = max(range(3), key=lambda i: abs(c[i]))
    for l in set(range(3)) - {k}:  # the identity holds for either other axis
        gap = discord_bd(p) - correlation_bits(c[l])
        assert abs(gap - _parity_mutual_information(p.eigenvalues, k, l)) <= 1e-12


@given(st.floats(-1, 1), st.floats(-1, 1), st.permutations(range(3)))
@example(1.0, -0.5, [0, 1, 2])
@example(0.5, 0.5, [2, 0, 1])
@settings(max_examples=100, deadline=None)
def test_discord_equals_q1_on_the_independence_surface(u, v, axes):
    # c_m = -c_k c_l: the parities P_k and P_l are independent
    ck, cl = (u, v) if abs(u) >= abs(v) else (v, u)
    c = [0.0] * 3
    c[axes[0]], c[axes[1]], c[axes[2]] = ck, cl, -ck * cl
    assert abs(discord_bd(BellDiagonalParams(*c)) - correlation_bits(cl)) <= 1e-14


@given(physical_triples())
@settings(max_examples=40, deadline=None)
def test_partial_transpose_involution_and_negativity_sign(p):
    rho = bell_diagonal(p)
    back = partial_transpose(partial_transpose(rho.matrix, (2, 2), 0), (2, 2), 0)
    assert np.max(np.abs(back - rho.matrix)) < 1e-14
    assert negativity(rho) >= 0.0


def _clean_success(p, theta, phi, r) -> bool:
    trace = run_protocol(bell_diagonal(p), ancilla_state(theta, phi, r))
    return trace.success and trace.send_step_ppt


@given(
    separable_triples(),
    st.floats(0, np.pi),
    st.floats(0, 2 * np.pi),  # covers y components and negative r_x
    st.floats(0, 1),
)
@settings(max_examples=80, deadline=None)
def test_clean_success_needs_negative_product(p, theta, phi, r):
    # necessity over the whole ancilla ball, not only the z axis
    if _clean_success(p, theta, phi, r):
        assert p.c1 * p.c2 * p.c3 < 0


@given(separable_triples(), st.floats(0, 1))
@settings(max_examples=150, deadline=None)
def test_z_axis_window_is_exact(p, r):
    res = edss_useful(p)
    assert 0.0 <= res.r_a <= 1.0 and 0.0 <= res.s_c <= 1.0
    lam = np.array(p.eigenvalues)
    # every partial-transpose term moves with r at a slope of at least
    # min(4 lam_min, 2 - 4 lam_max)/8 >= 2.5e-3 here, so a 1e-9 step in r
    # moves it past PPT_TOL
    if lam.min() >= 0.005 and lam.max() <= 0.495:
        if res.r_a + 1e-9 < r < res.s_c - 1e-9:
            assert _clean_success(p, 0.0, 0.0, r)
        elif r < res.r_a - 1e-9 or r > res.s_c + 1e-9:
            assert not _clean_success(p, 0.0, 0.0, r)
    if res.witness is not None:
        assert res.useful and res.r_a < res.witness[2] <= res.s_c
    assert not _clean_success(p, 0.0, 0.0, 1.0)  # pure ancillas never succeed cleanly


@given(separable_triples())
@settings(max_examples=150, deadline=None)
def test_sign_rule_matches_ratios(p):
    res = edss_useful(p)
    smallest = min(abs(p.c1), abs(p.c2), abs(p.c3))
    if smallest == 0.0:  # on a face the two ratios coincide exactly
        assert not res.useful and res.r_a == res.s_c
    elif smallest > 1e-6:  # further in, the window is wider than rounding
        assert res.useful == (p.c1 * p.c2 * p.c3 < 0) == (res.r_a < res.s_c)


@given(
    st.one_of(separable_triples(), st.floats(-1, 1).map(lambda c3: BellDiagonalParams(0.0, 0.0, c3))),
    st.floats(0, np.pi),
    st.floats(0, 2 * np.pi),
)
@settings(max_examples=80, deadline=None)
def test_pure_ancilla_cuts_go_npt_together(p, theta, phi):
    # with r_perp > 0 both cuts are NPT iff some partner pair of Bell-basis
    # eigenvalues differs; (0, 0, c3) makes both pairs equal
    lam = p.eigenvalues
    gap = max(abs(lam[0] - lam[1]), abs(lam[2] - lam[3]))
    assume(gap == 0.0 or gap > 1e-6)
    r_perp, v_a, v_c = _pure_send_step(p, theta, phi)
    assume(r_perp > 0.3)
    npt = gap > 0.0
    assert (not v_a.is_ppt) == (not v_c.is_ppt) == npt


def _with_tiny_coordinate(t):
    c = list(t[:2])
    c.insert(t[3], t[2])
    return tuple(c)


tiny = st.floats(1e-13, 1e-5).flatmap(lambda x: st.sampled_from([x, -x]))


@given(
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), tiny, st.integers(0, 2))
    .map(_with_tiny_coordinate)
    .filter(is_physical)
    .map(lambda c: BellDiagonalParams(*c))
)
@settings(max_examples=100, deadline=None)
def test_entangled_means_all_complementary_nonzero(p):
    # on the tetrahedron the negativity is at most min |c_k| / 2, so an
    # entangled triple has every |c_k| above PPT_TOL
    rep = report_for_bd(p)
    if rep.negativity > PPT_TOL:
        assert rep.all_complementary_nonzero
    # the report and the Bell-diagonal condition give one answer
    assume(min(abs(abs(x) - PPT_TOL) for x in p.as_array()) > 1e-14)
    assert rep.all_complementary_nonzero == all_correlations_nonzero(p.as_array())


def _face_triples():
    """Physical triples with one coordinate exactly 0."""
    x = st.floats(-1, 1, allow_nan=False)
    return (
        st.tuples(x, x, st.integers(0, 2))
        .map(lambda t: tuple(np.insert([t[0], t[1]], t[2], 0.0).tolist()))
        .filter(is_physical)
        .map(lambda t: BellDiagonalParams(*t))
    )


def _band_triples():
    """Triples whose Bell-basis eigenvalue k is built as 1/2 + delta with
    0 < delta <= 1e-12, the other three sharing the rest; rounding moves the
    float triple's margin by about 1e-16."""
    return (
        st.builds(
            lambda k, delta, w: (_BELL_SIGNS @ np.insert(np.array(w) / sum(w) * (0.5 - delta), k, 0.5 + delta)).tolist(),
            st.integers(0, 3),
            st.floats(0, 1e-12, exclude_min=True),
            st.tuples(*[st.floats(0.01, 1)] * 3),
        )
        .filter(is_physical)
        .map(lambda t: BellDiagonalParams(*t))
    )


@given(st.one_of(physical_triples(), _face_triples(), _band_triples()))
@settings(max_examples=300, deadline=None)
def test_one_margin_decides_separability_negativity_and_e_r(p):
    separable = is_separable_bd(p)
    assert separable == (negativity_bd(p) == 0) == (rel_entropy_entanglement_bd(p) == 0)
    # the exact verdict wherever the exact margin is not within the tolerance
    margin = max(bell_eigenvalues(*map(Fraction, (p.c1, p.c2, p.c3)))) - Fraction(1, 2)
    if margin <= 0:
        assert separable
    if margin > Fraction(2, 10**12):
        assert not separable


@given(physical_triples())
@example(BellDiagonalParams(1.0, 1e-7, -1e-7))  # sum i_k = 1 + 1.5e-14, next to the vertex (1, 0, 0)
@settings(max_examples=300, deadline=None)
def test_mutual_information_witness_is_one_sided(p):
    # correlation_bits(c) <= |c|, as it is convex, 0 at 0 and 1 at 1; so
    # sum i_k > 1 forces |c1| + |c2| + |c3| > 1, which is entanglement
    if sum(correlation_bits(c) for c in p.as_array()) > 1:
        assert not is_separable_bd(p)


def test_mutual_information_witness_misses_werner_0_34():
    # the converse fails: Werner p = 0.34 has |c1| + |c2| + |c3| = 1.02, so
    # it is entangled, but sum i_k is only about 0.255
    p = BellDiagonalParams(-0.34, -0.34, -0.34)
    assert not is_separable_bd(p)
    assert 0.25 < sum(correlation_bits(c) for c in p.as_array()) < 0.26
