"""The Pauli-product table routes against their definitional forms.

Each route contracts the state with the table of sigma_i (x) sigma_j once;
the reference here reads or builds every entry with its own kron, matmul
and trace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from compcorr.correlations import holevo_quantity
from compcorr.matcore import I2, PAULIS, bloch_operator, bloch_vector
from compcorr.oracle import _alice_rows, _augmented, _holevo_batch
from compcorr.states import (
    PAULI_PRODUCTS,
    BellDiagonalParams,
    bell_diagonal,
    bloch_decompose,
)
from testkit import is_physical, random_density_matrix

TOL = 1e-14

seeds = st.integers(0, 2**32 - 1)
angles = st.tuples(st.floats(0, np.pi), st.floats(0, 2 * np.pi))


def _state(seed):
    return random_density_matrix(np.random.default_rng(seed), (2, 2))


def _coefficient(m, left, right):
    return np.trace(m @ np.kron(left, right)).real


def _projectors(n):
    ns = sum(c * s for c, s in zip(n, PAULIS))
    return (I2 + ns) / 2, (I2 - ns) / 2


def test_table_holds_the_sixteen_products():
    sigma = (I2,) + PAULIS
    for i in range(4):
        for j in range(4):
            np.testing.assert_array_equal(PAULI_PRODUCTS[i, j], np.kron(sigma[i], sigma[j]))
    assert not PAULI_PRODUCTS.flags.writeable


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_bloch_decompose_matches_kron_traces(seed):
    m = _state(seed).matrix
    a, b, T = bloch_decompose(_state(seed))
    np.testing.assert_allclose(a, [_coefficient(m, s, I2) for s in PAULIS], rtol=0, atol=TOL)
    np.testing.assert_allclose(b, [_coefficient(m, I2, s) for s in PAULIS], rtol=0, atol=TOL)
    np.testing.assert_allclose(T, [[_coefficient(m, sn, sm) for sm in PAULIS] for sn in PAULIS], rtol=0, atol=TOL)


@given(st.tuples(*[st.floats(-1, 1)] * 3).filter(is_physical))
@settings(max_examples=60, deadline=None)
def test_bell_diagonal_matches_kron_sum(c):
    m = np.kron(I2, I2).astype(complex)
    for cn, s in zip(c, PAULIS):
        m = m + cn * np.kron(s, s)
    np.testing.assert_allclose(bell_diagonal(BellDiagonalParams(*c)).matrix, m / 4, rtol=0, atol=TOL)


@given(st.lists(st.tuples(*[st.floats(-1, 1)] * 3), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_bloch_operator_matches_pauli_sum(vs):
    vs = np.array(vs)
    want = [(I2 + sum(c * s for c, s in zip(v, PAULIS))) / 2 for v in vs]
    np.testing.assert_allclose(bloch_operator(vs), want, rtol=0, atol=TOL)
    np.testing.assert_allclose(bloch_operator(vs[0]), want[0], rtol=0, atol=TOL)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_joint_distribution_matches_kron_traces(axis_tables, seed):
    # the same-axis outcome tables against one kron trace per projector pair
    rho = _state(seed)
    seen = axis_tables(rho)
    assert len(seen) == 3
    for table, axis in zip(seen, np.eye(3)):
        pi = _projectors(axis)
        want = [[_coefficient(rho.matrix, pi[i], pi[j]) for j in (0, 1)] for i in (0, 1)]
        np.testing.assert_allclose(table, want, rtol=0, atol=TOL)


@given(seeds, st.lists(angles, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_holevo_batch_matches_per_direction_holevo(seed, directions):
    rho = _state(seed)
    ns = np.array([bloch_vector(*a) for a in directions])
    want = [holevo_quantity(rho, n) for n in ns]
    np.testing.assert_allclose(_holevo_batch(_alice_rows(rho)[None], _augmented(ns))[0], want, rtol=0, atol=TOL)
