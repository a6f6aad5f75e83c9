"""Routes that solve each state once, against the routes that solved it again.

`DensityMatrix` keeps the spectrum of its PSD check (and a CNOT stage of
`run_protocol`, a basis permutation, keeps its parent's), `report_for_state`
reads the Bell-diagonal triple from the signed SVD of T with no rotated
state, and `complementary_correlations` contracts the state once with
the stacked axis projectors. Each is compared here with the direct form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcorr import report, states
from compcorr.correlations import complementary_correlations, outcome_mutual_information
from compcorr.edss import CUT_FACTORS, GRID_AC, GRID_BC, STAGES, ancilla_state, run_protocol
from compcorr.matcore import I2, PAULIS, hermitian_spectrum, kron, partial_transpose, von_neumann_entropy
from compcorr.states import (
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    is_physical,
    random_bd_params,
    random_density_matrix,
    signed_svd,
)

seeds = st.integers(0, 2**32 - 1)
physical_triples = st.tuples(*[st.floats(-1, 1)] * 3).filter(is_physical)


def _haar_su2(rng):
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return u


@given(seeds, st.sampled_from([(2,), (2, 2), (2, 2, 2)]))
@settings(max_examples=60, deadline=None)
def test_kept_spectrum_is_the_matrix_spectrum(seed, dims):
    rho = random_density_matrix(np.random.default_rng(seed), dims)
    np.testing.assert_array_equal(rho.spectrum(), hermitian_spectrum(rho.matrix))
    assert rho.entropy() == von_neumann_entropy(rho.matrix)


def test_kept_spectrum_is_read_only():
    rho = bell_diagonal(BellDiagonalParams(0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        rho.spectrum()[0] = 1.0


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_permuted_state_keeps_the_matrix_spectrum(seed):
    rho = random_density_matrix(np.random.default_rng(seed), (2, 2, 2))
    for grid in (GRID_AC, GRID_BC):
        out = rho.permuted(grid)
        np.testing.assert_array_equal(out.matrix, rho.matrix[grid])
        assert out.dims == rho.dims and not out.matrix.flags.writeable
        np.testing.assert_allclose(out.spectrum(), np.linalg.eigvalsh(out.matrix), rtol=0, atol=1e-14)


def test_run_protocol_solves_ten_8x8_spectra(monkeypatch):
    # the PSD check of the initial state and the nine stage partial
    # transposes; the two CNOT stages keep the initial state's spectrum. A
    # stacked call solves as many matrices as its leading dimension.
    calls = []
    original = np.linalg.eigvalsh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return original(m, *args, **kwargs)

    rho, anc = bell_diagonal(BellDiagonalParams(0.3, -0.3, 0.3)), ancilla_state(0.0, 0.0, 0.5)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    run_protocol(rho, anc)
    on_8x8 = [s for s in calls if s[-2:] == (8, 8)]
    assert sum(math.prod(s[:-2]) for s in on_8x8) == 10
    # in at most two calls: the PSD check and the one stack of nine
    assert len(on_8x8) <= 2


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_verdicts_are_the_per_cut_spectra(seed, bell_diagonal_input):
    # bit for bit: the one stacked eigvalsh against one solve per stage and cut
    rng = np.random.default_rng(seed)
    rho = bell_diagonal(random_bd_params(rng)) if bell_diagonal_input else random_density_matrix(rng, (2, 2))
    trace = run_protocol(rho, random_density_matrix(rng, (2,)))
    stages = (trace.initial_state, trace.after_alice, trace.after_bob)
    for stage, state in zip(STAGES, stages):
        for verdict, f, cut in zip(trace.stage_verdicts[stage], CUT_FACTORS, ("A|BC", "C|AB", "B|AC")):
            per_cut = np.linalg.eigvalsh(partial_transpose(state.matrix, (2, 2, 2), f))
            assert np.array(verdict.spectrum).tobytes() == per_cut.tobytes() and verdict.cut == cut


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_entry_rejected(bad):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        DensityMatrix(m, (2, 2))


@given(seeds, st.integers(0, 3), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_signed_svd_factors_are_rotations(seed, rank, flip_left, flip_right):
    rng = np.random.default_rng(seed)
    T = sum((np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(rank)), np.zeros((3, 3)))
    # a state's correlation matrix has singular values at most 1
    T = T / max(1.0, np.linalg.norm(T, 2))
    # an improper factor on either side gives det T < 0 for a full-rank T
    T = np.diag([1.0, 1.0, -1.0 if flip_left else 1.0]) @ T @ np.diag([1.0, -1.0 if flip_right else 1.0, 1.0])
    RA, s, RB = signed_svd(T)
    for R in (RA, RB):
        np.testing.assert_allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-14)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(RA @ T @ RB.T, np.diag(s), rtol=0, atol=1e-14)


@given(physical_triples, seeds)
@settings(max_examples=60, deadline=None)
def test_report_triple_is_the_normal_form_diagonal(c, seed):
    # the normal form of a locally rotated Bell-diagonal state is the input
    # triple up to order and signs, with c1 c2 c3 = det T unchanged
    rng = np.random.default_rng(seed)
    local = kron(_haar_su2(rng), _haar_su2(rng))
    rho = DensityMatrix(local @ bell_diagonal(BellDiagonalParams(*c)).matrix @ local.conj().T, (2, 2))
    seen = []

    def recording(triple):
        seen.append(tuple(triple))
        return original(triple)

    original = states.round_onto_tetrahedron
    states.round_onto_tetrahedron = recording
    try:
        report.report_for_state(rho)
    finally:
        states.round_onto_tetrahedron = original
    (triple,) = seen
    np.testing.assert_allclose(sorted(np.abs(triple)), sorted(np.abs(c)), rtol=0, atol=1e-14)
    assert np.prod(triple) == pytest.approx(np.prod(c), rel=0, abs=1e-14)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_stacked_axis_tables_match_per_axis_route(seed):
    # per axis: the projectors (I +- sigma_k)/2 and one kron trace per outcome pair
    rho = random_density_matrix(np.random.default_rng(seed), (2, 2))
    per_axis = []
    for s in PAULIS:
        pi = ((I2 + s) / 2, (I2 - s) / 2)
        table = [[np.trace(rho.matrix @ kron(pi[i], pi[j])).real for j in (0, 1)] for i in (0, 1)]
        per_axis.append(outcome_mutual_information(np.array(table)))
    np.testing.assert_allclose(complementary_correlations(rho), per_axis, rtol=0, atol=1e-15)


def test_stacked_axis_tables_need_two_qubits():
    with pytest.raises(ValueError, match="two-qubit"):
        complementary_correlations(DensityMatrix(np.eye(8) / 8, (2, 4)))
