import re
from dataclasses import fields

import numpy as np
import pytest

from compcorr.edss import (
    CUT_FACTORS,
    PERM_AC,
    PERM_BC,
    STAGES,
    EdssSearchResult,
    ancilla_state,
    edss_useful,
    run_protocol,
    sweep,
    sweep_csv,
    sweep_summary,
)
from compcorr.entanglement import negativity_bd
from compcorr.matcore import kron
from compcorr.states import BellDiagonalParams, bell_diagonal
from testkit import is_physical, partial_transpose, random_bd_params, random_density_matrix


# the CNOTs built from projectors: |0><0| (x) I (x) I + |1><1| (x) I (x) X
# for A controls C, I (x) |0><0| (x) I + I (x) |1><1| (x) X for B controls C
_P0, _P1, _X = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
_I = np.eye(2)
CNOT_MATRICES = {
    "AC": (kron(kron(_P0, _I), _I) + kron(kron(_P1, _I), _X), PERM_AC, np.ix_(PERM_AC, PERM_AC)),
    "BC": (kron(kron(_I, _P0), _I) + kron(kron(_I, _P1), _X), PERM_BC, np.ix_(PERM_BC, PERM_BC)),
}


def _stages(rho, anc):
    """The protocol's three 8x8 stages, built here: rho (x) ancilla, then
    Alice's CNOT, then Bob's."""
    initial = kron(rho.matrix, anc.matrix)
    after_alice = initial[np.ix_(PERM_AC, PERM_AC)]
    return initial, after_alice, after_alice[np.ix_(PERM_BC, PERM_BC)]


class TestCnot:
    def test_unitary(self):
        # each permutation is a bijection and its own inverse, so its matrix
        # is a real orthogonal involution, and it is the projector-built CNOT
        for u, perm, _ in CNOT_MATRICES.values():
            np.testing.assert_array_equal(np.sort(perm), np.arange(8))
            np.testing.assert_array_equal(perm[perm], np.arange(8))
            np.testing.assert_array_equal(np.eye(8)[perm], u)

    def test_three_qubit_embedding(self):
        # |101> -> |100> under A controls C; |011> -> |010> under B controls C
        assert PERM_AC[0b101] == 0b100 and PERM_AC[0b011] == 0b011
        assert PERM_BC[0b011] == 0b010 and PERM_BC[0b101] == 0b101

    @pytest.mark.parametrize("gate", CNOT_MATRICES)
    def test_conjugation_matches_projector_cnot(self, gate):
        # bitwise on Ginibre states; on the protocol's product states, whose
        # exact zeros the matrix product may turn from -0.0 into +0.0, by value
        u, _, grid = CNOT_MATRICES[gate]
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = random_density_matrix(rng, (2, 2, 2)).matrix
            assert (u @ m @ u.T).tobytes() == m[grid].tobytes()
            ancilla = ancilla_state(*rng.uniform(0, 3, 2), 0.5)
            m = kron(bell_diagonal(random_bd_params(rng)).matrix, ancilla.matrix)
            np.testing.assert_array_equal(u @ m @ u.T, m[grid])
        with pytest.raises(ValueError):
            PERM_AC[0] = 1


class TestAncilla:
    def test_pure_ancilla_rank_one(self):
        anc = ancilla_state(0.7, 1.1, 1.0)
        lam = np.linalg.eigvalsh(anc.matrix)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)
        assert lam[1] == pytest.approx(1.0, abs=1e-12)

    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            ancilla_state(0.0, 0.0, 1.5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ancilla_state(0.0, 0.0, 1.5),
            lambda: ancilla_state(0.0, 0.0, float("nan")),
            lambda: sweep(0),
            lambda: sweep(-3),
            lambda: edss_useful(BellDiagonalParams(0.25, 0.25, float("nan"))),
            lambda: ancilla_state(float("nan"), 0.0),
            lambda: ancilla_state(0.0, float("inf")),
            lambda: ancilla_state(0.0, 0.0, -0.1),
        ],
    )
    def test_spec_rejects_bad_grid_or_ancilla(self, make):
        with pytest.raises(ValueError):
            make()


class TestRunProtocol:
    def test_stages_stay_physical(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            p = random_bd_params(rng)
            if np.linalg.eigvalsh(bell_diagonal(p).matrix)[-1] > 0.5:
                continue
            rho, anc = bell_diagonal(p), ancilla_state(0.9, 0.4, 0.6)
            trace = run_protocol(rho, anc)
            for stage, m in zip(STAGES, _stages(rho, anc)):
                assert abs(np.trace(m).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(m)[0] > -1e-10
                # the verdicts are read off these stages
                for v, f in zip(trace.stage_verdicts[stage], CUT_FACTORS):
                    pt = np.linalg.eigvalsh(partial_transpose(m, (2, 2, 2), f))
                    np.testing.assert_allclose(v.spectrum, pt, rtol=0, atol=1e-14)

    def test_alice_step_is_unitary_conjugation(self):
        p = BellDiagonalParams(0.2, -0.1, 0.3)
        rho, anc = bell_diagonal(p), ancilla_state(0.5, 0.5, 0.8)
        _, after_alice, _ = _stages(rho, anc)
        # solved afresh: the stage keeps the product spectrum of rho (x) ancilla
        np.testing.assert_allclose(
            np.linalg.eigvalsh(after_alice),
            np.sort(np.multiply.outer(np.linalg.eigvalsh(rho.matrix), np.linalg.eigvalsh(anc.matrix)), axis=None),
            atol=1e-10,
        )

    def test_final_ab_state_is_the_bell_diagonal_input(self):
        # the CNOTs add a XOR b to the ancilla, and a Bell-diagonal rho_AB has
        # no entry between states of unequal parity: Tr_C gives rho_AB back,
        # so the final A|B negativity is the input's, entangled inputs included
        rng = np.random.default_rng(43)
        separable = 0
        for p in random_bd_params(rng, 100):
            th, ph, r = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1)
            rho, anc = bell_diagonal(p), ancilla_state(th, ph, r)
            after_bob = _stages(rho, anc)[2]
            tr_c = after_bob.reshape(4, 2, 4, 2).trace(axis1=1, axis2=3)
            assert np.max(np.abs(tr_c - rho.matrix)) <= 1e-15
            separable += negativity_bd(p) == 0.0
        assert 20 <= separable <= 80

    def test_maximally_mixed_never_succeeds(self):
        trace = run_protocol(bell_diagonal(BellDiagonalParams(0, 0, 0)), ancilla_state(0.3, 2.0, 1.0))
        assert not trace.success
        for verdicts in trace.stage_verdicts.values():
            assert all(v.is_ppt for v in verdicts)

    def test_zero_coefficient_send_step_never_clean(self):
        # with a vanishing correlation coefficient the A|BC cut may go NPT
        # after Alice's step, but then the carrier cut C|AB is NPT as well,
        # so the protocol cannot succeed with a clean send step
        for p in (BellDiagonalParams(0, 0.2, 0.4), BellDiagonalParams(0.4, 0.2, 0)):
            for anc in (ancilla_state(0.0, 0.0, 1.0), ancilla_state(1.1, 0.7, 0.5)):
                trace = run_protocol(bell_diagonal(p), anc)
                v_a, v_c, _ = trace.stage_verdicts["after_alice"]
                if not v_a.is_ppt:
                    assert not v_c.is_ppt
                assert not (trace.success and trace.send_step_ppt)

    def test_verdict_cut_labels(self):
        trace = run_protocol(bell_diagonal(BellDiagonalParams(0, 0, 0)), ancilla_state(0, 0))
        cuts = [v.cut for v in trace.stage_verdicts["after_alice"]]
        assert cuts == ["A|BC", "C|AB", "B|AC"]


class TestEdssUseful:
    def test_zero_coefficient_never_useful(self):
        res = edss_useful(BellDiagonalParams(0.5, 0, 0.25))
        assert not res.useful

    def test_classically_correlated_not_useful(self):
        res = edss_useful(BellDiagonalParams(0, 0, 1))
        assert not res.useful

    def test_witness_found(self):
        res = edss_useful(BellDiagonalParams(0.3, -0.3, 0.3))
        assert res.useful
        assert res.witness is not None
        th, ph, r = res.witness
        assert (th, ph) == (0.0, 0.0) and res.r_a < r <= res.s_c
        # re-run the full protocol at the witness: success with a PPT send step
        trace = run_protocol(
            bell_diagonal(BellDiagonalParams(0.3, -0.3, 0.3)), ancilla_state(th, ph, r)
        )
        assert trace.success
        assert trace.send_step_ppt

    def test_result_is_its_four_fields(self):
        # the positional fields that the benchmark builds, and nothing else
        assert [f.name for f in fields(EdssSearchResult)] == ["useful", "witness", "r_a", "s_c"]
        for c in ((0.3, -0.3, 0.3), (0.5, 0, 0.25), (0.3, -0.3, 1e-12)):
            res = edss_useful(BellDiagonalParams(*c))
            assert res == EdssSearchResult(res.useful, res.witness, res.r_a, res.s_c)

    def test_witness_near_a_face(self):
        # a grid of ancillas missed this window, r in (0.24953, 0.25047]
        p = BellDiagonalParams(0.3, -0.3, 0.001)
        res = edss_useful(p)
        assert res.useful and res.witness is not None
        trace = run_protocol(bell_diagonal(p), ancilla_state(*res.witness))
        assert trace.success and trace.send_step_ppt

    def test_uncertified_band_next_to_a_face(self):
        # c1 c2 c3 < 0 decides useful, but the window is below rounding
        res = edss_useful(BellDiagonalParams(0.3, -0.3, 1e-12))
        assert res.useful and res.witness is None
        assert res.r_a < res.s_c

    def test_pure_ancillas_alone_never_work(self):
        # with a pure ancilla the A|BC and C|AB cuts go NPT together, so
        # success always breaks the send-step PPT condition
        for p in (BellDiagonalParams(0.3, -0.3, 0.3), BellDiagonalParams(0.25, 0.25, -0.25)):
            rho = bell_diagonal(p)
            npt_send = 0
            for th in np.linspace(0.0, np.pi, 6):
                for ph in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
                    trace = run_protocol(rho, ancilla_state(th, ph, 1.0))
                    assert not (trace.success and trace.send_step_ppt)
                    npt_send += trace.success
            assert npt_send > 0

    def test_entangled_input_refused(self):
        with pytest.raises(ValueError, match="entangled"):
            edss_useful(BellDiagonalParams(1, -1, 1))

    def test_unphysical_input_refused(self):
        with pytest.raises(ValueError, match="unphysical"):
            edss_useful(BellDiagonalParams(1, 1, 1))


class TestSweep:
    def test_resolution_two_corners_only(self):
        rows = sweep(2)
        # corners of [-1,1]^3: only the four pure Bell points are physical,
        # and none of them is separable
        assert rows == []

    def test_resolution_three(self):
        rows = sweep(3)
        assert rows  # separable points exist on the axis-aligned sub-grid
        for r in rows:
            assert is_physical((r.c1, r.c2, r.c3))
            assert np.linalg.eigvalsh(bell_diagonal(BellDiagonalParams(r.c1, r.c2, r.c3)).matrix)[-1] <= 0.5 + 1e-12
        # deterministic lexicographic order
        keys = [(r.c1, r.c2, r.c3) for r in rows]
        assert keys == sorted(keys)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            sweep(1)

    # a float or a str stopped sweep with a bare TypeError, and True read as 1
    @pytest.mark.parametrize("resolution", [2.5, "9", None, True, 9.0])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match=f"^resolution {re.escape(repr(resolution))} is not an integer$"):
            sweep(resolution)

    def test_csv_deterministic(self):
        a = sweep_csv(sweep(3))
        b = sweep_csv(sweep(3))
        assert a == b
        header = a.splitlines()[0]
        assert header == (
            "c1,c2,c3,i_x,i_y,i_z,C,D,Q1,I,negativity,bd_rank,edss_useful,"
            "witness_theta,witness_phi,witness_r,r_a,s_c"
        )
        assert "\r" not in a

    def test_summary_counts(self):
        rows = sweep(3)
        text = sweep_summary(rows)
        assert f"rows {len(rows)}" in text
        assert sweep_summary(sweep(9)) == "rows 129: useful 16, not useful 9, protocol-invalid (NPT send only) 104"
        assert sweep_summary(sweep(17)) == "rows 833: useful 224, not useful 17, protocol-invalid (NPT send only) 592"
