import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcorr import edss, report, states
from compcorr.correlations import bd_mutual_information, classical_correlation, complementary_correlations
from compcorr.correlations import clamped_discord, correlation_bits, total_mutual_information
from compcorr.entanglement import negativity, negativity_bd, rel_entropy_entanglement_bd
from compcorr.matcore import LOG2, PPT_TOL, kron
from compcorr.oracle import spectrum_crosscheck
from compcorr.report import report_for_bd, report_for_state
from compcorr.states import BellDiagonalParams, DensityMatrix, bell_diagonal


def _rotated_bd_state(p, seed):
    """A Bell-diagonal state conjugated by a random local unitary."""
    rng = np.random.default_rng(seed)
    us = []
    for _ in range(2):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        us.append(u)
    local = kron(*us)
    return DensityMatrix(local @ bell_diagonal(p).matrix @ local.conj().T, (2, 2))


def test_local_invariants_survive_a_local_rotation():
    p = BellDiagonalParams(0.5, -0.3, 0.2)
    want = report_for_bd(p)
    got = report_for_state(_rotated_bd_state(p, 5))
    for field in ("classical_c", "discord", "mutual_info", "negativity", "e_r"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)


def test_triple_within_state_tolerance_is_rounded_onto_the_tetrahedron():
    # psi- eigenvalue -5e-11: inside STATE_TOL, so DensityMatrix accepts the
    # state, but outside the closed forms' PHYSICALITY_TOL
    rho = DensityMatrix(states._pauli_sum(np.diag([1.0, 0.5, 0.25, 0.25 + 2e-10])), (2, 2))
    got, want = report_for_state(rho), report_for_bd(BellDiagonalParams(0.5, 0.25, 0.25))
    for field in ("classical_c", "discord", "e_r"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=0, abs=1e-9)


def test_outcome_table_entry_within_state_tolerance_is_accepted():
    # c = (0, 0, 1 + 2e-10): eigenvalue -5e-11, inside STATE_TOL, so
    # DensityMatrix accepts the state; its z table has entries of -5e-11
    rho = DensityMatrix(states._pauli_sum(np.diag([1.0, 0.0, 0.0, 1 + 2e-10])), (2, 2))
    got, want = report_for_state(rho), report_for_bd(BellDiagonalParams(0, 0, 1))
    for field, value in want.to_dict().items():
        assert getattr(got, field) == pytest.approx(value, rel=0, abs=1e-9), field


def test_rejects_nonvanishing_marginals():
    with pytest.raises(ValueError, match="maximally mixed marginals"):
        report_for_state(DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex), (2, 2)))


def _count_calls(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return wrapper


def _count_everywhere(monkeypatch, fn, counts):
    """Count calls to fn through every compcorr module that holds it."""
    counts[fn.__name__] = 0
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "compcorr"]:
        if getattr(mod, fn.__name__, None) is fn:
            _count_calls(monkeypatch, mod, fn.__name__, counts)


_MEASURED_ROUTES = (complementary_correlations, total_mutual_information, negativity)

# numpy calls on 3x3 frames and 3-entry triples, which cost more than their
# arithmetic: a report makes none of them
_NO_SMALL_ARRAY_CALLS = {"det": 0, "clip": 0, "array_equal": 0}


def _count_small_array_calls(monkeypatch, counts):
    counts.update(_NO_SMALL_ARRAY_CALLS)
    _count_calls(monkeypatch, np.linalg, "det", counts)
    _count_calls(monkeypatch, np, "clip", counts)
    _count_calls(monkeypatch, np, "array_equal", counts)


def test_report_work_count(monkeypatch):
    # one report on an already built state costs no kron, one Bloch
    # decomposition (the triple is the signed SVD of its T, with no rotated
    # state) and no eigensolve: every field is a closed form of T, and the
    # measured routes are not called. The triple is checked once, when its
    # BellDiagonalParams is built, and its Bell-basis eigenvalues are formed
    # once and kept. C and I are evaluated once each, and the discord is
    # formed from those two values.
    rho = _rotated_bd_state(BellDiagonalParams(0.4, 0.1, -0.3), 7)
    counts = {"kron": 0, "eigvalsh": 0}
    _count_calls(monkeypatch, np, "kron", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    _count_small_array_calls(monkeypatch, counts)
    counts["__post_init__"] = 0
    _count_calls(monkeypatch, BellDiagonalParams, "__post_init__", counts)
    for fn in (states.bloch_decompose, states.signed_svd, states.is_physical, states._bell_eigenvalues):
        _count_everywhere(monkeypatch, fn, counts)
    for fn in _MEASURED_ROUTES + (classical_correlation, bd_mutual_information):
        _count_everywhere(monkeypatch, fn, counts)
    report_for_state(rho)
    assert counts == {
        "kron": 0,
        "eigvalsh": 0,
        **_NO_SMALL_ARRAY_CALLS,
        "__post_init__": 1,
        "bloch_decompose": 1,
        "signed_svd": 1,
        "is_physical": 0,
        "_bell_eigenvalues": 1,
        "complementary_correlations": 0,
        "total_mutual_information": 0,
        "negativity": 0,
        "classical_correlation": 1,
        "bd_mutual_information": 1,
    }


def test_triple_report_work_count(monkeypatch):
    # a report on an already built triple builds no state: no kron, no
    # DensityMatrix, no Bloch decomposition, SVD or eigensolve, and the
    # triple is neither checked nor its Bell-basis eigenvalues formed again
    p = BellDiagonalParams(0.3, -0.3, 0.3)
    counts = {"kron": 0, "eigvalsh": 0}
    _count_calls(monkeypatch, np, "kron", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    _count_small_array_calls(monkeypatch, counts)
    built = {"__post_init__": 0}
    _count_calls(monkeypatch, DensityMatrix, "__post_init__", built)
    counts["__post_init__"] = 0
    _count_calls(monkeypatch, BellDiagonalParams, "__post_init__", counts)
    for fn in (states.bloch_decompose, states.signed_svd, states._bell_eigenvalues):
        _count_everywhere(monkeypatch, fn, counts)
    for fn in (classical_correlation, bd_mutual_information):
        _count_everywhere(monkeypatch, fn, counts)
    report_for_bd(p)
    assert built == {"__post_init__": 0}
    assert counts == {
        "kron": 0,
        "eigvalsh": 0,
        **_NO_SMALL_ARRAY_CALLS,
        "__post_init__": 0,
        "bloch_decompose": 0,
        "signed_svd": 0,
        "_bell_eigenvalues": 0,
        "classical_correlation": 1,
        "bd_mutual_information": 1,
    }


def _array_triple(rho):
    """`bd_params_of` as numpy arrays: exact diagonal test, then an SVD whose
    improper factors are read off np.linalg.det."""
    T = states.bloch_decompose(rho).T
    if np.array_equal(T, np.diag(np.diag(T))):
        return states.round_onto_tetrahedron(np.diag(T)), states.IDENTITY_FRAME, states.IDENTITY_FRAME
    U, s, Vt = np.linalg.svd(T)
    if np.linalg.det(U) < 0:
        U[:, 2] *= -1
        s[2] *= -1
    if np.linalg.det(Vt) < 0:
        Vt[2, :] *= -1
        s[2] *= -1
    return states.round_onto_tetrahedron(s), U.T, Vt


def _array_report(p, RA=states.IDENTITY_FRAME, RB=states.IDENTITY_FRAME) -> dict:
    """`report_for_bd` as numpy array formulas: the reference its Python-float
    closed forms must equal bit for bit."""
    c = p.as_array()
    diag = np.einsum("jk,j,jk->k", RA, c, RB)
    i_x, i_y, i_z = (correlation_bits(t) for t in np.clip(diag, -1.0, 1.0))
    classical = correlation_bits(np.max(np.abs(c)))
    lam = np.clip(np.sort(p.eigenvalues), 0.0, None)
    nz = lam[lam > 0.0]
    mutual = 2.0 - float(-np.sum(nz * np.log(nz)) / LOG2)
    return dict(
        i_x=i_x,
        i_y=i_y,
        i_z=i_z,
        classical_c=classical,
        discord=clamped_discord(mutual, classical),
        q1=i_z,
        mutual_info=mutual,
        negativity=negativity_bd(p),
        e_r=rel_entropy_entanglement_bd(p),
        all_complementary_nonzero=bool(np.all(np.abs(diag) > PPT_TOL)),
    )


def _edge_triples():
    """Seeded triples in the interior, on the faces (one Bell eigenvalue 0),
    at c = +-1 on one axis, and with |c_k| = 1/2, where `correlation_bits`
    changes branch."""
    rng = np.random.default_rng(20)
    out = [states.random_bd_params(rng) for _ in range(60)]
    for k in range(4):
        for _ in range(15):
            lam = np.insert(rng.dirichlet(np.ones(3)), k, 0.0)
            out.append(states.round_onto_tetrahedron(states._BELL_SIGNS @ lam))
    for axis in range(3):
        for sign in (1.0, -1.0):
            for t in (0.0, 0.3, -0.7):
                c = [0.0, 0.0, 0.0]
                c[axis], c[(axis + 1) % 3], c[(axis + 2) % 3] = sign, t, -sign * t
                out.append(BellDiagonalParams(*c))
    while len(out) < 200:
        c = rng.uniform(-1, 1, 3)
        c[rng.integers(3)] = rng.choice([0.5, -0.5])
        if states.is_physical(c):
            out.append(BellDiagonalParams(*c))
    return out


def test_reports_equal_the_array_formulas_bit_for_bit():
    for n, p in enumerate(_edge_triples()):
        assert report_for_bd(p).to_dict() == _array_report(p), p
        for rho in (bell_diagonal(p), _rotated_bd_state(p, n)):
            assert report_for_state(rho).to_dict() == _array_report(*_array_triple(rho)), (p, n)


def test_sweep_skips_the_measured_correlations(monkeypatch):
    counts = {}
    for fn in _MEASURED_ROUTES[:2]:
        _count_everywhere(monkeypatch, fn, counts)
    assert edss.sweep(3)
    assert counts == {"complementary_correlations": 0, "total_mutual_information": 0}


def _measured(rho) -> dict:
    """The report's measured counterparts, computed on the state itself."""
    i_x, i_y, i_z = complementary_correlations(rho)
    return {
        "i_x": i_x,
        "i_y": i_y,
        "i_z": i_z,
        "q1": i_z,
        "mutual_info": total_mutual_information(rho),
        "negativity": negativity(rho, 0),
    }


physical_triples = st.tuples(*[st.floats(-1, 1)] * 3).filter(states.is_physical)


@given(physical_triples, st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_report_matches_the_measured_routes(c, seed):
    # the closed forms of T against outcome tables, partial traces and the
    # partial-transpose spectrum of a locally rotated Bell-diagonal state
    rho = _rotated_bd_state(BellDiagonalParams(*c), seed)
    got = report_for_state(rho)
    for field, value in _measured(rho).items():
        assert getattr(got, field) == pytest.approx(value, rel=0, abs=1e-12), field


def test_sweep_rows_match_the_measured_routes():
    for row in edss.sweep(3):
        want = _measured(bell_diagonal(BellDiagonalParams(row.c1, row.c2, row.c3)))
        got = dict(i_x=row.i_x, i_y=row.i_y, i_z=row.i_z, q1=row.Q1, mutual_info=row.I, negativity=row.negativity)
        for field, value in want.items():
            assert got[field] == pytest.approx(value, rel=0, abs=1e-12), field


def test_spectrum_crosscheck_solves_once(monkeypatch):
    # building the state solves it; reading its spectrum does not
    counts = {"eigvalsh": 0}
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    spectrum_crosscheck(BellDiagonalParams(0.4, 0.1, -0.3))
    assert counts["eigvalsh"] == 1
