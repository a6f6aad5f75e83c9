import numpy as np
import pytest

from compcorr import report, states
from compcorr.matcore import kron
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


def test_rejects_nonvanishing_marginals():
    with pytest.raises(ValueError, match="maximally mixed marginals"):
        report_for_state(DensityMatrix(np.diag([0.5, 0.5, 0, 0]).astype(complex), (2, 2)))


def test_report_work_count(monkeypatch):
    # one report costs one kron (the local unitary of the normal form) and
    # two Bloch decompositions (of the state and of its normal form); the
    # Pauli coefficients come from the product table, not per-entry krons
    rho = _rotated_bd_state(BellDiagonalParams(0.4, 0.1, -0.3), 7)
    counts = {"kron": 0, "bloch_decompose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    wrapped = counted("bloch_decompose", states.bloch_decompose)
    for module in (states, report):
        if hasattr(module, "bloch_decompose"):
            monkeypatch.setattr(module, "bloch_decompose", wrapped)
    report_for_state(rho)
    assert counts["kron"] <= 1
    assert counts["bloch_decompose"] == 2
