"""Smoke test of the names the benchmark calls: every workload in
bench/workloads.py runs its warm-up input once and passes its own check,
so a refactor that breaks one of those names fails here. The benchmark's
own tests also build EDSS results positionally; the same constructions
are made here, so a change to the result's positional fields fails too."""

import sys
from pathlib import Path

import pytest

import compcorr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS, warmup_input  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warmup_passes_its_check(name):
    workload = WORKLOADS[name]
    inp = warmup_input(workload)
    assert workload.check(inp, workload.call(inp))


def test_edss_checks_reject_wrong_results():
    # built as bench/test_bench.py builds them
    missed = compcorr.EdssSearchResult(False, None, float("nan"), False)
    mixed_ancilla = compcorr.EdssSearchResult(True, (0.0, 0.0, 0.0), -1.0, False)
    witness, exhaustive = WORKLOADS["edss-witness"], WORKLOADS["edss-exhaustive"]
    c, e = warmup_input(witness), warmup_input(exhaustive)
    assert witness.check(c, witness.call(c))
    assert not witness.check(c, missed) and not witness.check(c, mixed_ancilla)
    assert exhaustive.check(e, missed) and not exhaustive.check(e, mixed_ancilla)
