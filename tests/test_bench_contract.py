"""Smoke test of the names the benchmark calls: every workload in
bench/workloads.py runs its warm-up input once and passes its own check,
so a refactor that breaks one of those names fails here."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS, warmup_input  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warmup_passes_its_check(name):
    workload = WORKLOADS[name]
    inp = warmup_input(workload)
    assert workload.check(inp, workload.call(inp))
