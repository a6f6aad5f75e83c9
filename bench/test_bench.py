"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compcorr  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def _small(name, seed, n=16):
    return W.WORKLOADS[name].make_inputs(seed, n)


def _same(a, b):
    if isinstance(a, compcorr.DensityMatrix):
        return np.array_equal(a.matrix, b.matrix)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    a, b, other = _small(name, 7), _small(name, 7), _small(name, 8)
    assert all(_same(x, y) for x, y in zip(a, b))
    assert not all(_same(x, y) for x, y in zip(a, other))


def test_witness_inputs_meet_selection():
    for c in _small("edss-witness", 1, 200):
        lam = W.bell_eigenvalues(c)
        assert 0.02 <= lam.min() and lam.max() <= 0.48
        assert c[0] * c[1] * c[2] <= -1e-3


def test_exhaustive_inputs_meet_selection():
    triples = _small("edss-exhaustive", 1, 226)
    zeros = [W.zero_count(c) for c in triples]
    for c, z in zip(triples, zeros):
        lam = W.bell_eigenvalues(c)
        assert 0.02 <= lam.min() and lam.max() <= 0.48
        assert z in (0, 1, 2)
        if z == 0:
            assert c[0] * c[1] * c[2] >= 1e-3
    assert [zeros.count(z) for z in (0, 1, 2)] == [32, 144, 50]  # twice sweep(9)'s 16, 72, 25
    for z in (1, 2):
        axes = {tuple(i for i, x in enumerate(c) if x == 0.0) for c, zz in zip(triples, zeros) if zz == z}
        assert len(axes) == 3


def test_analyze_inputs_cover_tetrahedron_half_rotated():
    pairs = _small("analyze", 1, 200)
    lam_min = [W.bell_eigenvalues(c).min() for c, _ in pairs]
    assert min(lam_min) >= 0.0
    assert sum(W.bell_eigenvalues(c).max() > 0.5 for c, _ in pairs) > 40  # entangled share
    for k, (c, rho) in enumerate(pairs):
        bd = W.bd_matrix(c)
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), np.linalg.eigvalsh(bd), atol=1e-12)
        assert np.array_equal(rho.matrix, bd) == (k % 2 == 0)


def test_verify_inputs_are_consecutive_seeds():
    assert _small("verify", 5, 4) == [5, 6, 7, 8]


def test_analyze_check_accepts_compcorr_and_rejects_a_perturbed_field():
    wl = W.WORKLOADS["analyze"]
    pairs = _small("analyze", 3, 24)
    reports = [wl.call(p) for p in pairs]
    assert all(wl.check(p, r) for p, r in zip(pairs, reports))
    bad = dataclasses.replace(reports[0], discord=reports[0].discord + 1e-6)
    assert not wl.check(pairs[0], bad)


def test_wrong_edss_results_are_counted_failed():
    wl = W.WORKLOADS["edss-witness"]
    c = _small("edss-witness", 2, 1)[0]
    good = wl.call(c)
    missed = compcorr.EdssSearchResult(False, None, float("nan"), False)
    mixed_ancilla = compcorr.EdssSearchResult(True, (0.0, 0.0, 0.0), -1.0, False)
    checker = harness.Checker(wl)
    for out in (good, missed, mixed_ancilla, ValueError("raised")):
        checker(c, out)
    assert (checker.attempted, checker.failed) == (4, 3)

    ex = W.WORKLOADS["edss-exhaustive"]
    e = _small("edss-exhaustive", 2, 1)[0]
    not_useful = compcorr.EdssSearchResult(False, None, 0.01, False)
    checker = harness.Checker(ex)
    assert checker(e, not_useful) and not checker(e, mixed_ancilla)


def _bindings():
    snap = {}
    for m in tracer._compcorr_modules():
        for k, v in vars(m).items():
            snap[(m.__name__, k)] = v
    snap["DensityMatrix.__post_init__"] = compcorr.states.DensityMatrix.__dict__["__post_init__"]
    snap["numpy.linalg.eigvalsh"] = np.linalg.eigvalsh
    return snap


def test_tracer_restores_every_name_it_patched():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            assert compcorr.edss.ancilla_state is not before[("compcorr.edss", "ancilla_state")]
            assert compcorr.edss_useful is not before[("compcorr", "edss_useful")]
            compcorr.report_for_bd(compcorr.BellDiagonalParams(0.1, 0.2, 0.3))
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tr.counts()["report.report_for_state"] == 1


def test_a_function_that_no_longer_exists_counts_zero(monkeypatch):
    monkeypatch.setattr(tracer, "FUNCTIONS", tracer.FUNCTIONS + (("edss", "no_such_function"),))
    tr, outputs, wall = harness.traced_pass(W.WORKLOADS["analyze"], _small("analyze", 4, 2))
    assert tr.counts()["edss.no_such_function"] == 0
    metrics = harness.layer_metrics(tr.counts(), *tr.totals(), outputs, wall, wall)
    assert metrics["edss.ancilla_evals_per_search"]["value"] == 0.0


def test_work_counters_repeat_exactly():
    wl = W.WORKLOADS["edss-witness"]
    inputs = _small("edss-witness", 6, 1)
    first = harness.traced_pass(wl, inputs)[0].counts()
    second = harness.traced_pass(wl, inputs)[0].counts()
    assert first == second
    assert first["edss.edss_useful"] == 1 and first["edss.ancilla_state"] > 0


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [("a.x", 0.0, 10.0, -1), ("b.y", 1.0, 4.0, 0), ("a.z", 2.0, 3.0, 1)]
    durations, self_times = tr.totals()
    assert self_times["a"] == pytest.approx(7.0 + 1.0)
    assert self_times["b"] == pytest.approx(2.0)
    assert durations["b.y"] == pytest.approx(3.0)


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail(list(range(1, 31))) == (20, 100 * 20 / 30, 30)
    assert harness.tail([3, 1, 2]) == (3, 100.0, 3)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    proc = _run(ROOT, "--workload", "analyze", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[kind]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "analyze", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
