"""Closed loop, output checks, statistics and per-layer figures of the benchmark."""

import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import C_CUT, Tracer

TAIL_BEYOND = 10


class Checker:
    """Counts calls that raised or whose output fails the workload's check,
    and prints the first failure to stderr."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def __call__(self, inp, out) -> bool:
        self.attempted += 1
        try:
            if isinstance(out, Exception):
                raise out
            if self.workload.check(inp, out):
                return True
            why = f"output check failed for input {inp!r}: {out!r}"
        except Exception:
            why = traceback.format_exc()
        if not self.failed:
            print(why, file=sys.stderr)
        self.failed += 1
        return False


def send(workload, inp):
    """One public call; an exception is returned as the output, and the
    checker counts it as failed."""
    try:
        return workload.call(inp)
    except Exception as e:
        return e


def closed_loop(workload, pool, seconds, checker):
    """One client sends pool entries one after another, cycling, until it
    has waited `seconds` on compcorr in total. Each output is checked
    between calls, outside the timed intervals, and then dropped.

    Returns the per-call latencies in seconds.
    """
    latencies = []
    busy = 0.0
    k = 0
    while busy < seconds:
        inp = pool[k % len(pool)]
        k += 1
        t0 = time.perf_counter()
        out = send(workload, inp)
        dt = time.perf_counter() - t0
        latencies.append(dt)
        busy += dt
        checker(inp, out)
    return latencies


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples). With n samples this is the
    (n - TAIL_BEYOND)-th smallest, at percentile 100 (n - TAIL_BEYOND) / n;
    with too few samples it is the maximum, at percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def traced_pass(workload, inputs):
    """Run inputs once under a fresh tracer; returns (tracer, outputs, wall)."""
    with Tracer() as tr:
        t0 = time.perf_counter()
        outputs = [tr.span("bench.call", send, workload, inp) for inp in inputs]
        wall = time.perf_counter() - t0
    return tr, outputs, wall


def untraced_pass(workload, inputs):
    t0 = time.perf_counter()
    outputs = [send(workload, inp) for inp in inputs]
    return outputs, time.perf_counter() - t0


def layer_metrics(counts, durations, self_times, outputs, untraced_wall, traced_wall):
    """Per-layer figures of one pass over the workload's trace inputs.

    Counts and seconds are totals over the pass. `edss.eval_us` is the
    untraced pass wall divided by the ancilla evaluations counted in the
    traced pass over the same inputs.
    """

    def ratio(a, b):
        return a / b if b else 0.0

    searches = counts["edss.edss_useful"]
    evals = counts["edss.ancilla_state"]
    edss_outputs = [out for out in outputs if hasattr(out, "useful")]
    holevo_calls = counts["oracle.maximize_holevo"]
    values = {
        "edss.searches": (searches, "count"),
        "edss.ancilla_evals_per_search": (ratio(evals, searches), "count"),
        "edss.eval_us": (ratio(untraced_wall * 1e6, evals), "us"),
        "edss.c_cut_solves_per_eval": (ratio(counts[C_CUT], evals), "ratio"),
        "edss.useful_ratio": (ratio(sum(bool(o.useful) for o in edss_outputs), len(edss_outputs)), "ratio"),
        "edss.self_s": (self_times["edss"], "s"),
        "states.density_matrix_builds": (counts["states.density_matrix"], "count"),
        "states.density_matrix_s": (durations["states.density_matrix"], "s"),
        "states.normal_form_s": (durations["states.normal_form"], "s"),
        "matcore.partial_transpose_calls": (counts["matcore.partial_transpose"], "count"),
        "matcore.partial_transpose_s": (durations["matcore.partial_transpose"], "s"),
        "matcore.eigvalsh_calls": (counts["matcore.eigvalsh"], "count"),
        "matcore.eigvalsh_s": (durations["matcore.eigvalsh"], "s"),
        "correlations.complementary_s": (durations["correlations.complementary_correlations"], "s"),
        "correlations.joint_distribution_calls": (counts["correlations.joint_distribution"], "count"),
        "correlations.holevo_quantity_calls": (counts["correlations.holevo_quantity"], "count"),
        "entanglement.pt_spectrum_calls": (counts["entanglement.pt_spectrum"], "count"),
        "entanglement.self_s": (self_times["entanglement"], "s"),
        "report.self_s": (self_times["report"], "s"),
        "oracle.maximize_holevo_calls": (holevo_calls, "count"),
        "oracle.maximize_holevo_ms": (ratio(durations["oracle.maximize_holevo"] * 1e3, holevo_calls), "ms"),
        "oracle.self_s": (self_times["oracle"], "s"),
        "trace.overhead_ratio": (ratio(traced_wall, untraced_wall), "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def end_to_end(workload, pool, seconds, setup_samples):
    """End-to-end metrics of one closed-loop run; returns
    (checker, metrics, details)."""
    checker = Checker(workload)
    latencies = closed_loop(workload, pool, seconds, checker)
    tail_s, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "calls_per_s": (n / sum(latencies), "1/s"),
        "ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    # Recorded, not gated: on a shared host, quantiles of per-call latency
    # flip between the host's fast and slow phases from run to run, while the
    # call rate averages over them.
    details = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "latency_tail": {"percentile": tail_pct, "samples": n},
        "setup_samples_s": setup_samples,
    }
    return checker, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def traced(workload, pool, seconds, spans_path):
    """Per-layer metrics: untraced and traced passes over the workload's
    trace inputs, alternating for `seconds` and at least twice each, so both
    kinds see the same machine conditions. Every traced pass must count
    exactly the same work; details["counters_repeat"] says whether it did.
    Returns (checker, metrics, details)."""
    inputs = pool[: workload.trace_pass]
    checker = Checker(workload)
    untraced_walls, passes = [], []

    def check(outputs):
        for inp, out in zip(inputs, outputs):
            checker(inp, out)

    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        outputs, wall = untraced_pass(workload, inputs)
        check(outputs)
        untraced_walls.append(wall)
        tr, outputs, wall = traced_pass(workload, inputs)
        check(outputs)
        if not passes:
            tr.write(spans_path)
            first_outputs = outputs
        passes.append((tr.counts(), *tr.totals(), wall))

    counters = passes[0][0]

    def median_of(i):
        keys = set().union(*(p[i] for p in passes))
        return Counter({k: statistics.median(p[i][k] for p in passes) for k in keys})

    metrics = layer_metrics(
        counters,
        median_of(1),
        median_of(2),
        first_outputs,
        statistics.median(untraced_walls),
        statistics.median(p[3] for p in passes),
    )
    details = {
        "trace_inputs": len(inputs),
        "untraced_passes": len(untraced_walls),
        "traced_passes": len(passes),
        "counters_repeat": all(p[0] == counters for p in passes),
        "counters": dict(sorted(counters.items())),
    }
    return checker, metrics, details


def _git_sha(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: Path) -> dict:
    """Facts about the build and machine; recorded, never gated."""
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "git_sha": _git_sha(root),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "src_lines": src_lines,
    }
