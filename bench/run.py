"""compcorr benchmark: four workloads, each a closed loop of one client.

Run from the repository root:

    python3 bench/run.py --workload edss-witness --seed 0 --seconds 25 --trace 0

One process sends one public call after another and waits for each reply,
with BLAS pinned to one thread. Inputs come from --seed alone (see
workloads.py); every output is checked, and a call that raises or fails
its check counts as failed.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters of import, input generation and one warm-up call on an input
that is the same for every seed),
calls_per_s and ok_ratio (calls that passed / calls attempted). The
median per-call latency and the highest percentile with ten samples beyond
it are printed with the details.

--trace 1 prints the per-layer metrics from passes over the workload's
first few inputs, alternately untraced and traced; every traced pass must
count identical work. Spans of the first traced pass are written to
bench/out/.

The last stdout line is the result as JSON; the line before it holds the
details (tail percentile and sample count, counters, provenance).
"""

import os

# Before numpy loads: one BLAS thread, so the one client uses one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def _load_compcorr():
    """Import compcorr from this checkout's src/, never from elsewhere."""
    if not (SRC / "compcorr" / "__init__.py").is_file():
        sys.exit(f"error: no compcorr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import compcorr

    if Path(compcorr.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: compcorr was imported from {compcorr.__file__}, not {SRC}")


def _setup_samples(args):
    """Seconds from launching a fresh interpreter until it is ready to send
    its first timed call, SETUP_REPEATS times."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()  # system-wide on Linux, so the child's clock agrees
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_compcorr()
    import harness
    from workloads import WORKLOADS, inputs, warmup_input

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup = None if args.probe_setup or args.trace else _setup_samples(args)
    pool = inputs(workload, args.seed)
    harness.send(workload, warmup_input(workload))
    if args.probe_setup:
        print(time.monotonic())
        return 0

    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload.name}-seed{args.seed}.csv"
        checker, metrics, details = harness.traced(workload, pool, args.seconds, spans)
    else:
        checker, metrics, details = harness.end_to_end(workload, pool, args.seconds, setup)
    details.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   provenance=harness.provenance(ROOT))
    print(json.dumps(details))
    print(json.dumps({
        "correct": checker.failed == 0 and details.get("counters_repeat", True),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
