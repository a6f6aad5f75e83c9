"""The benchmark's workloads: seeded inputs, the public call each input is
sent to, and the check each output must pass.

Inputs are built here with plain numpy; compcorr sees only the finished
inputs. The checks use either closed forms computed here or an untimed
re-run of the protocol, never the value under test.
"""

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import compcorr

# Every Bell-basis eigenvalue of an EDSS input lies in this interval, so the
# state is separable (max <= 1/2) and of full rank with room to spare.
EIG_MARGIN = (0.02, 0.48)
# |c1 c2 c3| at least this far from 0 keeps the sign of det T unambiguous.
PRODUCT_MARGIN = 1e-3
# The no-witness rows of sweep(9) (AncillaSpec.search()), counted by how
# many of c1, c2, c3 are exactly 0: 16 rows with none (all c1 c2 c3 > 0),
# 72 on one axis plane, 24 on two and 1 (the origin) on all three, 113 in
# all; each ran the whole grid and refinement (5,835 evaluations). The
# exhaustive inputs follow these shares; the origin is one point, so it is
# counted with the rows on two planes.
SWEEP9_NO_WITNESS_ZEROS = {0: 16, 1: 72, 2: 25}
ANALYZE_TOL = 1e-9
WARMUP_SEED = 0
VERIFY_SAMPLES = 1000


def bell_eigenvalues(c) -> np.ndarray:
    """Bell-basis eigenvalues (phi+, phi-, psi+, psi-) of the triple c."""
    c1, c2, c3 = c
    return np.array(
        [1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3]
    ) / 4


def in_eig_margin(c) -> bool:
    lam = bell_eigenvalues(c)
    return bool(lam.min() >= EIG_MARGIN[0] and lam.max() <= EIG_MARGIN[1])


def is_witness_input(c) -> bool:
    return in_eig_margin(c) and c[0] * c[1] * c[2] <= -PRODUCT_MARGIN


def zero_count(c) -> int:
    return sum(x == 0.0 for x in c)


def is_exhaustive_input(c) -> bool:
    zeros = zero_count(c)
    return in_eig_margin(c) and zeros < 3 and (zeros > 0 or c[0] * c[1] * c[2] >= PRODUCT_MARGIN)


def _draw(rng, accept, zero_axes=()) -> tuple[float, float, float]:
    while True:
        c = rng.uniform(-1.0, 1.0, 3)
        c[list(zero_axes)] = 0.0
        c = tuple(float(x) for x in c)
        if accept(c):
            return c


def witness_triples(rng, n):
    return [_draw(rng, is_witness_input) for _ in range(n)]


def exhaustive_zero_counts(n) -> list[int]:
    """Zero coordinates of each of n exhaustive inputs, interleaved so that
    every prefix keeps close to the SWEEP9_NO_WITNESS_ZEROS shares."""
    total = sum(SWEEP9_NO_WITNESS_ZEROS.values())
    made = dict.fromkeys(SWEEP9_NO_WITNESS_ZEROS, 0)
    out = []
    for k in range(1, n + 1):
        zeros = max(made, key=lambda z: k * SWEEP9_NO_WITNESS_ZEROS[z] / total - made[z])
        made[zeros] += 1
        out.append(zeros)
    return out


def exhaustive_triples(rng, n):
    out = []
    for k, zeros in enumerate(exhaustive_zero_counts(n)):
        # Rotate which axes are zeroed, so every plane and line is used.
        axes = [(k + j) % 3 for j in range(zeros)]
        out.append(_draw(rng, lambda c: is_exhaustive_input(c) and zero_count(c) == zeros, axes))
    return out


def tetrahedron_triples(rng, n):
    """Uniform on the physical tetrahedron (all Bell eigenvalues >= 0)."""
    return [_draw(rng, lambda c: bell_eigenvalues(c).min() >= 0.0) for _ in range(n)]


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bd_matrix(c) -> np.ndarray:
    """(1/4)(I + sum_n c_n sigma_n (x) sigma_n) as a 4x4 array."""
    m = np.eye(4, dtype=complex)
    for cn, s in zip(c, _PAULIS):
        m = m + cn * np.kron(s, s)
    return m / 4


def haar_su2(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q[0] * np.eye(2) - 1j * sum(qk * s for qk, s in zip(q[1:], _PAULIS))


def analyze_inputs(rng, n):
    """(triple, state) pairs; odd entries carry random local unitaries."""
    out = []
    for k, c in enumerate(tetrahedron_triples(rng, n)):
        m = bd_matrix(c)
        if k % 2:
            u = np.kron(haar_su2(rng), haar_su2(rng))
            m = u @ m @ u.conj().T
        out.append((c, compcorr.DensityMatrix(m, (2, 2))))
    return out


def _h(probs) -> float:
    """Shannon entropy in bits, 0 log 0 = 0."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def closed_forms(c) -> dict[str, float]:
    """C, D, I, E_r and negativity of the Bell-diagonal state c.

    All five are local-unitary invariants, so they also hold for the
    rotated inputs. The partial transpose of a Bell-diagonal state has
    eigenvalues 1/2 - lambda_i, hence negativity max(0, lambda_max - 1/2).
    """
    lam = bell_eigenvalues(c)
    m = max(abs(x) for x in c)
    classical = 1.0 - _h([(1 + m) / 2, (1 - m) / 2])
    mutual = 2.0 - _h(lam)
    lmax = float(lam.max())
    return {
        "classical_c": classical,
        "discord": mutual - classical,
        "mutual_info": mutual,
        "e_r": 1.0 - _h([lmax, 1 - lmax]) if lmax > 0.5 else 0.0,
        "negativity": max(0.0, lmax - 0.5),
    }


def witness_reverified(c, witness) -> bool:
    """Re-run the protocol at the witness: A|BC NPT and C|AB PPT after Alice."""
    p = compcorr.BellDiagonalParams(*c)
    trace = compcorr.run_protocol(compcorr.bell_diagonal(p), compcorr.ancilla_state(*witness))
    cuts = {v.cut: v for v in trace.stage_verdicts["after_alice"]}
    return (not cuts["A|BC"].is_ppt) and cuts["C|AB"].is_ppt


def check_witness(c, result) -> bool:
    return bool(result.useful) and result.witness is not None and witness_reverified(c, result.witness)


def check_exhaustive(c, result) -> bool:
    if result.useful:
        return result.witness is not None and witness_reverified(c, result.witness)
    return result.witness is None


def check_analyze(inp, report) -> bool:
    c, _ = inp
    return all(
        abs(getattr(report, k) - v) <= ANALYZE_TOL for k, v in closed_forms(c).items()
    )


def check_verify(_seed, checks) -> bool:
    return len(checks) > 0 and all(ch.passed for ch in checks)


def _seeded(gen):
    return lambda seed, n: gen(np.random.default_rng(seed), n)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    make_inputs: Callable[[int, int], list]  # (seed, pool size) -> inputs
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    pool: int  # inputs generated in set-up; the timed loop cycles through them
    trace_pass: int  # leading inputs that make up one traced pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "edss-witness",
            _seeded(witness_triples),
            lambda c: compcorr.edss_useful(compcorr.BellDiagonalParams(*c)),
            check_witness,
            pool=256,
            trace_pass=8,
        ),
        Workload(
            "edss-exhaustive",
            _seeded(exhaustive_triples),
            lambda c: compcorr.edss_useful(compcorr.BellDiagonalParams(*c)),
            check_exhaustive,
            pool=64,
            trace_pass=3,
        ),
        Workload(
            "analyze",
            _seeded(analyze_inputs),
            lambda inp: compcorr.report_for_state(inp[1]),
            check_analyze,
            pool=1024,
            trace_pass=128,
        ),
        Workload(
            "verify",
            lambda seed, n: [seed + k for k in range(n)],
            lambda s: compcorr.oracle.run_verification(seed=s, samples=VERIFY_SAMPLES),
            check_verify,
            pool=64,
            trace_pass=3,
        ),
    )
}


def inputs(workload: Workload, seed: int) -> list:
    """The workload's input pool; the same seed gives the same pool."""
    return workload.make_inputs(seed, workload.pool)


def warmup_input(workload: Workload):
    """The input of the warm-up call in set-up. It is the same for every
    seed, so set-up time does not vary with the seed's inputs."""
    return workload.make_inputs(WARMUP_SEED, 1)[0]
