"""Entanglement distribution with separable Bell-diagonal states.

Protocol: Alice applies CNOT on qubits A and C (A control), sends C to Bob,
Bob applies CNOT on B and C (B control). Distribution is successful when the
partial transpose over A of the state after Alice's CNOT has a negative
eigenvalue, and the protocol is valid only if the C|AB cut stays PPT at the
send step.

The ancilla is a free protocol choice, and whether one exists has a
closed form with no 8x8 matrix: rotating the ancilla about x commutes with
Alice's CNOT, so only its x component r_x and its transverse length
r_perp = sqrt(r_y^2 + r_z^2) matter. With Bell-basis eigenvalues lambda in
the order (phi+, phi-, psi+, psi-) and p(k) the partner of k
(phi+ <-> phi-, psi+ <-> psi-), the minimum partial-transpose eigenvalue
after Alice's CNOT is, across each cut,

    min_k (a_k - sqrt(a_k^2 r_x^2 + v_k^2 r_perp^2)) / 8, where
    A|BC: a_k = 2 - 4 lambda_k,  v_k = 2 - 4 lambda_p(k),
    C|AB: a_k = 4 lambda_k,      v_k = 4 lambda_p(k).

So pure ancillas never work. A separable input has all a_k >= 0, so for
r_x^2 + r_perp^2 = 1 and r_perp > 0, term k is negative across A|BC iff
lambda_p(k) < lambda_k and across C|AB iff lambda_p(k) > lambda_k: A|BC is
NPT iff some partner pair has lambda_k != lambda_p(k), which is exactly when
C|AB is NPT. With r_perp = 0 both cuts are PPT.

For any ancilla, term k is negative across A|BC iff a_k^2 / v_k^2 < s and
non-negative across C|AB iff a_k^2 / v_k^2 >= s (its own a_k, v_k), where
s = r_perp^2 / (1 - r_x^2) lies in [0, 1]. The z-axis ancilla of radius
sqrt(s) has the same s, so the z axis loses nothing. There the term ratios
a_k / |v_k| are closed forms: the partner pairs are linear in c,
lambda_phi+- = (1 + c3 +- (c1 - c2))/4 and lambda_psi+- = (1 - c3 +- (c1 + c2))/4.
With f(u, w) = (u - w)/(u + w), f(u, 0) = 1, d = |c1 - c2| and e = |c1 + c2|,
the smaller ratio of each pair gives

    r_a = min(f(1 - c3, d), f(1 + c3, e)),
    s_c = min(f(1 + c3, d), f(1 - c3, e)),

both in [0, 1], and a z-axis ancilla of radius r succeeds with a PPT send
step iff r_a < r <= s_c. (f(u, 0) = 1 also covers equal partner
eigenvalues, whose term never goes negative, so c = (0, 0, +-1) needs no
0/0 guard.)

Such an r exists iff c1 c2 c3 < 0. f rises with u and falls with w. Write
r_a = min(r_phi, r_psi) and s_c = min(s_phi, s_psi) in the order above;
r_a < s_c iff one of r_phi, r_psi lies below both of s_phi, s_psi. Then
r_phi < s_phi iff c3 > 0 (and d > 0), and r_phi < s_psi iff d > e iff
c1 c2 < 0; the psi pair is the mirror case, c3 < 0 and c1 c2 > 0.
`edss_useful` therefore decides by the signs of c, which is exact in
floating point, and certifies its witness r = (r_a + s_c)/2 with one
`run_protocol`. Within about 1e-10 of a face the window (r_a, s_c] is below
rounding and the certification can fail; the result is then useful with no
witness. `oracle.edss_useful_numeric` is the numeric reference: a per-point
8x8 grid search over the whole ancilla ball.
"""

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .entanglement import PptVerdict, is_separable_bd, negativity, ppt_verdict, require_separable
from .matcore import PPT_TOL, bloch_operator, bloch_vector, fmt, kron
from .report import report_for_bd
from .states import BellDiagonalParams, DensityMatrix, bd_rank, bell_diagonal, is_physical

STAGES = ("initial", "after_alice", "after_bob")
CUT_FACTORS = (0, 2, 1)  # A|BC, C|AB, B|AC


# Alice's CNOT (A controls C) and Bob's (B controls C) on the A, B, C register,
# A the high bit, permute the basis. Each permutation is its own inverse, so
# conjugating an 8x8 matrix by the CNOT is indexing with its np.ix_ grid:
# U m U^T = m[GRID_AC].
_BASIS = np.arange(8)
PERM_AC = _BASIS ^ ((_BASIS >> 2) & 1)
PERM_BC = _BASIS ^ ((_BASIS >> 1) & 1)
PERM_AC.flags.writeable = PERM_BC.flags.writeable = False
GRID_AC = np.ix_(PERM_AC, PERM_AC)
GRID_BC = np.ix_(PERM_BC, PERM_BC)


def ancilla_state(theta: float, phi: float, radius: float = 1.0) -> DensityMatrix:
    """Qubit state (I + r n . sigma)/2 with Bloch direction (theta, phi)."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"ancilla angles ({theta}, {phi}) must be finite")
    if not 0.0 <= radius <= 1.0:  # also rejects NaN
        raise ValueError(f"Bloch radius {radius} outside [0, 1]")
    return DensityMatrix(bloch_operator(radius * bloch_vector(theta, phi)), (2,))


@dataclass(frozen=True)
class ProtocolTrace:
    """Per-stage record of one protocol run."""

    initial_state: DensityMatrix
    after_alice: DensityMatrix
    after_bob: DensityMatrix
    stage_verdicts: dict[str, tuple[PptVerdict, ...]]
    final_ab_negativity: float
    success: bool

    @property
    def send_step_ppt(self) -> bool:
        # C|AB verdict after Alice's CNOT
        return self.stage_verdicts["after_alice"][1].is_ppt


def run_protocol(rho_ab: DensityMatrix, ancilla: DensityMatrix) -> ProtocolTrace:
    """Run the full protocol and record every stage's PPT verdicts, each with
    its partial-transpose spectrum."""
    if rho_ab.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho_ab.dims}")
    if ancilla.dims != (2,):
        raise ValueError(f"expected a single-qubit ancilla, got dims {ancilla.dims}")
    initial = DensityMatrix(kron(rho_ab.matrix, ancilla.matrix), (2, 2, 2))
    after_alice = initial.permuted(GRID_AC)
    after_bob = after_alice.permuted(GRID_BC)

    verdicts = {
        stage: tuple(ppt_verdict(state, f) for f in CUT_FACTORS)
        for stage, state in zip(STAGES, (initial, after_alice, after_bob))
    }
    success = verdicts["after_alice"][0].min_eigenvalue < -PPT_TOL
    final_ab = after_bob.partial_trace([0, 1])
    return ProtocolTrace(
        initial_state=initial,
        after_alice=after_alice,
        after_bob=after_bob,
        stage_verdicts=verdicts,
        final_ab_negativity=negativity(final_ab, 0),
        success=success,
    )


@dataclass(frozen=True)
class EdssSearchResult:
    """The exact EDSS decision for one input state."""

    useful: bool  # some ancilla succeeds with a PPT send step: c1 c2 c3 < 0
    witness: tuple[float, float, float] | None  # (theta, phi, radius), certified by run_protocol
    r_a: float  # A|BC is NPT after Alice's CNOT iff the z-axis radius exceeds r_a
    s_c: float  # C|AB stays PPT at the send step iff the z-axis radius is at most s_c
    # the run_protocol trace that certified the witness, None without one
    trace: ProtocolTrace | None = field(default=None, compare=False, repr=False)


def _ratio(u: float, w: float) -> float:
    """f(u, w) = (u - w)/(u + w), with f(u, 0) = 1, and 0 where u <= w: a
    triple that validates within PHYSICALITY_TOL may lie that far outside
    the tetrahedron, where u < w."""
    if not w:
        return 1.0
    return (u - w) / (u + w) if u > w else 0.0


def edss_useful(p: BellDiagonalParams) -> EdssSearchResult:
    """Decide whether some ancilla distributes entanglement with a PPT send
    step, and certify a z-axis witness through `run_protocol`.

    The input must be a separable correlation triple. The signs
    are tested rather than the product, which can underflow to 0.
    """
    require_separable(p)
    c1, c2, c3 = p.c1, p.c2, p.c3
    d, e = abs(c1 - c2), abs(c1 + c2)
    r_a = min(_ratio(1 - c3, d), _ratio(1 + c3, e))
    s_c = min(_ratio(1 + c3, d), _ratio(1 - c3, e))
    useful = 0.0 not in (c1, c2, c3) and (c1 < 0) ^ (c2 < 0) ^ (c3 < 0)  # c1 c2 c3 < 0
    witness = trace = None
    if useful:
        r = (r_a + s_c) / 2
        run = run_protocol(bell_diagonal(p), ancilla_state(0.0, 0.0, r))
        if run.success and run.send_step_ppt:
            witness, trace = (0.0, 0.0, r), run
    return EdssSearchResult(useful, witness, r_a, s_c, trace)


@dataclass(frozen=True)
class SweepRow:
    c1: float
    c2: float
    c3: float
    i_x: float
    i_y: float
    i_z: float
    C: float
    D: float
    Q1: float
    I: float
    negativity: float
    bd_rank: int
    edss_useful: bool
    witness_theta: float | None
    witness_phi: float | None
    witness_r: float | None
    r_a: float
    s_c: float
    # not a CSV column: not useful, yet some ancilla succeeds through an NPT send step
    protocol_invalid: bool = field(default=False, compare=False)


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "protocol_invalid")


def sweep(resolution: int) -> list[SweepRow]:
    """Evaluate every physical separable point of a cubic grid on [-1, 1]^3.

    Rows are ordered lexicographically by grid index. The eight correlation
    columns are `report_for_bd` of each grid triple, with no state built;
    the oracle and the tests check them against the measured routes.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axis = np.linspace(-1.0, 1.0, resolution)
    rows = []
    for c in itertools.product(axis.tolist(), repeat=3):
        if not is_physical(c):
            continue
        p = BellDiagonalParams(*c)
        if not is_separable_bd(p):
            continue
        rep = report_for_bd(p)
        res = edss_useful(p)
        wit = res.witness if res.witness is not None else (None, None, None)
        rows.append(
            SweepRow(
                c1=p.c1,
                c2=p.c2,
                c3=p.c3,
                i_x=rep.i_x,
                i_y=rep.i_y,
                i_z=rep.i_z,
                C=rep.classical_c,
                D=rep.discord,
                Q1=rep.q1,
                I=rep.mutual_info,
                negativity=rep.negativity,
                bd_rank=bd_rank(p),
                edss_useful=res.useful,
                witness_theta=wit[0],
                witness_phi=wit[1],
                witness_r=wit[2],
                r_a=res.r_a,
                s_c=res.s_c,
                protocol_invalid=(not res.useful) and res.r_a < 1,
            )
        )
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV ('.' decimals, LF line endings)."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def sweep_summary(rows: list[SweepRow]) -> str:
    useful = sum(r.edss_useful for r in rows)
    invalid = sum(r.protocol_invalid for r in rows)
    not_useful = len(rows) - useful - invalid
    return (
        f"rows {len(rows)}: useful {useful}, not useful {not_useful}, "
        f"protocol-invalid (NPT send only) {invalid}"
    )
