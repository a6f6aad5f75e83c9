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
floating point, and certifies its witness r = (r_a + s_c)/2 from the two
send-step cuts that decide it, A|BC and C|AB after Alice's CNOT: one
(2, 8, 8) eigensolve of rows of `run_protocol`'s gathers, bit for bit those
rows of its (9, 8, 8) stack. Within about 1e-10 of a face the window
(r_a, s_c] is below rounding and the certification can fail; the result is
then useful with no witness. `oracle.edss_useful_numeric` is the numeric
reference: one fixed grid over the whole ancilla ball, whose 8x8 send-step
cuts are all solved as one stacked eigensolve.

`run_protocol` reports its stages' PPT verdicts from one stacked eigensolve,
and nothing of the A|B state after both CNOTs, which is the input for every
ancilla: together the CNOTs add a XOR b to the ancilla's bit, so Tr_C
returns each entry of rho_AB between basis states of equal parity a XOR b,
and every nonzero entry of a Bell-diagonal rho_AB is one of those.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .entanglement import PptVerdict, is_separable_bd, reads_ppt, require_separable
from .matcore import bloch_operator, bloch_vector, fmt, pt_index
from .report import report_for_bd
from .states import BellDiagonalParams, DensityMatrix, as_int, bd_rank, bell_diagonal, bell_eigenvalues, on_tetrahedron
from .states import require_qubits

STAGES = ("initial", "after_alice", "after_bob")
CUT_FACTORS = (0, 2, 1)
CUT_LABELS = ("A|BC", "C|AB", "B|AC")  # the cut across each of CUT_FACTORS


# Alice's CNOT (A controls C) and Bob's (B controls C) on the A, B, C register,
# A the high bit, permute the basis. Each permutation is its own inverse, so
# conjugating an 8x8 matrix by the CNOT indexes its rows and columns:
# U m U^T = m[np.ix_(PERM_AC, PERM_AC)]. Row s of _STAGE_ROWS indexes the
# initial state into stage s: no CNOT, Alice's, then Bob's after Alice's.
_BASIS = np.arange(8)
PERM_AC = _BASIS ^ ((_BASIS >> 2) & 1)
PERM_BC = _BASIS ^ ((_BASIS >> 1) & 1)
_STAGE_ROWS = np.array([_BASIS, PERM_AC, PERM_AC[PERM_BC]])
PERM_AC.flags.writeable = PERM_BC.flags.writeable = _STAGE_ROWS.flags.writeable = False


def _protocol_gathers() -> tuple[np.ndarray, np.ndarray]:
    """Two read-only (9, 8, 8) indices into the flattened rho_AB (16 entries)
    and ancilla (4 entries): entry (3 s + k, i, j) of the nine partial
    transposes, stage s by cut CUT_FACTORS[k], is the product of the two
    entries it indexes. The stage rows and the partial-transpose index are
    composed into one kron entry (a, b) of rho_AB (x) ancilla, which is
    rho_AB[a >> 1, b >> 1] * ancilla[a & 1, b & 1]."""
    stage_flat = (_STAGE_ROWS[:, :, None] * 8 + _STAGE_ROWS[:, None, :]).reshape(3, 64)
    a, b = np.divmod(stage_flat[:, pt_index(3, CUT_FACTORS)].reshape(9, 8, 8), 8)
    gathers = ((a >> 1) * 4 + (b >> 1), (a & 1) * 2 + (b & 1))
    for g in gathers:
        g.flags.writeable = False
    return gathers


_RHO_GATHER, _ANCILLA_GATHER = _protocol_gathers()
_SEND_STEP = slice(3, 5)  # the rows of A|BC and C|AB after Alice's CNOT


def _partial_transposes(rho_ab: DensityMatrix, ancilla: DensityMatrix, rows=slice(None)) -> np.ndarray:
    """The rows of the (9, 8, 8) stack of partial transposes: one gather of
    each input and one product. A slice of a gather is a read-only view."""
    return rho_ab.matrix.ravel()[_RHO_GATHER[rows]] * ancilla.matrix.ravel()[_ANCILLA_GATHER[rows]]


def ancilla_state(theta: float, phi: float, radius: float = 1.0) -> DensityMatrix:
    """Qubit state (I + r n . sigma)/2 with Bloch direction (theta, phi), for
    finite angles and r in [0, 1], which are checked before the state is
    built and validated."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"ancilla angles ({theta}, {phi}) must be finite")
    if not 0.0 <= radius <= 1.0:  # also rejects NaN
        raise ValueError(f"Bloch radius {radius} outside [0, 1]")
    return DensityMatrix(bloch_operator(radius * bloch_vector(theta, phi)), (2,))


@dataclass(frozen=True)
class ProtocolTrace:
    """The PPT verdicts of one protocol run, per stage, each with its
    partial-transpose spectrum."""

    stage_verdicts: dict[str, tuple[PptVerdict, ...]]
    success: bool

    @property
    def send_step_ppt(self) -> bool:
        # C|AB verdict after Alice's CNOT
        return self.stage_verdicts["after_alice"][1].is_ppt


def run_protocol(rho_ab: DensityMatrix, ancilla: DensityMatrix) -> ProtocolTrace:
    """Run the full protocol and record every stage's PPT verdicts, each with
    its partial-transpose spectrum.

    The nine partial transposes, three stages by three cuts, are one gather
    of each input through _RHO_GATHER and _ANCILLA_GATHER and one product:
    bit for bit the partial transposes of the stages, which index
    rho_ab (x) ancilla through _STAGE_ROWS, with no kron, stage matrix or
    state built. One eigvalsh call solves the nine as one stack."""
    require_qubits(rho_ab, 2)
    require_qubits(ancilla, 1, "ancilla")
    # no Hermiticity check here: each stage is a basis permutation of the
    # kron of two validated states, and a partial transpose only permutes
    # its entries again
    spectra = np.linalg.eigvalsh(_partial_transposes(rho_ab, ancilla)).tolist()
    v = tuple(map(PptVerdict, map(tuple, spectra), CUT_LABELS * 3))
    return ProtocolTrace(dict(zip(STAGES, (v[:3], v[3:6], v[6:]))), not v[3].is_ppt)  # v[3]: A|BC after Alice


@dataclass(frozen=True)
class EdssSearchResult:
    """The exact EDSS decision for one input state."""

    useful: bool  # some ancilla succeeds with a PPT send step: c1 c2 c3 < 0
    # (theta, phi, radius), certified by its send-step cuts: A|BC NPT, C|AB PPT
    witness: tuple[float, float, float] | None
    r_a: float  # A|BC is NPT after Alice's CNOT iff the z-axis radius exceeds r_a
    s_c: float  # C|AB stays PPT at the send step iff the z-axis radius is at most s_c


def _ratio(u: float, w: float) -> float:
    """f(u, w) = (u - w)/(u + w), with f(u, 0) = 1, and 0 where u <= w: a
    triple that validates within PHYSICALITY_TOL may lie that far outside
    the tetrahedron, where u < w."""
    if not w:
        return 1.0
    return (u - w) / (u + w) if u > w else 0.0


def edss_useful(p: BellDiagonalParams) -> EdssSearchResult:
    """Decide whether some ancilla distributes entanglement with a PPT send
    step, and certify a z-axis witness by `run_protocol`'s rule on the two
    cuts it reads: `success and send_step_ppt`.

    The input must be a separable correlation triple. The signs
    are tested rather than the product, which can underflow to 0.
    """
    require_separable(p)
    c1, c2, c3 = p.c1, p.c2, p.c3
    d, e = abs(c1 - c2), abs(c1 + c2)
    r_a = min(_ratio(1 - c3, d), _ratio(1 + c3, e))
    s_c = min(_ratio(1 + c3, d), _ratio(1 - c3, e))
    useful = 0.0 not in (c1, c2, c3) and (c1 < 0) ^ (c2 < 0) ^ (c3 < 0)  # c1 c2 c3 < 0
    witness = None
    if useful:
        r = (r_a + s_c) / 2
        pts = _partial_transposes(bell_diagonal(p), ancilla_state(0.0, 0.0, r), _SEND_STEP)
        a_min, c_min = np.linalg.eigvalsh(pts)[:, 0].tolist()
        if not reads_ppt(a_min) and reads_ppt(c_min):
            witness = (0.0, 0.0, r)
    return EdssSearchResult(useful, witness, r_a, s_c)


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


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def sweep(resolution: int) -> list[SweepRow]:
    """Evaluate every physical separable point of a cubic grid on [-1, 1]^3.

    Rows are ordered lexicographically by grid index. The eight correlation
    columns are `report_for_bd` of each grid triple, with no state built;
    the oracle and the tests check them against the measured routes.
    """
    if as_int(resolution, "resolution") < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axis = np.linspace(-1.0, 1.0, resolution)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    rows = []
    for c in grid[on_tetrahedron(bell_eigenvalues(*grid.T))].tolist():
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
    invalid = sum(not r.edss_useful and r.r_a < 1 for r in rows)  # some ancilla succeeds, with an NPT send step
    not_useful = len(rows) - useful - invalid
    return (
        f"rows {len(rows)}: useful {useful}, not useful {not_useful}, "
        f"protocol-invalid (NPT send only) {invalid}"
    )
