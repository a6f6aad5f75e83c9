"""Entanglement distribution with separable Bell-diagonal states.

Protocol: Alice applies CNOT on qubits A and C (A control), sends C to Bob,
Bob applies CNOT on B and C (B control). Distribution is successful when the
partial transpose over A of the state after Alice's CNOT has a negative
eigenvalue, and the protocol is valid only if the C|AB cut stays PPT at the
send step.

The ancilla is a free protocol choice. `edss_useful` scores a grid of Bloch
angles and radii in closed form, with no 8x8 matrix: rotating the ancilla
about x commutes with Alice's CNOT, so only its x component r_x and its
transverse length r_perp = sqrt(r_y^2 + r_z^2) matter. With Bell-basis
eigenvalues lambda in the order (phi+, phi-, psi+, psi-) and p(k) the
partner of k (phi+ <-> phi-, psi+ <-> psi-), the minimum partial-transpose
eigenvalue after Alice's CNOT is, across each cut,

    min_k (a_k - sqrt(a_k^2 r_x^2 + v_k^2 r_perp^2)) / 8, where
    A|BC: a_k = 2 - 4 lambda_k,  v_k = 2 - 4 lambda_p(k),
    C|AB: a_k = 4 lambda_k,      v_k = 4 lambda_p(k).

So pure ancillas never work. A separable input has all a_k >= 0, so for
r_x^2 + r_perp^2 = 1 and r_perp > 0, term k is negative across A|BC iff
lambda_p(k) < lambda_k and across C|AB iff lambda_p(k) > lambda_k: A|BC is
NPT iff some partner pair has lambda_k != lambda_p(k), which is exactly when
C|AB is NPT. With r_perp = 0 both cuts are PPT. The default radii therefore
reach into mixed ancillas. `run_protocol` keeps the 8x8 route for stage
traces; `oracle.edss_useful_numeric` is the numeric reference for the search.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .correlations import complementary_correlations, classical_correlation, discord_bd, q1, total_mutual_information
from .entanglement import PptVerdict, negativity, ppt_verdict
from .matcore import I2, PAULIS, PPT_TOL, bloch_vector, fmt, kron
from .states import (
    BellDiagonalParams,
    DensityMatrix,
    bd_rank,
    bell_diagonal,
    is_separable_bd,
)

STAGES = ("initial", "after_alice", "after_bob")
CUT_FACTORS = (0, 2, 1)  # A|BC, C|AB, B|AC


def cnot(n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT on the named factors of an n-qubit register, identity elsewhere."""
    if control == target:
        raise ValueError("control and target must differ")
    for idx in (control, target):
        if idx < 0 or idx >= n_qubits:
            raise ValueError(f"qubit index {idx} out of range for {n_qubits} qubits")
    dim = 2**n_qubits
    u = np.zeros((dim, dim))
    for b in range(dim):
        if (b >> (n_qubits - 1 - control)) & 1:
            b2 = b ^ (1 << (n_qubits - 1 - target))
        else:
            b2 = b
        u[b2, b] = 1.0
    return u


# Alice's CNOT (A controls C) and Bob's (B controls C) on the A, B, C register.
U_AC = cnot(3, 0, 2)
U_BC = cnot(3, 1, 2)
U_AC.flags.writeable = U_BC.flags.writeable = False


def _check_radius(radius: float) -> None:
    if not 0.0 <= radius <= 1.0:  # also rejects NaN
        raise ValueError(f"Bloch radius {radius} outside [0, 1]")


def ancilla_state(theta: float, phi: float, radius: float = 1.0) -> DensityMatrix:
    """Qubit state (I + r n . sigma)/2 with Bloch direction (theta, phi)."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"ancilla angles ({theta}, {phi}) must be finite")
    _check_radius(radius)
    n = bloch_vector(theta, phi)
    m = (I2 + radius * sum(c * s for c, s in zip(n, PAULIS))) / 2
    return DensityMatrix(m, (2,))


DEFAULT_RADII = (1.0, 0.8, 0.6, 0.4, 0.2)


@dataclass(frozen=True)
class AncillaSpec:
    """The ancilla search grid: polar and azimuthal Bloch angles and radii."""

    n_polar: int = 24
    n_azimuth: int = 48
    radii: tuple[float, ...] = DEFAULT_RADII
    refine: bool = True

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(self.radii))
        if self.n_polar < 2 or self.n_azimuth < 1 or not self.radii:
            raise ValueError(
                "ancilla grid needs at least 2 polar points, 1 azimuthal point and 1 radius, "
                f"got {self.n_polar}, {self.n_azimuth} and {len(self.radii)}"
            )
        for r in self.radii:
            _check_radius(r)


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
    after_alice = DensityMatrix(U_AC @ initial.matrix @ U_AC.T, (2, 2, 2))
    after_bob = DensityMatrix(U_BC @ after_alice.matrix @ U_BC.T, (2, 2, 2))

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
    """Outcome of the ancilla search for one input state."""

    useful: bool
    witness: tuple[float, float, float] | None  # (theta, phi, radius)
    min_pt_eigenvalue: float  # best over ancillas with a PPT send step
    npt_send_success_seen: bool  # some ancilla succeeded only via an NPT send step


def require_separable(p: BellDiagonalParams) -> None:
    """Raise unless p is a physical, separable correlation triple."""
    if not is_separable_bd(p):  # validates p first
        raise ValueError(
            f"input state ({p.c1}, {p.c2}, {p.c3}) is entangled; "
            "the protocol requires a separable resource"
        )


_PARTNER = [1, 0, 3, 2]  # phi+ <-> phi-, psi+ <-> psi-


def _pt_minima(p: BellDiagonalParams, r_x, r_perp) -> tuple[np.ndarray, np.ndarray]:
    """Minimum partial-transpose eigenvalues after Alice's CNOT, across A|BC
    and across C|AB, for ancillas with Bloch components r_x and r_perp."""
    lam = p.eigenvalues()
    x2 = np.square(r_x)[..., None]
    p2 = np.square(r_perp)[..., None]

    def cut_min(a, v):
        return np.min(a - np.sqrt(a * a * x2 + v * v * p2), axis=-1) / 8

    return cut_min(2 - 4 * lam, 2 - 4 * lam[_PARTNER]), cut_min(4 * lam, 4 * lam[_PARTNER])


def _search_points(spec: AncillaSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, phi, radius) arrays in search order: radius outermost, then
    polar angle, then azimuth."""
    thetas = np.linspace(0.0, np.pi, spec.n_polar)
    phis = np.linspace(0.0, 2 * np.pi, spec.n_azimuth, endpoint=False)
    r, th, ph = np.meshgrid(np.array(spec.radii, dtype=float), thetas, phis, indexing="ij")
    return th.ravel(), ph.ravel(), r.ravel()


def _refinement_points(center, spec: AncillaSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 75 points at half grid steps around center: radius step outermost,
    then polar, then azimuthal step."""
    th0, ph0, r0 = center
    dth = 0.5 * np.pi / (spec.n_polar - 1)
    dph = np.pi / spec.n_azimuth
    dr = 0.5 * (max(spec.radii) - min(spec.radii)) / max(len(spec.radii) - 1, 1)
    k, i, j = np.meshgrid([-1, 0, 1], [-2, -1, 0, 1, 2], [-2, -1, 0, 1, 2], indexing="ij")
    r = np.clip(r0 + k * dr, 0.0, 1.0)
    th = np.clip(th0 + i * dth, 0.0, np.pi)
    ph = (ph0 + j * dph) % (2 * np.pi)
    return th.ravel(), ph.ravel(), r.ravel()


def _score(p: BellDiagonalParams, points) -> tuple[np.ndarray, np.ndarray]:
    th, ph, r = points
    x, y, z = bloch_vector(th, ph).T
    return _pt_minima(p, r * x, r * np.hypot(y, z))


def edss_useful(
    p: BellDiagonalParams, ancilla: AncillaSpec | None = None
) -> EdssSearchResult:
    """Search for an ancilla that distributes entanglement with a PPT send step.

    The input must be a physical, separable correlation triple. Returns the
    first witness found in deterministic grid order, or the best candidate
    statistics when none succeeds.
    """
    require_separable(p)
    spec = ancilla if ancilla is not None else AncillaSpec()
    points = _search_points(spec)
    m_a, m_c = _score(p, points)
    if spec.refine and not np.any((m_c >= -PPT_TOL) & (m_a < -PPT_TOL)):
        # No witness on the grid: refine around the first point within PPT_TOL of its
        # A|BC minimum, so exact ties between symmetric ancillas break by grid order.
        center = np.flatnonzero(m_a <= m_a.min() + PPT_TOL)[0]
        extra = _refinement_points(tuple(x[center] for x in points), spec)
        points = tuple(np.concatenate(pair) for pair in zip(points, extra))
        m_a, m_c = (np.concatenate(pair) for pair in zip((m_a, m_c), _score(p, extra)))

    send_ppt = m_c >= -PPT_TOL
    npt = m_a < -PPT_TOL
    hits = np.flatnonzero(send_ppt & npt)
    end = hits[0] + 1 if hits.size else m_a.size
    ppt_prefix = m_a[:end][send_ppt[:end]]
    min_pt = float(ppt_prefix.min()) if ppt_prefix.size else float("nan")
    npt_seen = bool(np.any(npt[:end] & ~send_ppt[:end]))
    witness = tuple(float(x[hits[0]]) for x in points) if hits.size else None
    return EdssSearchResult(witness is not None, witness, min_pt, npt_seen)


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
    min_pt_eigenvalue: float
    # not a CSV column: a success was seen but only through an NPT send step
    protocol_invalid: bool = field(default=False, compare=False)


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name != "protocol_invalid")


def sweep(resolution: int, ancilla: AncillaSpec | None = None) -> list[SweepRow]:
    """Evaluate every physical separable point of a cubic grid on [-1, 1]^3.

    Rows are ordered lexicographically by grid index.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axis = np.linspace(-1.0, 1.0, resolution)
    rows = []
    for v1 in axis:
        for v2 in axis:
            for v3 in axis:
                p = BellDiagonalParams(float(v1), float(v2), float(v3))
                if not p.is_physical() or not is_separable_bd(p):
                    continue
                state = bell_diagonal(p)
                i_x, i_y, i_z = complementary_correlations(state)
                res = edss_useful(p, ancilla)
                wit = res.witness if res.witness is not None else (None, None, None)
                rows.append(
                    SweepRow(
                        c1=p.c1,
                        c2=p.c2,
                        c3=p.c3,
                        i_x=i_x,
                        i_y=i_y,
                        i_z=i_z,
                        C=classical_correlation(p),
                        D=discord_bd(p),
                        Q1=q1(p),
                        I=total_mutual_information(state),
                        negativity=negativity(state, 0),
                        bd_rank=bd_rank(p),
                        edss_useful=res.useful,
                        witness_theta=wit[0],
                        witness_phi=wit[1],
                        witness_r=wit[2],
                        min_pt_eigenvalue=res.min_pt_eigenvalue,
                        protocol_invalid=(not res.useful) and res.npt_send_success_seen,
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
