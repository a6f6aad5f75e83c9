"""Independent brute-force verifiers.

The grid maximizer of the Holevo quantity is the oracle for the closed-form
classical correlation; numeric discord follows from it. One fixed ancilla
grid is the oracle for the exact EDSS rule: the 8x8 A|BC and C|AB cuts of
all 1,280 grid ancillas are one stacked eigensolve, read by the runtime's
one PPT rule, `entanglement.reads_ppt`. Also here: the mutual-unbiasedness
checker, run on the axis projectors the runtime measures with, and the
closed-form-vs-eigensolver spectrum cross-check. Each cross-check of the seeded suite behind
`compcorr verify` is one `check_*` function of its input samples; the
tests call the same functions on their own seeds. Every check takes its
Bell-diagonal samples as one (n, 3) block checked by `states.bd_block`,
built by `states.bd_matrix` as one (n, 4, 4) stack, checked no further,
whose spectra are one eigvalsh and whose outcome tables are one
`outcome_tables` call, with the closed forms as array forms of the runtime
scalars.
Only `check_holevo` builds objects, its 20 states, whose maximizations run
in lockstep, their coarse pass in cache-sized blocks of directions. Every
number is bit for bit that of the same work done one sample at a time.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .correlations import AXIS_PROJECTORS, classical_correlation, discord_bd, holevo_quantity
from .correlations import outcome_mutual_information, outcome_tables, total_mutual_information
from .edss import PERM_AC
from .entanglement import reads_ppt, require_separable
from .matcore import DERIVED_TOL, LOG2, MUB_TOL, PROB_CLAMP, SIGMAS, ZERO_BRANCH, bloch_operator
from .matcore import bloch_vector, kron, pt_spectra
from .states import BellDiagonalParams, DensityMatrix, bd_block, bd_matrix, bell_diagonal, bell_eigenvalues
from .states import as_int, random_bd_block

N_POLAR, N_AZIMUTH = 90, 180  # the coarse polar x azimuthal grid of `maximize_holevo`
REFINE_ROUNDS = 5
HOLEVO_STACK = 20  # states per lockstep pass of `maximize_holevo`
# (state, direction) pairs per block of `_holevo_batch`, chosen by timing
# `check_holevo`: 4,096 to 16,384 ran alike, 2,560 was 15-20% slower
_HOLEVO_BLOCK = 8192
# the (theta, phi, radius) ancillas of `edss_useful_numeric`: radii 0.1 .. 1.0
# outermost, then 8 polar angles, then 16 azimuths
ANCILLA_GRID = np.stack(
    np.meshgrid(
        np.arange(1, 11) / 10, np.linspace(0.0, np.pi, 8), np.linspace(0.0, 2 * np.pi, 16, endpoint=False), indexing="ij"
    ),
    axis=-1,
).reshape(-1, 3)[:, [1, 2, 0]]
ANCILLA_GRID.flags.writeable = False

OVERLAP_CONVENTION_NOTE = (
    "convention: mutual unbiasedness is checked on squared cross-basis overlaps, "
    "|<a|b>|^2 = 1/d; the unsquared form is inconsistent with the Pauli eigenbases "
    "and is treated as a typo"
)


def _xlogx(lam: np.ndarray) -> np.ndarray:
    """lam log(lam) of an array clipped in place at 0, with 0 log 0 = 0."""
    np.clip(lam, 0.0, None, out=lam)
    pos = lam > 0.0
    out = np.zeros_like(lam)
    np.log(lam, out=out, where=pos)
    return np.multiply(lam, out, out=out, where=pos)


def _entropy2x2_batch(tr: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Entropies in bits of 2x2 Hermitian PSD matrices, given by arrays of
    their traces and determinants. The two eigenvalues tr/2 -+ disc are
    clipped at 0 and their terms added in that order."""
    disc = tr * tr / 4 - det
    np.sqrt(np.clip(disc, 0.0, None, out=disc), out=disc)
    half = tr / 2
    return -(_xlogx(half - disc) + _xlogx(half + disc)) / LOG2


def _alice_rows(rho: DensityMatrix) -> np.ndarray:
    """A_k = Tr_B[rho (I (x) sigma_k)], k = 0..3, as rows (x00, x11, Re x01, Im x01)."""
    # A_k[a, c] = sum_eb r[a, b, c, e] sigma_k[e, b]
    a = np.einsum("abce,keb->kac", rho.matrix.reshape(2, 2, 2, 2), SIGMAS)
    return np.stack([a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1].real, a[:, 0, 1].imag], axis=1)


def _trace_det(x0, x1, x2, x3) -> tuple[np.ndarray, np.ndarray]:
    """Trace and determinant of 2x2 Hermitian matrices with entries
    (x00, x11, Re x01, Im x01) = (x0, x1, x2, x3)."""
    return x0 + x1, x0 * x1 - x2**2 - x3**2


def _weighted_entropy(*x) -> np.ndarray:
    """p S(x / p) in bits of unnormalised 2x2 states x, given as in
    `_trace_det`, of weight p = Tr x, and 0 where p <= ZERO_BRANCH."""
    p, det = _trace_det(*x)
    live = p > ZERO_BRANCH
    q = np.where(live, p, 1.0)
    return np.where(live, p * _entropy2x2_batch(p / q, det / (q * q)), 0.0)


def _holevo_batch(rows: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Holevo quantity in bits for a stack of states, given by their
    `_alice_rows` (S, 4, 4), and a batch of Bob measurement Bloch vectors,
    (N, 3) for every state or (S, N, 3) per state: an (S, N) array.

    Bob's projector (I +- n . sigma)/2 leaves Alice the unnormalised state
    x+-(n) = (A_0 +- n . A)/2, so every x+-(n) comes from one real product
    of the directions with the rows of A_1, A_2, A_3. A_0 is rho_A. The
    directions run in blocks of about _HOLEVO_BLOCK (state, direction)
    pairs, whose arrays stay in cache, each block written into the one
    result. Each state's values are bit for bit those of a stack of that
    state alone.
    """
    a0 = rows[:, 0].T[:, :, None]  # entry k of every rho_A as an (S, 1) column a0[k]
    s_a = _entropy2x2_batch(*_trace_det(*a0))
    n = ns.shape[-2]
    out = np.empty((len(rows), n))
    step = max(1, _HOLEVO_BLOCK // len(rows))
    for j in range(0, n, step):
        lin = ns[..., j : j + step, :] @ rows[:, 1:]
        plus = _weighted_entropy(*((a0[k] + lin[..., k]) / 2 for k in range(4)))
        minus = _weighted_entropy(*((a0[k] - lin[..., k]) / 2 for k in range(4)))
        np.subtract(s_a, plus + minus, out=out[:, j : j + step])
    return out


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (thetas, phis, Bloch vectors) of the coarse grid's polar
    rows theta <= pi/2, the first ceil(N_POLAR / 2) of N_POLAR, row-major."""
    thetas = np.linspace(0.0, np.pi, N_POLAR)[: (N_POLAR + 1) // 2]
    phis = np.linspace(0.0, 2 * np.pi, N_AZIMUTH, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = (thetas, phis, bloch_vector(tt.ravel(), pp.ravel()))
    for arr in grid:
        arr.flags.writeable = False
    return grid


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    argmax_bloch: np.ndarray


def maximize_holevo(rho):
    """Grid-maximize the Holevo quantity over Bob's measurement Bloch vector:
    an `OptimizationResult` for one state, or a tuple of them, one per
    state, for a sequence of states.

    chi(n) = chi(-n) for every two-qubit state: measuring along -n swaps
    the two outcomes and leaves Alice's ensemble as it was. So the coarse
    N_POLAR x N_AZIMUTH grid covers only the rows theta <= pi/2, whose
    antipodes make up the rest of it. REFINE_ROUNDS local passes with
    halved steps follow around the running best. Grid ties break to the
    lexicographically smallest (polar, azimuthal) index pair. The returned
    value is recomputed through `holevo_quantity` at the winning direction.

    The states of a sequence run in lockstep, HOLEVO_STACK at a time: one
    `_holevo_batch` for the coarse pass and one per refinement round. Each
    result is bit for bit that of the state alone.
    """
    if isinstance(rho, DensityMatrix):
        return _maximize_stack((rho,))[0]
    states = tuple(rho)
    return tuple(
        opt for i in range(0, len(states), HOLEVO_STACK) for opt in _maximize_stack(states[i : i + HOLEVO_STACK])
    )


def _maximize_stack(states) -> list[OptimizationResult]:
    rows = np.stack([_alice_rows(rho) for rho in states])
    thetas, phis, ns = _direction_grid()
    best = np.argmax(_holevo_batch(rows, ns), axis=1)  # first occurrence = lexicographic tie-break
    th, ph = thetas[best // N_AZIMUTH], phis[best % N_AZIMUTH]

    step_t = np.pi / (N_POLAR - 1) / 2
    step_p = 2 * np.pi / N_AZIMUTH / 2
    offsets = np.array([-2, -1, 0, 1, 2])
    pick = np.arange(len(states))
    for _ in range(REFINE_ROUNDS):
        # each state's 5 x 5 local grid, row-major as np.meshgrid(..., indexing="ij") lays it out
        tg = np.repeat(np.clip(th[:, None] + offsets * step_t, 0.0, np.pi), 5, axis=1)
        pg = np.tile(ph[:, None] + offsets * step_p, 5)
        k = np.argmax(_holevo_batch(rows, bloch_vector(tg, pg)), axis=1)
        th, ph = tg[pick, k], pg[pick, k]
        step_t /= 2
        step_p /= 2

    return [
        OptimizationResult(value=holevo_quantity(rho, n / np.linalg.norm(n)), argmax_bloch=n)
        for rho, n in zip(states, bloch_vector(th, ph))
    ]


def discord_numeric(rho: DensityMatrix) -> float:
    """Total mutual information minus the grid-maximized Holevo quantity."""
    return total_mutual_information(rho) - maximize_holevo(rho).value


@dataclass(frozen=True)
class NumericEdssResult:
    witness: tuple[float, float, float] | None  # first grid ancilla with a clean success
    npt_seen: bool  # some grid ancilla is NPT across both cuts


def edss_useful_numeric(p: BellDiagonalParams) -> NumericEdssResult:
    """Reference for `edss.edss_useful`: both send-step verdicts of every
    ancilla of `ANCILLA_GRID`, from 8x8 eigensolves.

    The whole grid is one (n, 8, 8) stack: one broadcast product builds
    every rho (x) ancilla, Alice's CNOT permutes it, and one stacked
    eigvalsh solves A|BC and C|AB. The witness is the first clean success
    in grid order.
    """
    require_separable(p)
    th, ph, r = ANCILLA_GRID.T
    anc = bloch_operator(r[:, None] * bloch_vector(th, ph))
    # rho (x) ancilla for every ancilla, then Alice's CNOT: index by PERM_AC
    rabc = kron(bell_diagonal(p).matrix, anc)[:, PERM_AC[:, None], PERM_AC]
    m_a, m_c = pt_spectra(rabc, (2, 2, 2), (0, 2))[:, :, 0].T
    npt_a, ppt_c = ~reads_ppt(m_a), reads_ppt(m_c)
    clean = npt_a & ppt_c
    witness = tuple(ANCILLA_GRID[np.argmax(clean)].tolist()) if clean.any() else None
    return NumericEdssResult(witness, bool((npt_a & ~ppt_c).any()))


def mub_check(projectors) -> bool:
    """Whether the bases of a projector stack, projectors[k, i] on outcome i
    of basis k as in `correlations.AXIS_PROJECTORS`, are mutually unbiased:
    one einsum forms every Tr(P_ki P_lj), which must be 1/d within MUB_TOL
    across two bases, and delta_ij within one, else the stack is refused."""
    p = np.asarray(projectors, dtype=complex)
    n, d = p.shape[:2]
    overlaps = np.einsum("kiab,ljba->klij", p, p).real
    if not np.max(np.abs(overlaps[np.arange(n), np.arange(n)] - np.eye(d))) <= MUB_TOL:
        raise ValueError("basis is not orthonormal within tolerance")
    return bool(np.max(np.abs(overlaps[~np.eye(n, dtype=bool)] - 1.0 / d), initial=0.0) <= MUB_TOL)


def _closed_spectra(block: np.ndarray) -> np.ndarray:
    """The closed-form Bell-basis eigenvalues of every row, ascending."""
    return np.sort(np.array(bell_eigenvalues(*block.T)).T, axis=1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: deviation {self.deviation:.3e} "
            f"(tolerance {self.tolerance:.1e})"
        )


def _axis_angle_deg(n: np.ndarray, axis: int) -> float:
    """Angle in degrees between a direction and a coordinate axis line."""
    c = abs(float(n[axis])) / np.linalg.norm(n)
    return float(np.degrees(np.arccos(min(c, 1.0))))


def _sample_block(samples, check: str) -> np.ndarray:
    """A check's samples as one (n, 3) block from `bd_block`, refused
    unless n >= 1."""
    if len(samples) == 0:
        raise ValueError(f"{check} needs at least one sample")
    return bd_block(samples)


def _correlation_bits(c: np.ndarray) -> np.ndarray:
    """`correlation_bits` of every entry of an array, bit for bit, with its
    ValueError for the first entry in C order outside [-1, 1]."""
    c = np.abs(c)
    bad = ~(c <= 1 + PROB_CLAMP)  # written so that a NaN fails
    if bad.any():
        raise ValueError(f"correlation coefficient {c.flat[np.argmax(bad)]} outside [-1, 1]")
    c = np.minimum(c, 1.0)
    out = np.empty_like(c)
    low = c < 0.5
    x = c[low]
    out[low] = (x * np.arctanh(x) + np.log1p(-x * x) / 2) / LOG2
    x = c[~low]
    tail = np.zeros_like(x)
    np.log(1 - x, out=tail, where=x < 1.0)
    out[~low] = ((1 + x) / 2 * np.log(1 + x) + (1 - x) / 2 * tail) / LOG2
    return out


def _bd_mutual_information(block: np.ndarray) -> np.ndarray:
    """`bd_mutual_information`, 2 - H(lambda), of every row, bit for bit:
    the terms of the ascending eigenvalues added left to right."""
    terms = _xlogx(_closed_spectra(block))
    acc = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
    entropy = -acc / LOG2
    return 2.0 - entropy


def check_spectra(samples) -> CheckResult:
    """Closed-form Bell-diagonal spectra vs the numeric eigensolver: one eigvalsh of the block's `bd_matrix`."""
    block = _sample_block(samples, "check_spectra")
    dev = float(np.max(np.abs(_closed_spectra(block) - np.linalg.eigvalsh(bd_matrix(*block.T)))))
    return CheckResult("bell-diagonal-spectrum-crosscheck", dev < 1e-10, dev, 1e-10)


def check_holevo(samples) -> tuple[CheckResult, ...]:
    """Closed-form classical correlation and discord vs grid maximization of
    the Holevo quantity, and the maximizing direction vs the strongest axis."""
    samples = [BellDiagonalParams(*c) for c in _sample_block(samples, "check_holevo").tolist()]
    dev_c = dev_d = dev_ax = 0.0
    states = [bell_diagonal(p) for p in samples]
    for p, state, opt in zip(samples, states, maximize_holevo(states)):
        dev_c = max(dev_c, abs(classical_correlation(p) - opt.value))
        dev_d = max(dev_d, abs(discord_bd(p) - (total_mutual_information(state) - opt.value)))
        mags = np.abs(p.as_array())
        order = np.argsort(mags)[::-1]
        if mags[order[0]] - mags[order[1]] > 1e-3:  # skip near-ties
            dev_ax = max(dev_ax, _axis_angle_deg(opt.argmax_bloch, int(order[0])))
    return (
        CheckResult("classical-correlation-vs-grid-maximum", dev_c < 1e-4, dev_c, 1e-4),
        CheckResult("closed-form-discord-vs-numeric", dev_d < 1e-4, dev_d, 1e-4),
        CheckResult("holevo-argmax-on-strongest-axis", dev_ax < 5.0, dev_ax, 5.0),
    )


def check_z_correlation(samples) -> CheckResult:
    """z-axis closed form vs the measured outcome mutual information. The
    `outcome_tables` of the block's `bd_matrix` stack are each bit for bit
    those of `complementary_correlations`; only the z tables are scored,
    and nothing is solved."""
    block = _sample_block(samples, "check_z_correlation")
    tables = outcome_tables(bd_matrix(*block.T))
    dev = float(np.max(np.abs(_correlation_bits(block[:, 2]) - outcome_mutual_information(tables[:, 2]))))
    return CheckResult("z-correlation-closed-form-vs-measured", dev < 1e-12, dev, 1e-12)


def check_ordered_frame(samples) -> tuple[CheckResult, ...]:
    """With |c| sorted so the strongest axis is x and the median axis is z,
    Q1 <= D and Q1 + C <= I."""
    block = _sample_block(samples, "check_ordered_frame")
    # the median and largest |c| of each row, in the order the closed forms read them
    q_med, c = _correlation_bits(np.sort(np.abs(block), axis=1)[:, 1:]).T
    i = _bd_mutual_information(block)
    d = i - c
    bad = ~(d >= -DERIVED_TOL)  # as clamped_discord
    if bad.any():
        raise AssertionError(f"closed-form discord came out negative or NaN: {d[np.argmax(bad)]}")
    dev_qd = float(np.max(q_med - np.maximum(d, 0.0)))
    dev_qci = float(np.max(q_med + c - i))
    return (
        CheckResult("ordered-frame-q1-below-discord", dev_qd <= 1e-12, dev_qd, 1e-12),
        CheckResult("ordered-frame-q1-plus-c-below-i", dev_qci <= 1e-12, dev_qci, 1e-12),
    )


def run_verification(seed: int = 0, samples: int = 1000) -> list[CheckResult]:
    """Seeded cross-check suite; every check pairs an implementation with an
    independent route to the same number. One `random_bd_block` draw from
    the seed's stream is split into the checks' blocks, in the order they run."""
    if as_int(seed, "seed") < 0:
        raise ValueError(f"seed {seed} must be at least 0")
    if as_int(samples, "sample count") < 1:
        raise ValueError("samples must be at least 1")
    sizes = [samples, max(10, samples // 50), min(samples, 200), samples]
    rng = np.random.default_rng(seed)
    spectra, holevo, z_corr, frame = np.split(random_bd_block(rng, sum(sizes)), np.cumsum(sizes[:-1]))
    return [
        CheckResult("pauli-bases-mutually-unbiased", mub_check(AXIS_PROJECTORS), 0.0, MUB_TOL),
        CheckResult("repeated-basis-rejected", not mub_check(AXIS_PROJECTORS[[2, 2]]), 0.0, MUB_TOL),
        check_spectra(spectra),
        *check_holevo(holevo),
        check_z_correlation(z_corr),
        *check_ordered_frame(frame),
    ]


def verification_report(checks: list[CheckResult]) -> str:
    lines = [c.line() for c in checks]
    lines.append(OVERLAP_CONVENTION_NOTE)
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
