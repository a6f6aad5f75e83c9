"""Independent brute-force verifiers.

The grid maximizer of the Holevo quantity is the oracle for the closed-form
classical correlation; numeric discord follows from it. In Bloch form, Alice's
conditional states for a block of Bob's directions n are two real products
G @ [+-n; 1], scored by trace and Bloch length. One fixed ancilla grid is
the oracle for the exact EDSS rule: the 8x8 A|BC and C|AB cuts of all 1,280
grid ancillas are one stacked eigensolve, read by the runtime's one PPT
rule, `entanglement.reads_ppt`. Also here: the mutual-unbiasedness checker, run on
the axis projectors the runtime measures with, and the spectrum cross-check.
Each cross-check of the seeded suite behind `compcorr verify` is one
`check_*` function of its input samples, which the tests call on their own
seeds. Every check takes its Bell-diagonal samples as one (n, 3) block
checked by `states.bd_block`, built by `states.bd_matrix` as one (n, 4, 4)
stack, whose spectra are one eigvalsh and whose outcome tables are one
`outcome_tables` call, with the closed forms as array forms of the runtime
scalars. Only `check_holevo` builds objects, its 20 states, whose
maximizations run in lockstep. Every number is bit for bit that of the same
work done one sample at a time.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .correlations import AXIS_PROJECTORS, classical_correlation, discord_bd, holevo_quantity
from .correlations import outcome_mutual_information, outcome_tables, total_mutual_information
from .edss import PERM_AC
from .entanglement import reads_ppt, require_separable
from .matcore import DERIVED_TOL, LOG2, MUB_TOL, PROB_CLAMP, SIGMAS, bloch_operator
from .matcore import bloch_vector, kron, pt_spectra
from .states import BellDiagonalParams, DensityMatrix, bd_block, bd_matrix, bell_diagonal, bell_eigenvalues
from .states import as_int, random_bd_block

N_POLAR, N_AZIMUTH = 90, 180  # the coarse polar x azimuthal grid of `maximize_holevo`
REFINE_ROUNDS = 5
HOLEVO_STACK = 20  # states per lockstep pass of `maximize_holevo`
# (state, direction) pairs per block of `_holevo_batch`, chosen by timing `run_verification(0, 1000)`
# on one BLAS thread: 6,144 to 12,288 ran alike, 4,096 3-5% slower, 2,048 and 32,768 12-15% slower
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


def _alice_rows(rho: DensityMatrix) -> np.ndarray:
    """A_k = Tr_B[rho (I (x) sigma_k)] = (t I + m . sigma)/2, k = 0..3, as rows (t, m): t = x00 + x11,
    m = (x00 - x11, 2 Re x01, 2 Im x01), in an axis order and y sign that no length sees."""
    # A_k[a, c] = sum_eb r[a, b, c, e] sigma_k[e, b]
    a = np.einsum("abce,keb->kac", rho.matrix.reshape(2, 2, 2, 2), SIGMAS)
    x00, x11, x01 = a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]
    return np.stack([x00 + x11, x00 - x11, 2 * x01.real, 2 * x01.imag], axis=1)


def _bloch_entropy(x: np.ndarray) -> np.ndarray:
    """2 t S(y / t) = t (2 ln 2 - (1 + r) ln(1 + r) - (1 - r) ln(1 - r)) in nats,
    r = |m| / t, of 2x2 states y = (t I + m . sigma)/2, rows (t, m) on axis 0.
    t is floored at the least normal float in the divide and r clipped at 1,
    so weight t <= 0 gives 0, and 1 - r likewise in its log, so 0 ln 0 = 0."""
    tiny = np.finfo(float).tiny
    r = np.minimum(np.sqrt(x[1] ** 2 + x[2] ** 2 + x[3] ** 2) / np.maximum(x[0], tiny), 1.0)
    h = (1 + r) * np.log(1 + r) + (1 - r) * np.log(np.maximum(1 - r, tiny))
    return np.maximum(x[0], 0.0) * (2 * LOG2 - h)


def _augmented(ns: np.ndarray) -> np.ndarray:
    """[n; 1] of (..., N, 3) directions as columns: (..., 4, N)."""
    return np.concatenate([np.swapaxes(ns, -1, -2), np.ones(ns.shape[:-2] + (1, ns.shape[-2]))], axis=-2)


def _holevo_batch(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Holevo quantity in bits for a stack of states, given by their
    `_alice_rows` (S, 4, 4), and a batch of Bob measurement Bloch vectors n
    as the `_augmented` columns [n; 1], (4, N) for every state or (S, 4, N)
    per state: an (S, N) array.

    Bob's projector (I +- n . sigma)/2 leaves Alice x+-(n) = (A_0 +- n . A)/2
    of weight (1 +- b . n)/2 and Bloch length |a +- T n| / (1 +- b . n), with
    rho_A = (I + a . sigma)/2, Bob's Bloch vector b and correlation matrix T.
    G = [[b, 1], [T, a]] maps [n; 1] to the trace and Bloch vector of
    2 x+(n), so a block of directions is two products G @ [+-n; 1], taken
    as [n; 1] times G and G with its n columns negated. In `_bloch_entropy`'s
    terms chi = (4 S(rho_A) - 4 p+ S+ - 4 p- S-) / (4 ln 2). Blocks of about
    _HOLEVO_BLOCK (state, direction) pairs stay in cache, and each state's
    values are bit for bit those of a stack of it alone. A branch of weight
    p <= ZERO_BRANCH, which `holevo_quantity` drops, adds at most p bits: no mask.
    """
    g = rows[:, [1, 2, 3, 0]].swapaxes(1, 2)  # G: columns A_1, A_2, A_3, A_0
    g = np.stack([g, g * [-1.0, -1.0, -1.0, 1.0]], axis=1)  # G @ [+-n; 1] as (S, 2, 4, 4) @ [n; 1]
    s_a = 2 * _bloch_entropy(rows[:, 0].T)[:, None]
    d = np.expand_dims(cols, -3)
    out = np.empty((len(rows), cols.shape[-1]))
    step = max(1, _HOLEVO_BLOCK // len(rows))
    for j in range(0, out.shape[1], step):
        w = _bloch_entropy(np.moveaxis(g @ d[..., j : j + step], -2, 0))
        out[:, j : j + step] = (s_a - w[:, 0] - w[:, 1]) / (4 * LOG2)
    return out


@functools.cache
def _direction_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (thetas, phis, `_augmented` Bloch vectors) of the coarse
    grid's rows theta <= pi/2, the first ceil(N_POLAR / 2) of N_POLAR, row-major."""
    thetas = np.linspace(0.0, np.pi, N_POLAR)[: (N_POLAR + 1) // 2]
    phis = np.linspace(0.0, 2 * np.pi, N_AZIMUTH, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    grid = (thetas, phis, _augmented(bloch_vector(tt.ravel(), pp.ravel())))
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
    thetas, phis, cols = _direction_grid()
    best = np.argmax(_holevo_batch(rows, cols), axis=1)  # first occurrence = lexicographic tie-break
    th, ph = thetas[best // N_AZIMUTH], phis[best % N_AZIMUTH]

    step_t, step_p = np.pi / (N_POLAR - 1) / 2, 2 * np.pi / N_AZIMUTH / 2
    offsets = np.array([-2, -1, 0, 1, 2])
    pick = np.arange(len(states))
    for _ in range(REFINE_ROUNDS):
        # each state's 5 x 5 local grid, row-major as np.meshgrid(..., indexing="ij") lays it out
        tg = np.repeat(np.clip(th[:, None] + offsets * step_t, 0.0, np.pi), 5, axis=1)
        pg = np.tile(ph[:, None] + offsets * step_p, 5)
        k = np.argmax(_holevo_batch(rows, _augmented(bloch_vector(tg, pg))), axis=1)
        th, ph = tg[pick, k], pg[pick, k]
        step_t, step_p = step_t / 2, step_p / 2

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
    m_a, m_c = pt_spectra(rabc, (0, 2))[:, :, 0].T
    npt_a, ppt_c = ~reads_ppt(m_a), reads_ppt(m_c)
    clean = npt_a & ppt_c
    witness = tuple(ANCILLA_GRID[np.argmax(clean)].tolist()) if clean.any() else None
    return NumericEdssResult(witness, bool((npt_a & ~ppt_c).any()))


def _mub_deviation(projectors) -> float:
    """The largest |Tr(P_ki P_lj) - 1/d| across two bases of a stack, as
    `correlations.AXIS_PROJECTORS` holds P_ki, from one einsum; a basis
    whose Tr(P_ki P_kj) is not delta_ij within MUB_TOL is refused."""
    p = np.asarray(projectors, dtype=complex)
    n, d = p.shape[:2]
    overlaps = np.einsum("kiab,ljba->klij", p, p).real
    if not np.max(np.abs(overlaps[np.arange(n), np.arange(n)] - np.eye(d))) <= MUB_TOL:
        raise ValueError("basis is not orthonormal within tolerance")
    return float(np.max(np.abs(overlaps[~np.eye(n, dtype=bool)] - 1.0 / d), initial=0.0))


def mub_check(projectors) -> bool:
    """Whether a projector stack's bases are mutually unbiased within MUB_TOL."""
    return _mub_deviation(projectors) <= MUB_TOL


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
    mub_dev = _mub_deviation(AXIS_PROJECTORS)
    return [
        CheckResult("pauli-bases-mutually-unbiased", mub_dev <= MUB_TOL, mub_dev, MUB_TOL),
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
