import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcorr.correlations import clamped_discord, classical_correlation, complementary_correlations
from compcorr.correlations import AXIS_PROJECTORS, correlation_bits, holevo_quantity
from compcorr import oracle
from compcorr.edss import ancilla_state, edss_useful, run_protocol
from compcorr.entanglement import is_separable_bd
from compcorr.matcore import LOG2, SIGMAS, ZERO_BRANCH, bloch_operator, bloch_vector
from compcorr.oracle import (
    CheckResult,
    check_holevo,
    check_ordered_frame,
    check_spectra,
    check_z_correlation,
    discord_numeric,
    edss_useful_numeric,
    maximize_holevo,
    mub_check,
    run_verification,
    verification_report,
)
from compcorr.states import (
    BellDiagonalParams,
    DensityMatrix,
    bd_block,
    bd_params_of,
    bell_diagonal,
    classically_correlated,
    family_eq15,
    random_bd_block,
)
from testkit import is_physical, random_bd_params, random_density_matrix


def _full_sphere_holevo_batch(rho, ns):
    """Holevo quantity per direction from both projectors (I +- n . sigma)/2,
    the conditional states by a complex matmul and their entropies from
    trace and determinant."""

    def entropies(mats):
        tr = np.einsum("gaa->g", mats).real
        det = (mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]).real
        disc = np.sqrt(np.clip(tr * tr / 4 - det, 0.0, None))
        lam = np.clip(np.stack([tr / 2 - disc, tr / 2 + disc], axis=1), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.where(lam > 0.0, lam * np.log(lam), 0.0).sum(axis=1) / LOG2

    r = rho.matrix.reshape(2, 2, 2, 2)
    r_eb_ac = r.transpose(3, 1, 0, 2).reshape(4, 4)  # row (e, b), column (a, c)
    cond = np.zeros(len(ns))
    for sign in (1.0, -1.0):
        x = (bloch_operator(sign * ns).reshape(-1, 4) @ r_eb_ac).reshape(-1, 2, 2)
        p = np.einsum("gaa->g", x).real
        ent = entropies(np.where(p[:, None, None] > ZERO_BRANCH, x / np.where(p == 0, 1, p)[:, None, None], 0))
        cond += np.where(p > ZERO_BRANCH, p * ent, 0.0)
    return entropies(np.trace(r, axis1=1, axis2=3)[None])[0] - cond


def _full_sphere_maximize(rho, n_polar, n_azimuth):
    """The grid maximizer over every polar row, theta in [0, pi], with the
    same refinement and tie-break as `maximize_holevo`."""
    thetas = np.linspace(0.0, np.pi, n_polar)
    phis = np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    best = int(np.argmax(_full_sphere_holevo_batch(rho, bloch_vector(tt.ravel(), pp.ravel()))))
    th, ph = thetas[best // n_azimuth], phis[best % n_azimuth]
    step_t, step_p = np.pi / (n_polar - 1) / 2, np.pi / n_azimuth
    offsets = np.array([-2, -1, 0, 1, 2])
    for _ in range(oracle.REFINE_ROUNDS):
        tg, pg = np.meshgrid(np.clip(th + offsets * step_t, 0.0, np.pi), ph + offsets * step_p, indexing="ij")
        k = int(np.argmax(_full_sphere_holevo_batch(rho, bloch_vector(tg.ravel(), pg.ravel()))))
        th, ph = tg.ravel()[k], pg.ravel()[k]
        step_t, step_p = step_t / 2, step_p / 2
    n = bloch_vector(th, ph)
    return holevo_quantity(rho, n / np.linalg.norm(n)), n


@given(st.integers(0, 2**32 - 1), st.floats(0, np.pi), st.floats(0, 2 * np.pi))
@settings(max_examples=60, deadline=None)
def test_holevo_quantity_is_even_in_the_direction(seed, theta, phi):
    # Ginibre states have nonzero local Bloch vectors, so the two outcomes
    # are not equally likely; measuring along -n only swaps them
    rho = random_density_matrix(np.random.default_rng(seed), (2, 2))
    n = bloch_vector(theta, phi)
    assert abs(holevo_quantity(rho, n) - holevo_quantity(rho, -n)) <= 1e-14


def test_hemisphere_maximum_matches_the_full_sphere():
    rng = np.random.default_rng(55)
    states = [bell_diagonal(random_bd_params(rng)) for _ in range(4)]
    states += [random_density_matrix(rng, (2, 2)) for _ in range(4)]
    for rho in states:
        want, n_want = _full_sphere_maximize(rho, oracle.N_POLAR, oracle.N_AZIMUTH)
        got = maximize_holevo(rho)
        assert abs(got.value - want) <= 1e-15
        n_got = got.argmax_bloch
        assert min(np.max(np.abs(n_got - n_want)), np.max(np.abs(n_got + n_want))) <= 1e-12


def test_holevo_on_a_sequence_is_each_single_call():
    rng = np.random.default_rng(56)
    states = [bell_diagonal(p) for p in random_bd_params(rng, 11)]
    states += [random_density_matrix(rng, (2, 2)) for _ in range(11)]
    assert len(states) > oracle.HOLEVO_STACK
    got = maximize_holevo(states)
    assert isinstance(got, tuple) and len(got) == len(states)
    for rho, opt in zip(states, got):
        want = maximize_holevo(rho)
        assert opt.value == want.value
        assert opt.argmax_bloch.tobytes() == want.argmax_bloch.tobytes()
    assert maximize_holevo([]) == ()


def test_holevo_batch_sees_the_hemisphere_grid_and_refinement(monkeypatch):
    sizes = []
    original = oracle._holevo_batch

    def counting(rows, cols):
        sizes.append(cols.shape[-1])  # directions per state: (4, N) shared or (S, 4, N)
        return original(rows, cols)

    monkeypatch.setattr(oracle, "_holevo_batch", counting)
    maximize_holevo(bell_diagonal(BellDiagonalParams(0.45, -0.2, 0.3)))
    assert sizes == [math.ceil(oracle.N_POLAR / 2) * oracle.N_AZIMUTH] + [25] * oracle.REFINE_ROUNDS


def _holevo_batch_one_pass(rows, ns):
    """`_holevo_batch` as a single pass over all directions: every state's
    Bloch-form G times [+-n; 1] for every n at once, and the entropies of
    the trace t and Bloch length |m| of each branch."""

    def weighted(x):  # 2 t S(y / t) in nats of y = (t I + m . sigma)/2
        tiny = np.finfo(float).tiny
        r = np.minimum(np.sqrt(x[1] ** 2 + x[2] ** 2 + x[3] ** 2) / np.maximum(x[0], tiny), 1.0)
        h = (1 + r) * np.log(1 + r) + (1 - r) * np.log(np.maximum(1 - r, tiny))
        return np.maximum(x[0], 0.0) * (2 * LOG2 - h)

    g = rows[:, [1, 2, 3, 0]].swapaxes(1, 2)  # columns ordered as [n; 1]
    ones = np.ones(ns.shape[:-1] + (1,))
    plus, minus = (np.concatenate([s * ns, ones], axis=-1).swapaxes(-1, -2) for s in (1.0, -1.0))
    s_a = 2 * weighted(rows[:, 0].T)[:, None]
    return (s_a - weighted((g @ plus).swapaxes(0, 1)) - weighted((g @ minus).swapaxes(0, 1))) / (4 * LOG2)


def _holevo_batch_trace_det(states, ns):
    """An independent route: every x+-(n) = (A_0 +- n . A)/2 as 2x2 entries
    (x00, x11, Re x01, Im x01), and the entropies of the eigenvalue pairs
    from trace and determinant."""

    def entropies(tr, det):
        disc = np.sqrt(np.clip(tr * tr / 4 - det, 0.0, None))
        lam = np.clip(np.stack([tr / 2 - disc, tr / 2 + disc], axis=-1), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.where(lam > 0.0, lam * np.log(lam), 0.0).sum(axis=-1) / LOG2

    # A_k[a, c] = Tr_B[rho (I (x) sigma_k)] = sum_eb r[a, b, c, e] sigma_k[e, b]
    a = np.einsum("sabce,keb->skac", np.stack([rho.matrix.reshape(2, 2, 2, 2) for rho in states]), SIGMAS)
    rows = np.stack([a[..., 0, 0].real, a[..., 1, 1].real, a[..., 0, 1].real, a[..., 0, 1].imag], axis=-1)
    lin = ns @ rows[:, 1:]
    a0 = rows[:, None, 0]
    x = np.concatenate([a0, (a0 + lin) / 2, (a0 - lin) / 2], axis=1)  # rho_A, x+, x-
    tr, det = x[..., 0] + x[..., 1], x[..., 0] * x[..., 1] - x[..., 2] ** 2 - x[..., 3] ** 2
    p = tr[:, 1:]
    q = np.where(p > ZERO_BRANCH, p, 1.0)
    cond = np.where(p > ZERO_BRANCH, p * entropies(p / q, det[:, 1:] / (q * q)), 0.0)
    n = lin.shape[1]
    return entropies(tr[:, :1], det[:, :1]) - (cond[:, :n] + cond[:, n:])


def test_holevo_blocks_are_the_one_pass_bit_for_bit():
    # more states than HOLEVO_STACK, and a grid that no block size divides,
    # so the last block of directions is a short one
    rng = np.random.default_rng(58)
    states = [bell_diagonal(p) for p in random_bd_params(rng, 12)]
    states += [random_density_matrix(rng, (2, 2)) for _ in range(12)]
    assert len(states) > oracle.HOLEVO_STACK
    rows = np.stack([oracle._alice_rows(rho) for rho in states])
    thetas, phis, cols = oracle._direction_grid()
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    ns = bloch_vector(tt.ravel(), pp.ravel())
    # the coarse grid's cached [n; 1] columns are those built for its directions
    assert cols.tobytes() == oracle._augmented(ns).tobytes()
    per_stack = oracle._HOLEVO_BLOCK // oracle.HOLEVO_STACK
    assert len(ns) > per_stack and len(ns) % per_stack != 0
    per_state = bloch_vector(rng.uniform(0, np.pi, (len(states), 25)), rng.uniform(0, 2 * np.pi, (len(states), 25)))
    whole, grid, local = slice(None), (ns, cols), (per_state, oracle._augmented(per_state))
    first = slice(oracle.HOLEVO_STACK)
    for pick, (dirs, dir_cols) in ((first, grid), (whole, grid), (slice(3, 4), grid), (whole, local)):
        got = oracle._holevo_batch(rows[pick], dir_cols)
        assert got.tobytes() == _holevo_batch_one_pass(rows[pick], dirs).tobytes()
        assert np.max(np.abs(got - _holevo_batch_trace_det(states[pick], dirs))) <= 1e-14
    for rho, opt in zip(states, maximize_holevo(states)):
        want = maximize_holevo(rho)
        assert opt.value == want.value
        assert opt.argmax_bloch.tobytes() == want.argmax_bloch.tobytes()


_KET0, _KETPLUS = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([1.0, 0.0, 0.0, 0.0]),  # |00>
        np.outer(np.kron(_KET0, _KETPLUS), np.kron(_KET0, _KETPLUS)),  # |0>|+>
        np.diag([0.5, 0.0, 0.0, 0.5]),
        np.eye(4) / 4,
    ],
    ids=["00", "0plus", "classical", "mixed"],
)
def test_holevo_batch_on_edge_states_is_holevo_quantity(matrix):
    # the +-axis directions give a branch of weight exactly 0 on the product
    # states, whose every conditional state is pure (r = 1), as the
    # classical state's are along z
    rho = DensityMatrix(matrix, (2, 2))
    ns = np.concatenate([np.eye(3), -np.eye(3), bloch_vector(np.array([0.3, 1.2, 2.5]), np.array([0.4, 2.0, 5.0]))])
    got = oracle._holevo_batch(oracle._alice_rows(rho)[None], oracle._augmented(ns))[0]
    assert np.max(np.abs(got - [holevo_quantity(rho, n) for n in ns])) <= 1e-15


class TestMaximizeHolevo:
    def test_maximally_mixed(self):
        opt = maximize_holevo(bell_diagonal(BellDiagonalParams(0, 0, 0)))
        assert opt.value == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form(self):
        p = BellDiagonalParams(0.5, 0.25, 0.25)
        opt = maximize_holevo(bell_diagonal(p))
        assert abs(opt.value - classical_correlation(p)) < 1e-4
        assert oracle._axis_angle_deg(opt.argmax_bloch, 0) < 5.0

    def test_argmax_picks_largest_axis(self):
        opt = maximize_holevo(bell_diagonal(BellDiagonalParams(0.2, 0.7, 0.1)))
        assert oracle._axis_angle_deg(opt.argmax_bloch, 1) < 5.0

    def test_value_consistent_with_holevo_quantity(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            p = random_bd_params(rng)
            opt = maximize_holevo(bell_diagonal(p))
            direct = holevo_quantity(bell_diagonal(p), opt.argmax_bloch / np.linalg.norm(opt.argmax_bloch))
            assert opt.value == pytest.approx(direct, abs=1e-12)


class TestDiscordNumeric:
    def test_classically_correlated(self):
        assert abs(discord_numeric(classically_correlated())) < 1e-6

    def test_zeroed_coefficient_comparison(self):
        d_full = discord_numeric(bell_diagonal(BellDiagonalParams(0.5, 0.25, 0.25)))
        d_zeroed = discord_numeric(bell_diagonal(BellDiagonalParams(0.5, 0, 0.25)))
        assert d_full > d_zeroed + 1e-3

    def test_family_matches_z_correlation(self):
        rho = family_eq15(0.5)
        assert abs(discord_numeric(rho) - correlation_bits(bd_params_of(rho)[0].c3)) < 1e-4

    def test_nonnegative(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            assert discord_numeric(bell_diagonal(random_bd_params(rng))) > -1e-6

    def test_agrees_with_closed_form_sampled(self):
        rng = np.random.default_rng(52)
        assert check_holevo(random_bd_block(rng, 25))[1].passed


def _edss_numeric_triples():
    rng = np.random.default_rng(54)
    # a narrow-window triple: its z-axis window (r_a, s_c] = (0.89, 0.97]
    # holds one grid radius, 0.9
    triples = [BellDiagonalParams(0.01413628, 0.01277, -0.52761174)]
    while len(triples) < 30:
        c = rng.uniform(-1, 1, 3)
        if len(triples) % 3 == 0:
            c[len(triples) % 9 // 3] = 0.0  # on an axis plane
        if is_physical(c) and is_separable_bd(p := BellDiagonalParams(*c)):
            triples.append(p)
    return triples


class TestEdssNumeric:
    def test_closed_form_search_matches_numeric_search(self):
        triples = _edss_numeric_triples()
        found = npt_only = 0
        for p in triples:
            exact, ref = edss_useful(p), edss_useful_numeric(p)
            if ref.witness is not None:  # the grid's witness proves the state useful
                assert exact.useful, p
                trace = run_protocol(bell_diagonal(p), ancilla_state(*ref.witness))
                assert trace.success and trace.send_step_ppt, p
            assert (ref.witness is not None) == exact.useful, p
            protocol_invalid = not exact.useful and exact.r_a < 1  # as in sweep_summary()
            if ref.npt_seen:
                assert exact.useful or protocol_invalid, p
            if exact.useful:
                assert exact.witness is not None, p
            found += ref.witness is not None
            npt_only += ref.npt_seen and protocol_invalid
        assert found >= 5 and npt_only >= 5  # both directions are exercised


def _basis(v):
    """The projectors (I +- v . sigma)/2 of the measurement along unit vector v."""
    return bloch_operator(np.stack([v, -np.asarray(v)]))


class TestMubCheck:
    def test_pauli_bases(self):
        assert mub_check(AXIS_PROJECTORS)

    def test_repeated_basis(self):
        assert not mub_check(AXIS_PROJECTORS[[2, 2]])

    def test_rotated_bases(self):
        z = AXIS_PROJECTORS[2]
        # turning the z axis by 90 degrees about y gives the x eigenbasis
        assert mub_check(np.stack([z, _basis(bloch_vector(np.pi / 2, 0.0))]))
        # a 45-degree turn gives squared overlaps cos^2(22.5deg) != 1/2
        assert not mub_check(np.stack([z, _basis(bloch_vector(np.pi / 4, 0.0))]))

    def test_rejects_non_orthonormal(self):
        # both outcomes of the first basis project on |0>
        with pytest.raises(ValueError, match="not orthonormal"):
            mub_check(np.stack([AXIS_PROJECTORS[2][[0, 0]], AXIS_PROJECTORS[2]]))

    def test_verify_checks_the_runtime_bases(self, monkeypatch):
        # the x basis turned by 0.1 rad about z stays orthonormal and
        # unbiased to z, but not to y
        turned = AXIS_PROJECTORS.copy()
        turned[0] = _basis(bloch_vector(np.pi / 2, 0.1))
        monkeypatch.setattr(oracle, "AXIS_PROJECTORS", turned)
        mub, repeated = verification_report(run_verification(0, 1)).splitlines()[:2]
        # the turned x basis against y: overlaps (1 +- sin 0.1)/2, so sin(0.1)/2 off 1/2
        assert mub.startswith("FAIL pauli-bases-mutually-unbiased: deviation 4.992e-02")
        assert repeated.startswith("PASS repeated-basis-rejected:")


class TestSpectrumCrosscheck:
    def test_examples(self):
        assert check_spectra(np.array([(0.0, 0.0, 0.0)])).deviation == pytest.approx(0.0, abs=1e-14)
        assert check_spectra(np.array([(1.0, -1.0, 1.0)])).deviation < 1e-12

    def test_sampled(self):
        rng = np.random.default_rng(53)
        assert check_spectra(random_bd_block(rng, 1000)).passed

    def test_sequence_is_the_largest_single_deviation(self):
        triples = np.concatenate([random_bd_block(np.random.default_rng(57), 200), [(1.0, -1.0, 1.0)]])
        assert check_spectra(triples).deviation == max(check_spectra(c[None]).deviation for c in triples)


def _z_correlation_per_sample(samples):
    """`check_z_correlation` one validated state at a time, through
    `complementary_correlations`."""
    dev = max(abs(correlation_bits(p.c3) - complementary_correlations(bell_diagonal(p))[2]) for p in samples)
    return CheckResult("z-correlation-closed-form-vs-measured", dev < 1e-12, dev, 1e-12)


def _ordered_frame_per_sample(samples):
    """`check_ordered_frame` one sample at a time, with I = 2 - H(lambda)
    from one array log and one np.sum."""
    dev_qd = dev_qci = -np.inf
    for p in samples:
        q_med = correlation_bits(sorted((abs(p.c1), abs(p.c2), abs(p.c3)))[1])
        lam = np.array(sorted(p.eigenvalues))
        nz = lam[lam > 0.0]
        c, i = classical_correlation(p), 2.0 - float(-np.sum(nz * np.log(nz)) / LOG2)
        dev_qd = max(dev_qd, q_med - clamped_discord(i, c))
        dev_qci = max(dev_qci, q_med + c - i)
    return (
        CheckResult("ordered-frame-q1-below-discord", dev_qd <= 1e-12, dev_qd, 1e-12),
        CheckResult("ordered-frame-q1-plus-c-below-i", dev_qci <= 1e-12, dev_qci, 1e-12),
    )


def _spectra_per_sample(samples):
    """`check_spectra` one validated state at a time: the closed-form
    spectrum against the state's own eigensolve."""
    dev = max(
        float(np.max(np.abs(np.sort(p.eigenvalues) - np.linalg.eigvalsh(bell_diagonal(p).matrix)))) for p in samples
    )
    return CheckResult("bell-diagonal-spectrum-crosscheck", dev < 1e-10, dev, 1e-10)


def _fields(result):
    deviation = result.deviation
    return result.name, result.passed, np.float64(deviation).tobytes(), type(deviation), result.tolerance


@pytest.mark.parametrize("n", [1, 7, 200, 1000, "vertices"])
def test_stacked_checks_are_the_per_sample_loops(n):
    if n == "vertices":  # the tetrahedron's vertices, a point on an edge and the centre
        corners = [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1), (0, 0, 1), (0, 0, 0)]
        samples = [BellDiagonalParams(*c) for c in corners]
    else:
        samples = random_bd_params(np.random.default_rng(59 + n), n)
    block = bd_block([(p.c1, p.c2, p.c3) for p in samples])
    assert _fields(check_spectra(block)) == _fields(_spectra_per_sample(samples))
    assert _fields(check_z_correlation(block)) == _fields(_z_correlation_per_sample(samples))
    want = list(map(_fields, _ordered_frame_per_sample(samples)))
    assert list(map(_fields, check_ordered_frame(block))) == want


@pytest.mark.parametrize("check", [check_spectra, check_holevo, check_z_correlation, check_ordered_frame])
def test_a_check_refuses_an_empty_sample_list(check):
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match=f"^{check.__name__} needs at least one sample$"):
            check(empty)


# deviations of every CheckResult of run_verification(seed, 1000) in order,
# as float.hex(): verify prints them to three digits, which hides the last bits
PINNED_DEVIATIONS = {
    0: (
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p-51",
        "0x1.e000000000000p-53",
        "0x1.4000000000000p-51",
        "0x0.0p+0",
        "0x1.4000000000000p-53",
        "-0x1.73dee0b580000p-27",
        "-0x1.73dee0c000000p-27",
    ),
    1: (
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p-51",
        "0x1.0000000000000p-52",
        "0x1.8000000000000p-51",
        "0x0.0p+0",
        "0x1.0000000000000p-53",
        "-0x1.0a80ef07f0000p-24",
        "-0x1.0a80ef0800000p-24",
    ),
    2: (
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p-51",
        "0x1.8000000000000p-53",
        "0x1.0000000000000p-51",
        "0x0.0p+0",
        "0x1.0000000000000p-53",
        "-0x1.441a6a02f0000p-24",
        "-0x1.441a6a0300000p-24",
    ),
    3: (
        "0x0.0p+0",
        "0x0.0p+0",
        "0x1.0000000000000p-51",
        "0x1.8000000000000p-53",
        "0x1.e000000000000p-51",
        "0x0.0p+0",
        "0x1.0000000000000p-53",
        "-0x1.cc1402e000000p-29",
        "-0x1.cc14030000000p-29",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_DEVIATIONS))
def test_verification_deviations_are_pinned_bit_for_bit(seed):
    checks = run_verification(seed, 1000)
    assert [c.deviation.hex() for c in checks] == list(PINNED_DEVIATIONS[seed])
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("samples", [2.5, math.nan, True, np.float64(3.0), "10"])
def test_verification_refuses_a_sample_count_that_is_not_an_integer(samples):
    with pytest.raises(ValueError, match=f"^sample count {re.escape(repr(samples))} is not an integer$"):
        run_verification(0, samples)


@pytest.mark.parametrize("seed", [2.5, math.nan, True, np.float64(3.0), "10", None])
def test_verification_refuses_a_seed_that_is_not_an_integer(seed):
    # a bool is refused, though True == 1 would seed the stream
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not an integer$"):
        run_verification(seed, 1000)


def test_verification_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed -1 must be at least 0$"):
        run_verification(-1, 1000)


def test_verification_takes_a_numpy_integer_seed():
    assert run_verification(np.int64(3), 50) == run_verification(3, 50)


class TestVerificationSuite:
    def test_pinned_names_order_and_tolerances(self):
        checks = run_verification(seed=0, samples=50)
        assert [(c.name, c.tolerance) for c in checks] == [
            ("pauli-bases-mutually-unbiased", 1e-12),
            ("repeated-basis-rejected", 1e-12),
            ("bell-diagonal-spectrum-crosscheck", 1e-10),
            ("classical-correlation-vs-grid-maximum", 1e-4),
            ("closed-form-discord-vs-numeric", 1e-4),
            ("holevo-argmax-on-strongest-axis", 5.0),
            ("z-correlation-closed-form-vs-measured", 1e-12),
            ("ordered-frame-q1-below-discord", 1e-12),
            ("ordered-frame-q1-plus-c-below-i", 1e-12),
        ]
        assert all(c.passed for c in checks), verification_report(checks)

    def test_verdicts_and_deviations_are_python_scalars(self):
        # so that a result serialises: json.dumps refuses numpy.bool
        for c in run_verification(seed=0, samples=50):
            assert type(c.passed) is bool and type(c.deviation) is float, c

    def test_all_checks_pass(self):
        checks = run_verification(seed=7, samples=200)
        assert all(c.passed for c in checks), verification_report(checks)

    def test_reproducible(self):
        a = run_verification(seed=3, samples=50)
        b = run_verification(seed=3, samples=50)
        assert [(c.name, c.deviation) for c in a] == [(c.name, c.deviation) for c in b]

    def test_report_contains_convention_note(self):
        checks = run_verification(seed=1, samples=20)
        assert "squared cross-basis overlaps" in verification_report(checks)
