"""Routes that solve each state once, against the routes that solved it again.

`DensityMatrix` keeps no spectrum: a state is solved by `np.linalg.eigvalsh`
of its matrix, as any matrix derived from it is. `run_protocol`
builds no state: its three stages are raw 8x8 matrices, one index of
rho (x) ancilla, and its nine verdicts one stacked eigensolve; the tests
rebuild the stages from `kron` and `np.ix_` of the CNOT permutations and
solve each cut on its own. `report_for_state` reads the Bell-diagonal
triple from the signed SVD of T with no rotated state, and
`complementary_correlations` contracts the state once with the stacked
axis projectors. Each is compared here with the direct form.
`run_verification` builds objects only for its Holevo grid, and the
measured references solve the matrices they derive from a state with no
second check.
"""

import ast
import math
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compcorr import report, states
from compcorr.correlations import complementary_correlations, holevo_quantity, outcome_mutual_information
from compcorr.correlations import outcome_tables, total_mutual_information
from compcorr.edss import CUT_FACTORS, PERM_AC, PERM_BC, STAGES, ancilla_state, edss_useful, run_protocol
from compcorr.matcore import STATE_TOL, I2, PAULIS, bloch_operator, bloch_vector, entropy_of_probabilities, kron
from compcorr.oracle import check_z_correlation, discord_numeric, maximize_holevo, run_verification
from compcorr.states import (
    _BELL_SIGNS,
    PAULI_PRODUCTS,
    BellDiagonalParams,
    DensityMatrix,
    bell_diagonal,
    random_bd_block,
    signed_svd,
)
from testkit import (
    REFUSED_DIMS,
    dims_refusal,
    is_physical,
    partial_transpose,
    random_bd_params,
    random_density_matrix,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS as BENCH_WORKLOADS  # noqa: E402
from workloads import inputs  # noqa: E402

seeds = st.integers(0, 2**32 - 1)
physical_triples = st.tuples(*[st.floats(-1, 1)] * 3).filter(is_physical)
# Bell weights with zeros (faces of the tetrahedron) and repeats
bell_weights = st.lists(st.one_of(st.just(0.0), st.just(0.5), st.floats(0, 1)), min_size=4, max_size=4)
bd_params = st.one_of(
    physical_triples.map(lambda c: BellDiagonalParams(*c)),
    bell_weights.filter(lambda w: sum(w) > 0).map(lambda w: BellDiagonalParams(*(_BELL_SIGNS @ np.divide(w, sum(w))))),
)
angles = st.tuples(st.floats(0, np.pi), st.floats(0, 2 * np.pi))
radii = st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1))
# conjugation by Alice's and by Bob's CNOT, as index grids of an 8x8 matrix
GRID_AC, GRID_BC = np.ix_(PERM_AC, PERM_AC), np.ix_(PERM_BC, PERM_BC)


def _haar_su2(rng):
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return u


def _work(monkeypatch, call):
    """(the shape of each np.linalg.eigvalsh argument, the number of
    DensityMatrix validations) of call()."""
    shapes, validations = [], []
    eigvalsh, post_init = np.linalg.eigvalsh, DensityMatrix.__post_init__
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: shapes.append(np.shape(a)) or eigvalsh(a, *args, **kw))
        m.setattr(DensityMatrix, "__post_init__", lambda self: validations.append(1) or post_init(self))
        call()
    return shapes, len(validations)


def test_run_protocol_solves_nine_8x8_spectra_in_one_call(monkeypatch):
    # the nine stage partial transposes as one stack; the stages are raw
    # matrices, so no state is built
    rho, anc = bell_diagonal(BellDiagonalParams(0.3, -0.3, 0.3)), ancilla_state(0.0, 0.0, 0.5)
    assert _work(monkeypatch, lambda: run_protocol(rho, anc)) == ([(9, 8, 8)], 0)


@pytest.mark.parametrize(
    "c, solves, validations",
    [
        # useful: bell_diagonal's check, the ancilla's, then the two send-step cuts
        pytest.param((0.3, -0.3, 0.3), [(4, 4), (2, 2), (2, 8, 8)], 2, id="c0-solves0-1"),
        # not useful: decided in closed form, nothing built
        pytest.param((0.3, 0.3, 0.3), [], 0, id="c1-solves1-0"),
        pytest.param((0.5, 0.0, 0.25), [], 0, id="c2-solves2-0"),
    ],
)
def test_edss_useful_work(monkeypatch, c, solves, validations):
    results = []
    work = _work(monkeypatch, lambda: results.append(edss_useful(BellDiagonalParams(*c))))
    assert work == (solves, validations)
    assert (results[0].witness is not None) == results[0].useful == bool(solves)


def _certification(monkeypatch, p):
    """edss_useful(p) and the (2, 8) spectra of its one solve past the two
    validations, the A|BC and C|AB cuts after Alice's CNOT."""
    solved, eigvalsh = [], np.linalg.eigvalsh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: solved.append(eigvalsh(a, *args, **kw)) or solved[-1])
        res = edss_useful(p)
    (spectra,) = [w for w in solved if w.shape == (2, 8)]
    return res, spectra


def _send_step_spectra(p, r):
    """run_protocol's A|BC and C|AB spectra after Alice's CNOT, with the z-axis ancilla of radius r."""
    a_bc, c_ab, _ = run_protocol(bell_diagonal(p), ancilla_state(0.0, 0.0, r)).stage_verdicts["after_alice"]
    assert (a_bc.cut, c_ab.cut) == ("A|BC", "C|AB")
    return np.array([a_bc.spectrum, c_ab.spectrum])


def test_certification_spectra_are_run_protocols_bit_for_bit(monkeypatch):
    # the edss-witness pools of two seeds, and a triple next to a face
    pools = [inputs(BENCH_WORKLOADS["edss-witness"], seed) for seed in (0, 7)]
    for c in [c for pool in pools for c in pool] + [(0.3, -0.3, 0.001)]:
        res, spectra = _certification(monkeypatch, BellDiagonalParams(*c))
        assert res.useful and res.witness is not None
        assert spectra.tobytes() == _send_step_spectra(BellDiagonalParams(*c), res.witness[2]).tobytes()


# separable triples with c1 c2 c3 < 0: magnitudes with a sum of at most 1, and an odd number of minus signs
useful_triples = st.builds(
    lambda w, signs: tuple((np.divide(w, max(1.0, math.fsum(w))) * signs).tolist()),
    st.tuples(*[st.floats(0, 1, exclude_min=True)] * 3),
    st.sampled_from([(-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)]),
).filter(lambda c: 0.0 not in c)


@given(useful_triples)
@example((0.3, -0.3, 1e-12))  # useful, but the window is below rounding: no witness
@example((0.3, -0.3, 5e-324))
@example((0.3, -0.3, 0.001))
@example((1e-300, -0.5, 0.5))
@settings(max_examples=200, deadline=None)
def test_witness_is_run_protocols_rule(c):
    # a witness iff run_protocol at the midpoint succeeds with a PPT send step
    p = BellDiagonalParams(*c)
    res = edss_useful(p)
    assert res.useful
    r = (res.r_a + res.s_c) / 2
    run = run_protocol(bell_diagonal(p), ancilla_state(0.0, 0.0, r))
    assert res.witness == ((0.0, 0.0, r) if run.success and run.send_step_ppt else None)


@pytest.mark.parametrize("n", [1, 200])
def test_z_correlation_check_solves_one_stack(monkeypatch, n):
    # the samples are one (n, 4, 4) stack whose outcome tables are read
    # off it: no state is built and nothing is solved
    samples = random_bd_block(np.random.default_rng(60), n)
    assert _work(monkeypatch, lambda: check_z_correlation(samples)) == ([], 0)


def test_measured_references_solve_without_validating(monkeypatch):
    # the two marginals and the state, then the two conditional states and
    # their average
    rho = random_density_matrix(np.random.default_rng(61), (2, 2))
    assert _work(monkeypatch, lambda: total_mutual_information(rho)) == ([(2, 2), (2, 2), (4, 4)], 0)
    assert _work(monkeypatch, lambda: holevo_quantity(rho, [0.0, 0.0, 1.0])) == ([(2, 2)] * 3, 0)


def test_a_state_accepted_within_the_hermiticity_tolerance_is_measured():
    # a residue of 9e-11, under STATE_TOL: the state is accepted once, and
    # every measured reference reads it as its Hermitian part, to rounding
    m = np.eye(4, dtype=complex) / 4
    m[0, 2] = m[1, 3] = 0.9e-10
    rho, hermitian = DensityMatrix(m, (2, 2)), DensityMatrix((m + m.conj().T) / 2, (2, 2))
    for measure in (
        lambda s: holevo_quantity(s, [0.0, 0.0, 1.0]),
        total_mutual_information,
        lambda s: maximize_holevo(s).value,
        discord_numeric,
    ):
        assert abs(measure(rho) - measure(hermitian)) <= 1e-9


def test_a_light_branch_of_an_accepted_state_is_measured():
    # least eigenvalue -5e-11, under STATE_TOL; Bob's z outcome 1 has weight
    # 9.5e-10, so its conditional state x / p has eigenvalue -5e-11 / p =
    # -0.053, which is noise on rho's scale. chi along z is S(rho_A) plus
    # 7.4e-11 from that branch, and z is the grid's maximizer
    rho = DensityMatrix(np.diag([1 - 1e-9 + 5e-11, -5e-11, 0, 1e-9]), (2, 2))
    chi = holevo_quantity(rho, [0.0, 0.0, 1.0])
    assert abs(chi - entropy_of_probabilities([1 - 1e-9, 1e-9])) <= 1e-10
    assert maximize_holevo(rho).value == chi


def test_verification_builds_objects_only_for_the_holevo_grid(monkeypatch):
    # every sample but check_holevo's 20 is a row of a block: the 1,000 +
    # 200 + 1,000 triples are never objects. The spectra are one stacked
    # eigensolve and the z tables need none; check_holevo builds 20 triples
    # and their 20 states (20 (4, 4) solves), and solves the 20 states and
    # 40 marginals of total_mutual_information (20 more (4, 4) solves) and
    # 60 2x2 states of holevo_quantity (the 100 (2, 2) solves) with no
    # validation
    built, post_init = [], BellDiagonalParams.__post_init__
    with monkeypatch.context() as m:
        m.setattr(BellDiagonalParams, "__post_init__", lambda self: built.append(1) or post_init(self))
        shapes, validations = _work(monkeypatch, lambda: run_verification(0, 1000))
    assert (len(built), validations) == (20, 20)
    assert Counter(shapes) == {(1000, 4, 4): 1, (4, 4): 40, (2, 2): 100}


def _stacked_ancilla(angle, r):
    """The ancilla's matrix by the stacked route: a one-row stack of angles
    through bloch_vector's np.stack and bloch_operator's matrix product with
    the Pauli rows, which no single-vector shortcut shares."""
    return bloch_operator(r * bloch_vector(np.array([angle[0]]), np.array([angle[1]])))[0]


@given(angles, radii)
@example((np.pi, -0.0), 0.0)  # signed zeros in every Bloch component
@example((np.pi, -0.0), 1.0)
@example((0.0, -0.0), 0.5)
@example((np.pi, 0.0), 0.0)
@settings(max_examples=100, deadline=None)
def test_ancilla_spectrum_is_read_off_its_radius(angle, r):
    anc = ancilla_state(*angle, r)
    assert anc.matrix.tobytes() == _stacked_ancilla(angle, r).tobytes() and anc.dims == (2,)
    np.testing.assert_allclose(np.linalg.eigvalsh(anc.matrix), [(1 - r) / 2, (1 + r) / 2], rtol=0, atol=1e-14)
    assert not anc.matrix.flags.writeable


def _pauli_contraction(p):
    """bell_diagonal(p).matrix as (1/4) sum_ij c_ij sigma_i (x) sigma_j, one
    contraction with PAULI_PRODUCTS: the reference for its 8 entries."""
    return np.einsum("ij,ijkl->kl", np.diag([1.0, p.c1, p.c2, p.c3]), PAULI_PRODUCTS) / 4.0


@given(bd_params)
@example(BellDiagonalParams(-0.0, 0.0, 0.5))  # signed zeros
@example(BellDiagonalParams(-0.0, -0.0, -0.0))
@example(BellDiagonalParams(0.0, 5e-324, -1.0))  # a subnormal difference
@settings(max_examples=100, deadline=None)
def test_bell_diagonal_is_the_pauli_contraction(p):
    assert bell_diagonal(p).matrix.tobytes() == _pauli_contraction(p).tobytes()


@pytest.mark.parametrize("n", [1, 7, 500])
def test_bd_matrix_stack_is_its_rows(n):
    # seeded blocks, then the signed-zero and subnormal examples above
    block = np.concatenate(
        [random_bd_block(np.random.default_rng(27 + n), n), [(-0.0, 0.0, 0.5), (-0.0, -0.0, -0.0), (0.0, 5e-324, -1.0)]]
    )
    rows = np.stack([states.bd_matrix(*row) for row in block.tolist()])
    assert states.bd_matrix(*block.T).tobytes() == rows.tobytes()


def test_bell_diagonal_is_the_pauli_contraction_on_seeded_triples():
    for p in random_bd_params(np.random.default_rng(22), 5000):
        assert bell_diagonal(p).matrix.tobytes() == _pauli_contraction(p).tobytes()


def _validated_route(rho4, anc2):
    """The verdict spectra of run_protocol, by the route that built the
    initial state through the public constructor."""
    initial = DensityMatrix(kron(rho4, anc2), (2, 2, 2))
    stages = (initial.matrix, initial.matrix[GRID_AC], initial.matrix[GRID_AC][GRID_BC])
    m = np.stack(stages).reshape((3,) + (2,) * 6)
    pts = np.stack([np.swapaxes(m, 1 + f, 4 + f) for f in CUT_FACTORS], axis=1)
    return np.linalg.eigvalsh(pts.reshape(-1, 8, 8)).reshape(3, 3, 8)


@given(seeds, st.one_of(st.booleans(), physical_triples), angles, radii)
@example(0, (-0.0, 0.0, 0.5), (np.pi, -0.0), 0.0)  # signed zeros in the triple and the ancilla
@example(0, (-0.0, -0.0, -0.0), (np.pi, -0.0), 1.0)
@example(0, (0.3, -0.3, -0.0), (0.0, -0.0), 0.5)
@example(1, False, (np.pi, -0.0), 0.0)
@example(2, True, (np.pi, 0.0), 0.0)
@settings(max_examples=100, deadline=None)
def test_protocol_output_is_the_validated_route(seed, bell_diagonal_input, angle, r):
    # bell_diagonal_input: False for a random state, True for a random
    # Bell-diagonal one, or the triple of a Bell-diagonal one
    rng = np.random.default_rng(seed)
    if bell_diagonal_input is False:
        rho = random_density_matrix(rng, (2, 2))
        rho4 = rho.matrix
    else:
        p = random_bd_params(rng) if bell_diagonal_input is True else BellDiagonalParams(*bell_diagonal_input)
        rho, rho4 = bell_diagonal(p), _pauli_contraction(p)
    anc2 = DensityMatrix(_stacked_ancilla(angle, r), (2,)).matrix
    trace = run_protocol(rho, ancilla_state(*angle, r))
    spectra = _validated_route(rho4, anc2)
    got = np.array([[v.spectrum for v in trace.stage_verdicts[stage]] for stage in STAGES])
    assert got.tobytes() == spectra.tobytes()


@given(seeds, st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_verdicts_are_the_per_cut_spectra(seed, bell_diagonal_input):
    # bit for bit: the one stacked eigvalsh against one solve per stage and cut
    rng = np.random.default_rng(seed)
    rho = bell_diagonal(random_bd_params(rng)) if bell_diagonal_input else random_density_matrix(rng, (2, 2))
    anc = random_density_matrix(rng, (2,))
    trace = run_protocol(rho, anc)
    initial = kron(rho.matrix, anc.matrix)
    stages = (initial, initial[GRID_AC], initial[GRID_AC][GRID_BC])
    for stage, m in zip(STAGES, stages):
        for verdict, f, cut in zip(trace.stage_verdicts[stage], CUT_FACTORS, ("A|BC", "C|AB", "B|AC")):
            per_cut = np.linalg.eigvalsh(partial_transpose(m, (2, 2, 2), f))
            assert np.array(verdict.spectrum).tobytes() == per_cut.tobytes() and verdict.cut == cut


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_non_finite_entry_rejected(bad):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        DensityMatrix(m, (2, 2))


def _refusal(matrix, dims):
    """The message DensityMatrix refuses the matrix with, or None if it is
    accepted, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            DensityMatrix(matrix, dims)
        except ValueError as e:
            return str(e)
    return None


_ABOVE_TOL = float(np.nextafter(STATE_TOL, 1.0))
# the farthest traces from 1 that read within STATE_TOL, above and below:
# tr - 1 is exact next to 1, in steps of 2**-52 above and 2**-53 below
_TRACE_IN = (1 + math.floor(STATE_TOL * 2**52) * 2.0**-52, 1 - math.floor(STATE_TOL * 2**53) * 2.0**-53)


@pytest.mark.parametrize("unit", [1, 1j])
def test_hermiticity_residual_at_the_tolerance_is_accepted(unit):
    # m[0, 1] - conj(m[1, 0]) = m[0, 1], of modulus STATE_TOL, then the next float
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = unit * STATE_TOL
    assert _refusal(m, (2, 2)) is None
    m[0, 1] = unit * _ABOVE_TOL
    assert _refusal(m, (2, 2)) == "density matrix is not Hermitian within 1e-10"


@pytest.mark.parametrize("tr", _TRACE_IN)
def test_trace_at_the_tolerance_is_accepted(tr):
    # then the next float away from 1; each diagonal sums to it exactly in any order
    out = float(np.nextafter(tr, 2 * tr - 1))
    assert abs(tr - 1.0) <= STATE_TOL < abs(out - 1.0)
    for t, message in ((tr, None), (out, f"trace {out} differs from 1 by more than 1e-10")):
        assert _refusal(np.diag([t, 0.0]), (2,)) == message
        assert _refusal(np.diag([t - 0.75, 0.25, 0.25, 0.25]), (2, 2)) == message


def test_least_eigenvalue_at_the_tolerance_is_accepted():
    assert _refusal(np.diag([1 + STATE_TOL, -STATE_TOL]), (2,)) is None
    assert _refusal(np.diag([1 + STATE_TOL, -_ABOVE_TOL]), (2,)) == "negative eigenvalue -1.000e-10 below -1e-10"


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 1): complex(0, np.nan)}, "density matrix has a non-finite entry"),  # NaN only in the imaginary part
        ({(1, 1): complex(0.5, np.nan)}, "density matrix has a non-finite entry"),
        ({(0, 0): np.inf}, "density matrix has a non-finite entry"),
        ({(0, 1): np.inf, (1, 0): np.inf}, "density matrix has a non-finite entry"),
        # the residual 3.4e308 (1 + i) overflows, and so would its modulus on halves
        ({(0, 1): complex(1.7e308, 1.7e308), (1, 0): complex(-1.7e308, 1.7e308)}, "density matrix is not Hermitian within 1e-10"),
    ],
)
def test_refusals_raise_no_warning(entries, message):
    m = np.eye(2, dtype=complex) / 2
    for at, v in entries.items():
        m[at] = v
    assert _refusal(m, (2,)) == message


def _with_entry(i, j, v):
    m = np.eye(4, dtype=complex) / 4
    m[i, j] = v
    return m


@pytest.mark.parametrize(
    "matrix, dims, message",
    [
        (np.eye(4) / 4, (2, 0), dims_refusal((2, 0), (4, 4))),
        (np.eye(4) / 4, (), dims_refusal((), (4, 4))),
        (np.eye(8) / 8, (2, 4), dims_refusal((2, 4), (8, 8))),
        (_with_entry(0, 3, np.nan), (2, 2), "density matrix has a non-finite entry"),
        (_with_entry(0, 1, 0.1), (2, 2), "density matrix is not Hermitian within 1e-10"),
        (np.eye(4) / 2, (2, 2), "trace 2.0 differs from 1 by more than 1e-10"),
        (np.diag([1.5, -0.5, 0, 0]), (2, 2), "negative eigenvalue -5.000e-01 below -1e-10"),
    ]
    + [(np.eye(4) / 4, dims, dims_refusal(dims, (4, 4))) for dims in REFUSED_DIMS]
    # no 2**n x 2**n matrix, n >= 1, takes any dims
    + [
        (m, (2, 2), dims_refusal((2, 2), m.shape))
        for m in (np.eye(1), np.eye(3) / 3, np.eye(6) / 6, np.ones((4, 2)) / 4, np.full(4, 0.25))
    ],
)
def test_public_constructor_rejects_with_its_message(matrix, dims, message):
    # with every warning an error: an array-valued entry compares to 2 as an array
    assert _refusal(matrix, dims) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((np.inf, 0.0), "ancilla angles (inf, 0.0) must be finite"),
        ((0.0, np.nan), "ancilla angles (0.0, nan) must be finite"),
        ((0.0, 0.0, np.nan), "Bloch radius nan outside [0, 1]"),
        ((0.0, 0.0, 1 + 1e-16 * 3), "Bloch radius 1.0000000000000002 outside [0, 1]"),
        ((0.0, 0.0, -5e-324), "Bloch radius -5e-324 outside [0, 1]"),
    ],
)
def test_ancilla_state_rejects_with_its_message(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ancilla_state(*args)


def test_run_protocol_rejects_wrong_dims():
    rho, anc = bell_diagonal(BellDiagonalParams(0.3, -0.3, 0.3)), ancilla_state(0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="two-qubit state, got dims \\(2,\\)"):
        run_protocol(anc, anc)
    with pytest.raises(ValueError, match="single-qubit ancilla, got dims \\(2, 2\\)"):
        run_protocol(rho, rho)


def test_no_state_skips_the_public_constructor():
    # a state made with object.__new__ would carry fields that no check saw
    root = Path(__file__).resolve().parent.parent / "src"
    assert not [p.name for p in root.rglob("*.py") if "object.__new__(" in p.read_text()]


def test_no_module_imports_a_private_name_of_another():
    # a `_` name is its module's own: code another module reads gets a public name
    root = Path(__file__).resolve().parent.parent / "src" / "compcorr"
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] == "compcorr")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports names only to re-export them
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in sorted((root / "src" / "compcorr").glob("*.py")) if p.name != "__init__.py"]
    unused = []
    for path in paths + sorted((root / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def _tolerance_comparisons() -> set[tuple[str, str]]:
    """(module.function, bound) for every comparison in src/compcorr/*.py
    that reads a tolerance: a name ending in _TOL, or `tol`, the argument
    that carries one. A bound compared negated, x >= -TOL, reads "-TOL"."""
    root = Path(__file__).resolve().parent.parent / "src" / "compcorr"
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Compare):
            negated = {
                id(n.operand) for n in ast.walk(node) if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
            }
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and (n.id.endswith("_TOL") or n.id == "tol"):
                    found.add((where, "-" * (id(n) in negated) + n.id))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(root.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_the_physicality_and_ppt_rules_each_have_one_owner():
    # a triple is physical when every Bell-basis eigenvalue is at least
    # -tol, and a cut is PPT when its least partial-transpose eigenvalue is
    # at least -PPT_TOL: each rule is one comparison in one function, which
    # every caller reads, so that it changes in one place
    found = _tolerance_comparisons()

    def where(*bounds):
        return sorted({fn for fn, bound in found if bound in bounds})

    assert where("-PHYSICALITY_TOL", "-tol") == ["states.on_tetrahedron"]
    assert where("-PPT_TOL") == ["entanglement.reads_ppt"]
    # the other comparisons with these constants are other rules: a rank
    # count, a nonzero correlation, and the discord's guard against rounding
    assert where("PHYSICALITY_TOL") == ["states.bd_rank"]
    assert where("PPT_TOL") == ["entanglement.all_correlations_nonzero"]
    assert where("DERIVED_TOL", "-DERIVED_TOL") == ["correlations.clamped_discord", "oracle.check_ordered_frame"]


# public names that nothing in src/ or bench/ reads, kept on purpose
KEPT_PUBLIC_NAMES = {
    "complementary_correlations",  # measured references
    "negativity",
    "discord_numeric",
    "edss_useful_numeric",  # the EDSS oracle
    "family_eq15",  # the paper's named families
    "werner",
    "classically_correlated",
    "save_state",  # writes the state-file format
}


def test_every_public_name_is_read_somewhere():
    """Each public top-level name of a src/compcorr module other than
    __init__.py is read by another top-level definition of those modules,
    by bench/*.py, or is in KEPT_PUBLIC_NAMES. A read is a loaded ast.Name,
    an imported name, or an ast.Attribute on compcorr or one of its modules
    (compcorr.oracle.run_verification, states.bd_matrix), so a field of the
    same spelling (rep.q1) is no read of a function q1: a floor against a
    public name that nothing reaches, not a proof that every name is used."""
    root = Path(__file__).resolve().parent.parent
    modules = {p.stem for p in (root / "src" / "compcorr").glob("*.py")}
    packages = {"compcorr", *modules, *(f"compcorr.{m}" for m in modules)}

    def dotted(node):
        """"a.b.c" of a dotted path of names, else None."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
            return f"{base}.{node.attr}"
        return None

    def reads(node):
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and dotted(n.value) in packages:
                out.add(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                out.update(part for a in n.names for part in a.name.split("."))
        return out

    def defines(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return {stmt.name}
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        stored = [n for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]
        return {n.id for n in stored if isinstance(n.ctx, ast.Store)}

    stmts = [
        (path.stem, stmt, reads(stmt))
        for path in sorted((root / "src" / "compcorr").glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text()).body
    ]
    read_by_bench = set().union(*(reads(ast.parse(p.read_text())) for p in sorted((root / "bench").glob("*.py"))))
    unread = [
        f"{module}.{name}"
        for module, stmt, _ in stmts
        for name in sorted(defines(stmt))
        if not name.startswith("_")
        and name not in KEPT_PUBLIC_NAMES | read_by_bench
        and not any(name in seen for _, other, seen in stmts if other is not stmt)
    ]
    assert unread == []


@given(seeds, st.integers(0, 3), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_signed_svd_factors_are_rotations(seed, rank, flip_left, flip_right):
    rng = np.random.default_rng(seed)
    T = sum((np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) for _ in range(rank)), np.zeros((3, 3)))
    # a state's correlation matrix has singular values at most 1
    T = T / max(1.0, np.linalg.norm(T, 2))
    # an improper factor on either side gives det T < 0 for a full-rank T
    T = np.diag([1.0, 1.0, -1.0 if flip_left else 1.0]) @ T @ np.diag([1.0, -1.0 if flip_right else 1.0, 1.0])
    RA, s, RB = signed_svd(T)
    for R in (RA, RB):
        np.testing.assert_allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-14)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(RA @ T @ RB.T, np.diag(s), rtol=0, atol=1e-14)


@given(physical_triples, seeds)
@settings(max_examples=60, deadline=None)
def test_report_triple_is_the_normal_form_diagonal(c, seed):
    # the normal form of a locally rotated Bell-diagonal state is the input
    # triple up to order and signs, with c1 c2 c3 = det T unchanged
    rng = np.random.default_rng(seed)
    local = kron(_haar_su2(rng), _haar_su2(rng))
    rho = DensityMatrix(local @ bell_diagonal(BellDiagonalParams(*c)).matrix @ local.conj().T, (2, 2))
    seen = []

    def recording(triple):
        seen.append(tuple(triple))
        return original(triple)

    original = states.round_onto_tetrahedron
    states.round_onto_tetrahedron = recording
    try:
        report.report_for_state(rho)
    finally:
        states.round_onto_tetrahedron = original
    (triple,) = seen
    np.testing.assert_allclose(sorted(np.abs(triple)), sorted(np.abs(c)), rtol=0, atol=1e-14)
    assert np.prod(triple) == pytest.approx(np.prod(c), rel=0, abs=1e-14)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_stacked_axis_tables_match_per_axis_route(seed):
    # per axis: the projectors (I +- sigma_k)/2 and one kron trace per outcome pair
    rho = random_density_matrix(np.random.default_rng(seed), (2, 2))
    per_axis = []
    for s in PAULIS:
        pi = ((I2 + s) / 2, (I2 - s) / 2)
        table = [[np.trace(rho.matrix @ kron(pi[i], pi[j])).real for j in (0, 1)] for i in (0, 1)]
        per_axis.append(outcome_mutual_information(np.array(table)))
    np.testing.assert_allclose(complementary_correlations(rho), per_axis, rtol=0, atol=1e-15)
    # the stack form: each matrix of an (n, 4, 4) stack gets the bits of its own call
    rng = np.random.default_rng(seed)
    for n in (1, 7, 200):
        stack = np.stack([random_density_matrix(rng, (2, 2)).matrix for _ in range(n)])
        assert outcome_tables(stack).tobytes() == np.stack([outcome_tables(m) for m in stack]).tobytes()


def test_stacked_axis_tables_need_two_qubits():
    with pytest.raises(ValueError, match="two-qubit"):
        complementary_correlations(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))
