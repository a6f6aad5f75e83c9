import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import compcorr
from compcorr import cli, edss, entanglement
from compcorr.cli import main
from compcorr.matcore import kron
from compcorr.states import (
    PAULI_PRODUCTS,
    BellDiagonalParams,
    DensityMatrix,
    bd_params_of,
    bell_diagonal,
    bloch_decompose,
    load_state,
    save_state,
    signed_svd,
)
from testkit import dims_refusal, random_bd_params


def _haar_u2(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _save_rotated_state(tmp_path, c, seed) -> tuple[str, DensityMatrix]:
    """Save bell_diagonal(c) conjugated by two seeded Haar unitaries."""
    rng = np.random.default_rng(seed)
    local = kron(_haar_u2(rng), _haar_u2(rng))
    rho = DensityMatrix(local @ bell_diagonal(BellDiagonalParams(*c)).matrix @ local.conj().T, (2, 2))
    path = tmp_path / "rotated.json"
    save_state(rho, path)
    return str(path), rho


def _save_overshooting_state(tmp_path) -> str:
    """Save the state of c = (0, 0, 1 + 2e-10), whose eigenvalue -5e-11 is
    inside the state tolerance; return its path."""
    path = tmp_path / "state.json"
    c = np.diag([1.0, 0.0, 0.0, 1 + 2e-10])
    save_state(DensityMatrix(np.einsum("ij,ijkl->kl", c, PAULI_PRODUCTS) / 4.0, (2, 2)), path)
    return str(path)


class TestAnalyze:
    def test_classically_correlated_text(self, capsys):
        assert main(["analyze", "--bd", "0,0,1"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(fields["i_z"]) == pytest.approx(1.0, abs=1e-12)
        assert float(fields["discord"]) == pytest.approx(0.0, abs=1e-9)
        assert float(fields["negativity"]) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_json(self, capsys):
        assert main(["analyze", "--bd", "1,-1,1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["negativity"] == pytest.approx(0.5, abs=1e-12)
        assert doc["mutual_info"] == pytest.approx(2.0, abs=1e-12)
        assert doc["e_r"] == pytest.approx(1.0, abs=1e-12)
        assert doc["all_complementary_nonzero"] is True

    def test_tiny_coefficient_is_nonzero(self, capsys):
        # negativity 2.5e-8 needs every c_k nonzero; i_z is 7e-15 bits, below
        # PPT_TOL, but the flag reads c3 = 1e-7 itself
        assert main(["analyze", "--bd", "0.5,-0.5,1e-7"]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        assert float(fields["negativity"]) > 0
        assert fields["all_complementary_nonzero"] == "true"

    def test_csv_format(self, capsys):
        assert main(["analyze", "--bd", "0.3,-0.3,0.3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert len(header) == len(values)
        assert "discord" in header

    def test_unphysical_rejected(self, capsys):
        assert main(["analyze", "--bd", "1,1,1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_finite_rejected(self, capsys):
        assert main(["analyze", "--bd", "nan,0,0"]) == 2
        assert "non-finite correlation triple" in capsys.readouterr().err

    def test_state_file_source(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(bell_diagonal(BellDiagonalParams(0.2, -0.1, 0.3)), path)
        assert main(["analyze", "--state", str(path)]) == 0
        out = capsys.readouterr().out
        assert "i_x" in out

    def test_state_file_within_state_tolerance(self, tmp_path, capsys):
        # c = (0, 0, 1 + 2e-10) has eigenvalue -5e-11, inside the state
        # tolerance, so the report must accept its outcome tables too
        assert main(["analyze", "--state", _save_overshooting_state(tmp_path)]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        assert float(fields["i_z"]) == pytest.approx(1.0, abs=1e-9)

    def test_negativity_agrees_with_e_r_within_state_tolerance(self, tmp_path, capsys):
        # both come from the one rounded triple: negativity is not read off
        # the state's own -5e-11 eigenvalue while e_r calls it separable
        assert main(["analyze", "--state", _save_overshooting_state(tmp_path)]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        assert (fields["negativity"], fields["e_r"]) == ("0", "0")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_state_file_rejected(self, bad, tmp_path, capsys):
        matrix_re = [0.25 if i % 5 == 0 else 0.0 for i in range(16)]
        matrix_re[1] = float(bad)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix_re": matrix_re, "matrix_im": [0.0] * 16}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", "--state", str(path)]) == 2
        assert "non-finite entry" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    # json's 2 and null went through tuple(), whose TypeError read as a malformed file
    @pytest.mark.parametrize("dims", [2, None])
    def test_state_file_dims_that_are_no_list_rejected(self, dims, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": dims, "matrix_re": _MIXED, "matrix_im": [0.0] * 16}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {dims_refusal(dims, (4, 4))}\n"

    # the antisymmetric pair overflowed m - m^dagger, which numpy warned of
    @pytest.mark.parametrize("sign, message", [(-1, "is not Hermitian"), (1, "negative eigenvalue")])
    def test_state_file_entries_near_the_float_maximum_rejected(self, sign, message, tmp_path, capsys):
        matrix_re = [0.25 if i % 5 == 0 else 0.0 for i in range(16)]
        matrix_re[1], matrix_re[4] = 1.7e308, sign * 1.7e308
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix_re": matrix_re, "matrix_im": [0.0] * 16}))
        with pytest.raises(ValueError, match=message):
            load_state(path)
        assert main(["analyze", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("bd", ["0.5,0.25,0.25", "1,-1,1"])
    def test_formats_agree(self, bd, capsys):
        def run(fmt):
            assert main(["analyze", "--bd", bd, "--format", fmt]) == 0
            return capsys.readouterr().out

        text = dict(line.split(" ", 1) for line in run("text").splitlines())
        header, values = run("csv").splitlines()
        assert dict(zip(header.split(","), values.split(","))) == text
        doc = json.loads(run("json"))
        assert list(doc) == list(text)
        for key, value in doc.items():
            if isinstance(value, bool):
                assert text[key] == str(value).lower()
            else:
                assert float(text[key]) == pytest.approx(value, rel=1e-11, abs=0)

    def test_tolerance_band_reads_separable(self, capsys):
        # lambda_max - 1/2 = 5e-13 is within PHYSICALITY_TOL: negativity, e_r
        # and the edss refusal read the one margin, and all call it separable
        assert main(["analyze", "--bd", "1,0,2e-12"]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        assert (fields["negativity"], fields["e_r"]) == ("0", "0")
        assert main(["edss", "--bd", "1,0,2e-12"]) == 0

    def test_e_r_next_to_the_boundary(self, capsys):
        # lambda_psi- = 0.5000005: 1 - H2(lambda) in floats cancels to 7.21200876797e-13
        assert main(["analyze", "--bd=-0.333334,-0.333334,-0.333334"]) == 0
        fields = dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())
        with mpmath.workdps(50):
            lam = (1 + 3 * mpmath.mpf(0.333334)) / 4
            ref = 1 + lam * mpmath.log(lam, 2) + (1 - lam) * mpmath.log(1 - lam, 2)
            assert float(abs(float(fields["e_r"]) - ref) / ref) < 1e-9

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.txt"
        assert main(["analyze", "--bd", "0,0,0", "--out", str(dest)]) == 0
        assert "i_x" in dest.read_text()
        assert capsys.readouterr().out == ""


class TestEdss:
    def test_entangled_input_refused(self, capsys):
        assert main(["edss", "--bd", "1,-1,1"]) == 2
        assert "entangled" in capsys.readouterr().err

    def test_auto_mode_checks_separability_once(self, monkeypatch, capsys):
        # edss_useful refuses an entangled input itself, so the command does not check first
        calls = []
        original = entanglement.is_separable_bd

        def counting(p):
            calls.append(p)
            return original(p)

        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "compcorr"]:
            if getattr(mod, "is_separable_bd", None) is original:
                monkeypatch.setattr(mod, "is_separable_bd", counting)
        assert main(["edss", "--bd", "0.3,-0.3,0.3"]) == 0
        assert "edss_useful true" in capsys.readouterr().out
        assert len(calls) == 1

    def test_non_finite_rejected(self, capsys):
        assert main(["edss", "--bd", "0.25,0.25,nan"]) == 2
        assert "non-finite correlation triple" in capsys.readouterr().err

    def test_entangled_input_refused_with_fixed_ancilla(self, capsys):
        assert main(["edss", "--bd", "1,-1,1", "--ancilla", "0,0"]) == 2
        assert "(1.0, -1.0, 1.0) is entangled" in capsys.readouterr().err

    def test_grid_flag_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["edss", "--bd", "0.3,-0.3,0.3", "--grid", "12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 12" in capsys.readouterr().err

    def test_not_useful_state(self, capsys):
        assert main(["edss", "--bd", "0.5,0,0.25", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # no witness, so no trace: only the decision's own keys
        assert doc == {"edss_useful": False, "witness": None, "r_a": 0.2, "s_c": 0.2}

    def test_not_useful_state_text(self, capsys):
        assert main(["edss", "--bd", "0.5,0,0.25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # no trace (no 'success true') and no line for the missing witness
        assert lines == ["edss_useful false", "r_a 0.2", "s_c 0.2"]

    def test_state_file_within_state_tolerance(self, tmp_path, capsys):
        # the state analyze accepts: its diagonal is rounded onto the
        # tetrahedron as the report rounds its triple, giving c = (0, 0, 1)
        assert main(["edss", "--state", _save_overshooting_state(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["edss_useful false", "r_a 1", "s_c 1"]

    def test_state_file_json(self, tmp_path, capsys):
        # the triple read off a state is stored as Python floats, so the
        # decision and every number serialise
        path = tmp_path / "state.json"
        save_state(bell_diagonal(BellDiagonalParams(0.2, -0.1, 0.4)), path)
        assert main(["edss", "--state", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edss_useful"] is True and doc["success"] is True
        assert "rotations" not in doc

    def test_locally_rotated_state(self, tmp_path, capsys):
        # analyze and edss read a state through the one route, the signed
        # SVD of T, and edss names the rotations it applied
        path, rho = _save_rotated_state(tmp_path, (0.3, -0.3, 0.3), 3)
        assert main(["edss", "--state", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        RA, s, RB = signed_svd(bloch_decompose(rho)[2])
        np.testing.assert_allclose(doc["rotations"], [RA, RB], rtol=0, atol=1e-15)
        assert main(["edss", "--bd=" + ",".join(repr(float(x)) for x in s), "--format", "json"]) == 0
        want = json.loads(capsys.readouterr().out)
        assert doc["edss_useful"] is want["edss_useful"] is True
        assert doc.pop("rotations") and doc == want
        assert main(["analyze", "--state", path]) == 0

    def test_useful_state(self, capsys):
        assert main(["edss", "--bd", "0.3,-0.3,0.3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edss_useful"] is True
        assert doc["success"] is True
        assert doc["send_step_ppt"] is True
        assert doc["witness"][:2] == [0.0, 0.0] and doc["r_a"] < doc["witness"][2] <= doc["s_c"]

    def test_useful_state_runs_the_protocol_once(self, monkeypatch, capsys):
        # the trace printed is the one that certified the witness
        calls = []
        original = edss.run_protocol

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(edss, "run_protocol", counting)
        monkeypatch.setattr(cli, "run_protocol", counting)
        assert main(["edss", "--bd", "0.3,-0.3,0.3"]) == 0
        assert "after_alice A|BC" in capsys.readouterr().out
        assert len(calls) == 1

    def test_witness_near_a_face_replays(self, capsys):
        assert main(["edss", "--bd", "0.3,-0.3,0.001", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["edss_useful"] is True
        ancilla = ",".join(repr(x) for x in doc["witness"])
        assert main(["edss", "--bd", "0.3,-0.3,0.001", "--ancilla", ancilla, "--format", "json"]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["success"] is True and replay["send_step_ppt"] is True

    def test_fixed_ancilla(self, capsys):
        args = ["edss", "--bd", "0.3,-0.3,0.3", "--ancilla", "1.3659098493868664,0,0.8", "--format", "json"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        assert doc["ancilla"] == [1.3659098493868664, 0.0, 0.8]

    def test_an_input_5e_13_outside_the_octahedron_is_traced_as_separable(self, capsys):
        # exact sum |c_k| = 1 + 5e-13, so entangled; analyze reads its
        # negativity as 0 and edss accepts it and prints a successful trace
        def fields(args):
            assert main(args) == 0
            return dict(line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines())

        edge = ["--bd=0.1,0.2,-0.7000000000005"]
        assert fields(["edss", *edge])["success"] == "true"
        assert fields(["analyze", *edge])["negativity"] == "0"

    def test_non_finite_ancilla_rejected(self, capsys):
        assert main(["edss", "--bd", "0.3,-0.3,0.3", "--ancilla", "nan,0"]) == 2
        assert "ancilla angles" in capsys.readouterr().err

    def test_text_extra_lines_formatted(self, capsys):
        assert main(["edss", "--bd", "0.3,-0.3,0.3", "--ancilla", "1.3659098493868664,0,0.8"]) == 0
        out = capsys.readouterr().out
        assert "success true" in out
        assert "ancilla 1.36590984939 0 0.8\n" in out

    def test_text_stage_lines(self, capsys):
        assert main(["edss", "--bd", "0,0,0", "--ancilla", "0,0"]) == 0
        out = capsys.readouterr().out
        for label in ("A|BC", "C|AB", "B|AC", "after_alice", "after_bob"):
            assert label in out


@pytest.mark.parametrize("command", ["analyze", "edss"])
def test_diagonal_state_prints_as_its_triple(command, tmp_path, capsys):
    # a Bell-diagonal state file keeps its own frame: the same text as --bd
    # of its diagonal (for edss, witness and trace included), although
    # --state runs through bd_params_of and --bd reads the triple as typed
    rng = np.random.default_rng(61)
    path = tmp_path / "state.json"
    for _ in range(30):
        p = random_bd_params(rng)
        if command == "edss" and max(p.eigenvalues) > 0.5:  # edss refuses an entangled input
            continue
        save_state(bell_diagonal(p), path)
        got = bd_params_of(bell_diagonal(p))[0]
        assert main([command, "--state", str(path)]) == 0
        out = capsys.readouterr().out
        assert main([command, f"--bd={got.c1!r},{got.c2!r},{got.c3!r}"]) == 0
        assert out == capsys.readouterr().out


_MIXED = (np.eye(4) / 4).ravel().tolist()  # I/4, a valid matrix for dims (2, 2)


@pytest.mark.parametrize("command", ["analyze", "edss"])
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dims": [2, 2], "matrix_re": [0.25] * 16}, "lacks the key 'matrix_im'"),
        ([1, 2], "JSON object"),
        ({"dims": [], "matrix_re": [1.0], "matrix_im": [0.0]}, "factor dims () must name at least one factor"),
        ({"dims": [2.9, 2], "matrix_re": _MIXED, "matrix_im": [0.0] * 16}, "factor dims (2.9, 2)"),
        ({"dims": [float("inf"), 2], "matrix_re": _MIXED, "matrix_im": [0.0] * 16}, "factor dims (inf, 2)"),
        ({"dims": [2, 2], "matrix_re": _MIXED, "matrix_im": [0.0]}, "malformed state file"),
        # json's bools, strings and ints that no float holds are not read as numbers
        ({"dims": [2, 2], "matrix_re": [0.25, False] + _MIXED[2:], "matrix_im": [0.0] * 16}, "entry False is not a"),
        ({"dims": [2, 2], "matrix_re": ["0.25"] + _MIXED[1:], "matrix_im": [0.0] * 16}, "entry '0.25' is not a"),
        ({"dims": [2, 2], "matrix_re": [10**400] + _MIXED[1:], "matrix_im": [0.0] * 16}, "entry 100000000000000000...0"),
        ({"dims": [2, 2], "matrix_re": _MIXED, "matrix_im": [True] + [0.0] * 15}, "entry True is not a"),
        ({"dims": [10**400, 2], "matrix_re": _MIXED, "matrix_im": [0.0] * 16}, "factor dims (1000"),
        ({"dims": ["2", 2], "matrix_re": _MIXED, "matrix_im": [0.0] * 16}, "factor dims ('2', 2)"),
        # a 4x4 matrix of one factor is refused when it is read, not as "expected a two-qubit state"
        ({"dims": [4], "matrix_re": _MIXED, "matrix_im": [0.0] * 16}, dims_refusal((4,), (4, 4))),
    ],
)
def test_malformed_state_file_rejected(command, doc, message, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--state", str(path)]) == 2
    assert message in capsys.readouterr().err


class TestSweep:
    def test_deterministic_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--grid", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("c1,c2,c3,")
        assert "rows" in capsys.readouterr().err

    def test_ancilla_grid_flag_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--ancilla-grid", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ancilla-grid 6" in capsys.readouterr().err


class TestVerify:
    def test_passes(self, capsys):
        assert main(["verify", "--seed", "5", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_zero_samples_rejected(self, capsys):
        assert main(["verify", "--samples", "0"]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed -1 must be at least 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        "analyze --bd -0.5,0.25,0.25",
        "analyze --bd -.5,0.25,0.25 --format json",
        "edss --bd 0.3,0.3,-0.3 --ancilla -1,0,0.5",
        "edss --bd -0.3,0.3,0.3",
        # prefixes that argparse accepts for --bd and --ancilla
        "analyze --b -0.5,0.25,0.25",
        "edss --bd 0.3,-0.3,0.3 --anc -1,0,0.5",
    ],
)
def test_a_value_with_a_leading_minus_reads_as_with_equals(argv, capsys):
    full = argv.replace("--b -", "--bd -").replace("--anc -", "--ancilla -")
    assert main(full.replace("--bd -", "--bd=-").replace("--ancilla -", "--ancilla=-").split()) == 0
    want = capsys.readouterr()
    assert want.out
    assert main(argv.split()) == 0
    assert capsys.readouterr() == want


def test_a_missing_bd_value_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bd", "--format", "json"])
    assert exc.value.code == 2
    assert "argument --bd: expected one argument" in capsys.readouterr().err


def test_runtime_imports_numpy_only(tmp_path):
    # every command, in a fresh interpreter, imports none of the packages
    # that only the tests and benchmarks may use
    script = f"""
import json, sys
from compcorr.cli import main
for argv in (["analyze", "--bd", "0.3,-0.3,0.3"], ["edss", "--bd", "0.3,-0.3,0.3"],
             ["sweep", "--grid", "3"], ["verify", "--samples", "10"]):
    assert main(argv + ["--out", {str(tmp_path / "out.txt")!r}]) == 0, argv
print(json.dumps([m for m in ("scipy", "sympy", "mpmath", "hypothesis", "pytest") if m in sys.modules]))
"""
    src = str(Path(compcorr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == []
