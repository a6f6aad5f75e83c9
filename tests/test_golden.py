"""Pinned stdout of `analyze`, `edss`, `sweep` and `verify`.

`golden_outputs.json` maps each command line to the stdout it printed when
captured. Text, CSV and `edss` JSON must match byte for byte; `analyze` JSON
prints floats with 17 significant digits, so its numbers are compared to
1e-15 and everything else in it exactly. A deliberate change of stdout
updates the file and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from compcorr.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    want = GOLDEN[command]
    if command.startswith("analyze") and command.endswith("json"):
        got, want = json.loads(out), json.loads(want)
        assert list(got) == list(want)
        for key, value in want.items():
            if isinstance(value, float):
                assert got[key] == pytest.approx(value, rel=0, abs=1e-15), key
            else:
                assert got[key] == value, key
    else:
        assert out == want
