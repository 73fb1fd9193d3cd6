"""Byte comparison of CLI documents against the saved ones in tests/golden/.

Each saved document echoes its inputs, so the command line is rebuilt from the
document itself: `mzv <indices> --precision p` or
`polylog <indices> --z=<z> --precision p`.  The documents were written by the
CLI (`tateperiods ... --out tests/golden/<name>.json`) before the fixed-point
chain-sum kernel replaced the mpf loops; they are not regenerated, so a change
of any printed digit fails here.
"""

import json
from pathlib import Path

import pytest

from tateperiods import mzv
from tateperiods.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.glob("*.json"))


def argv_of(doc: dict) -> list[str]:
    result = doc["result"]
    argv = [doc["command"], *(str(k) for k in result["indices"])]
    if doc["command"] == "polylog":
        argv.append(f"--z={result['z']}")
    return argv + ["--precision", str(result["precision"])]


def test_golden_set_covers_both_commands():
    commands = {json.loads((GOLDEN / name).read_text())["command"] for name in CASES}
    assert commands == {"mzv", "polylog"}
    assert len(CASES) == 32


@pytest.mark.parametrize("name", CASES)
def test_golden_document(name, tmp_path, monkeypatch, capsys):
    # a fresh memo, as in a new CLI process
    monkeypatch.setattr(mzv, "_MZV_CACHE", {})
    expected = (GOLDEN / name).read_bytes()
    out = tmp_path / name
    assert main(argv_of(json.loads(expected)) + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == expected
