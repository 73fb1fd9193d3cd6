"""Byte comparison of CLI documents against the saved ones in tests/golden/.

An `mzv` or `polylog` document echoes its inputs, so its command line is
rebuilt from the document itself: `mzv <indices> --precision p` or
`polylog <indices> --z=<z> --precision p`.  Documents of the exact-core
commands read input files from tests/golden/inputs/; their command lines are
listed in FILE_CASES and run from tests/golden/, because `period eval` echoes
the relative path of the document it evaluates (the saved `period assemble`
golden).  The documents were written by the CLI
(`tateperiods ... --out tests/golden/<name>.json`) before the code they
guard was rewritten: the MZV documents before the fixed-point chain-sum
kernel, the others before the lean exact core.  They are not regenerated, so
a change of any printed byte fails here.
"""

import json
from pathlib import Path

import pytest

from tateperiods import mzv
from tateperiods.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.glob("*.json"))
FILE_CASES = {
    "period_assemble_w4.json": ["period", "assemble", "--graph", "inputs/graph_3marks.json",
                                "--path", "inputs/path_w4.json", "--weight", "4", "--order", "8"],
    "period_eval_p20.json": ["period", "eval", "period_assemble_w4.json",
                             "--assign", "inputs/assign_p20.json", "--precision", "20"],
    "moebius_fix_o8.json": ["moebius", "fix", "--graph", "inputs/graph_3marks.json",
                            "--order", "8", "--", "-e0", "e", "l"],
    "check_contraction_o8.json": ["check", "contraction", "--graph", "inputs/graph_3marks.json",
                                  "--order", "8", "--", "-e0", "t1", "t2"],
    "eis_int_4_6_o40.json": ["eis-int", "4", "6", "--order", "40"],
    "eval_q_4_6_o40_p20.json": ["eval-q", "4", "6", "--q0", "1/10", "--order", "40",
                                "--precision", "20"],
}


def argv_of(name: str, doc: dict) -> list[str]:
    if name in FILE_CASES:
        return FILE_CASES[name]
    result = doc["result"]
    argv = [doc["command"], *(str(k) for k in result["indices"])]
    if doc["command"] == "polylog":
        argv.append(f"--z={result['z']}")
    return argv + ["--precision", str(result["precision"])]


def test_golden_set_covers_the_commands():
    commands = {json.loads((GOLDEN / name).read_text())["command"] for name in CASES}
    assert commands == {"mzv", "polylog", "period assemble", "period eval", "moebius fix",
                        "check contraction", "eis-int", "eval-q"}
    assert set(FILE_CASES) <= set(CASES)
    assert len(CASES) == 38


@pytest.mark.parametrize("name", CASES)
def test_golden_document(name, tmp_path, monkeypatch, capsys):
    # a fresh memo, as in a new CLI process
    monkeypatch.setattr(mzv, "_MZV_CACHE", {})
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / name).read_bytes()
    out = tmp_path / name
    argv = argv_of(name, json.loads(expected))
    cut = argv.index("--") if "--" in argv else len(argv)  # branches may start with '-'
    assert main(argv[:cut] + ["--out", str(out)] + argv[cut:]) == 0
    capsys.readouterr()
    assert out.read_bytes() == expected
