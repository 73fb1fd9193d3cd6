"""Byte comparison of CLI documents against the saved ones in tests/golden/.

An `mzv` or `polylog` document echoes its inputs, so its command line is
rebuilt from the document itself: `mzv <indices> --precision p` or
`polylog <indices> --z=<z> --precision p`.  The command lines of all other
documents are listed in FILE_CASES and run from tests/golden/: they read
input files from tests/golden/inputs/, and `period eval` echoes the relative
path of the document it evaluates (the saved `period assemble` golden).  The
documents were written by the CLI (`tateperiods ... --out
tests/golden/<name>.json`) before the code they guard was rewritten: the MZV
documents before the fixed-point chain-sum kernel, the exact-core ones before
the lean exact core, and `selftest`, `associator`, `eisenstein` and `graph`
before the second MZV route gave way to relation checks.  They are not
regenerated, so a change of any printed byte fails here.  Every leaf command
of the parser has a golden except `transport`, whose documents print the
truncation noise of words whose exact coefficient is 0.
"""

import argparse
import json
from pathlib import Path

import pytest

from tateperiods import mzv
from tateperiods.cli import build_parser, main

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
    "selftest.json": ["selftest"],
    "associator_w3.json": ["associator", "--weight", "3"],
    "eisenstein_4_o20.json": ["eisenstein", "--weight", "4", "--order", "20"],
    "graph_validate_3marks.json": ["graph", "validate", "--graph", "inputs/graph_3marks.json"],
    "graph_expand_v0_t1_t2.json": ["graph", "expand", "v0", "t1", "t2",
                                   "--graph", "inputs/graph_basic3.json"],
}


def argv_of(name: str, doc: dict) -> list[str]:
    if name in FILE_CASES:
        return FILE_CASES[name]
    result = doc["result"]
    argv = [doc["command"], *(str(k) for k in result["indices"])]
    if doc["command"] == "polylog":
        argv.append(f"--z={result['z']}")
    return argv + ["--precision", str(result["precision"])]


def leaf_commands(parser: argparse.ArgumentParser, prefix: str = ""):
    """Command names as documents print them, e.g. "mzv" or "graph expand"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, f"{prefix}{name} ")
            return
    yield prefix.strip()


def test_golden_set_covers_the_commands():
    commands = {json.loads((GOLDEN / name).read_text())["command"] for name in CASES}
    assert commands == set(leaf_commands(build_parser())) - {"transport"}
    assert set(FILE_CASES) <= set(CASES)


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
