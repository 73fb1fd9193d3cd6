import json
from fractions import Fraction

import mpmath as mp
import pytest

from tateperiods.cli import main, period_series_from_doc
from tateperiods.curves import (
    basic_graph,
    contract_edge,
    expand_vertex,
    graph_from_dict,
    graph_to_dict,
    residue_assignment,
)
from tateperiods.elliptic import iterated_eisenstein, qseries_eval
from tateperiods.periods import assemble_period


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def graph_file(tmp_path, g, x=None, growth=None, name="graph.json"):
    doc = graph_to_dict(g, x)
    if growth is not None:
        doc["growth"] = growth
    return write_json(tmp_path, name, doc)


def test_mzv_document(capsys):
    doc = run_json(capsys, ["mzv", "2", "--precision", "30"])
    assert doc["result"]["value"] == "1.644934066848226436472415167"
    assert doc["result"]["indices"] == [2]
    assert doc["meta"]["package"] == "tateperiods"


def test_mzv_rejects_inadmissible(capsys):
    code, _out, err = run(capsys, ["mzv", "1"])
    assert code == 3
    assert "admissible" in err


def test_polylog_log2(capsys):
    doc = run_json(capsys, ["polylog", "1", "--z", "1/2", "--precision", "30"])
    with mp.workdps(40):
        value = mp.mpf(doc["result"]["value"]["re"])
        assert abs(value - mp.log(2)) < mp.mpf(10) ** -25


def test_polylog_exit_codes_outside_the_disc(capsys):
    code, _out, err = run(capsys, ["polylog", "2", "--z", "5"])
    assert code == 3, err
    assert "unit disc" in err
    code, _out, err = run(capsys, ["polylog", "2", "--z", "4/5"])
    assert code == 4, err


def test_associator_weight_two(capsys):
    doc = run_json(capsys, ["associator", "--weight", "2"])
    terms = doc["result"]["terms"]
    assert terms["x0 x1"] == "-zeta(2)"
    assert terms["x1 x0"] == "zeta(2)"
    assert terms[""] == "1"


def test_transport_matches_associator(capsys):
    doc = run_json(capsys, ["transport", "--weight", "2", "--precision", "25"])
    with mp.workdps(35):
        got = mp.mpf(doc["result"]["terms"]["x0 x1"]["re"])
        assert abs(got + mp.pi ** 2 / 6) < mp.mpf(10) ** -20


def test_eisenstein_document(capsys):
    doc = run_json(capsys, ["eisenstein", "--weight", "4", "--order", "3"])
    terms = doc["result"]["series"]["terms"]
    assert terms["0,0"] == "1/240"
    assert terms["1,0"] == "1"
    assert terms["2,0"] == "9"
    assert terms["3,0"] == "28"


def test_eval_q_matches_direct(capsys):
    doc = run_json(capsys, ["eval-q", "4", "--q0", "1/10", "--order", "30",
                            "--precision", "15"])
    got = mp.mpc(mp.mpf(doc["result"]["value"]["re"]), mp.mpf(doc["result"]["value"]["im"]))
    direct = qseries_eval(iterated_eisenstein((4,), 30), mp.mpf(1) / 10, 15)
    assert abs(got - direct) < mp.mpf(10) ** -12


def test_graph_validate(capsys, tmp_path):
    path = graph_file(tmp_path, basic_graph(2))
    doc = run_json(capsys, ["graph", "validate", "--graph", path])
    assert doc["result"]["report"] == {"genus": 1, "n": 2, "stable": True, "trivalent": True}


def test_graph_validate_rejects_fractional_numbering(capsys, tmp_path):
    doc = graph_to_dict(basic_graph(2))
    doc["numbering"]["t1"] = 1.5
    code, _out, err = run(capsys, ["graph", "validate", "--graph", write_json(tmp_path, "g.json", doc)])
    assert code == 2, err


def test_graph_validate_rejects_non_string_endpoints(capsys, tmp_path):
    for field, key, value in (("edges", "l", [["v0"], "v0"]), ("tails", "t1", ["v0"])):
        doc = graph_to_dict(basic_graph(2))
        doc[field][key] = value
        code, _out, err = run(capsys, ["graph", "validate", "--graph", write_json(tmp_path, "g.json", doc)])
        assert code == 2, err
        assert "Traceback" not in err


def test_graph_expand_round_trip(capsys, tmp_path):
    g = basic_graph(3)
    path = graph_file(tmp_path, g)
    out = str(tmp_path / "expanded.json")
    code, _o, err = run(capsys, ["graph", "expand", "v0", "t1", "t2",
                                 "--graph", path, "--out", out])
    assert code == 0, err
    saved = json.loads((tmp_path / "expanded.json").read_text())
    back, _x = graph_from_dict(saved["result"]["graph"])
    assert back == expand_vertex(g, "v0", ("t1", "t2"))


def test_graph_parse_error_location(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [')
    code, _out, err = run(capsys, ["graph", "validate", "--graph", str(bad)])
    assert code == 2
    assert "bad.json" in err


def test_missing_file_is_parse_error(capsys, tmp_path):
    code, _out, err = run(capsys, ["graph", "validate", "--graph",
                                   str(tmp_path / "none.json")])
    assert code == 2


def test_moebius_fix_single_edge(capsys, tmp_path):
    x = {"e": "2", "-e": "0", "t1": "1", "t2": "-1", "l": "1", "-l": "3"}
    path = graph_file(tmp_path, basic_graph(2), x=x)
    doc = run_json(capsys, ["moebius", "fix", "e", "--graph", path, "--order", "4"])
    result = doc["result"]
    assert result["attracting"]["terms"] == {"0,0": "2"}
    assert result["repelling"]["terms"] == {}
    assert result["multiplier"]["variables"] == ["y_e", "y_l"]
    assert result["multiplier"]["terms"] == {"1,0": "1"}


def contraction_fixture(tmp_path):
    g = expand_vertex(basic_graph(3), "v0", ("t1", "t2"))
    x = {"e": "0", "e0": "2", "t3": "1", "-e": "3", "l": "1", "-l": "2",
         "-e0": "0", "t1": "3", "t2": "-1"}
    return graph_file(tmp_path, g, x=x, growth=[["expand", "v0", ["t1", "t2"]]])


def test_check_contraction(capsys, tmp_path):
    path = contraction_fixture(tmp_path)
    doc = run_json(capsys, ["check", "contraction", "--graph", path,
                            "--order", "6", "--", "-e0", "t1", "t2"])
    result = doc["result"]
    assert result["passes"] is True
    assert result["parameter"] == "y_e0"
    assert result["unit_constant_term"] == "-16/3"


def test_period_assemble_round_trip(capsys, tmp_path):
    gpath = graph_file(tmp_path, basic_graph(2))
    ppath = write_json(tmp_path, "path.json", [["rotate", "e", 1], ["fuse", "e"]])
    out = str(tmp_path / "period.json")
    code, _o, err = run(capsys, ["period", "assemble", "--graph", gpath,
                                 "--path", ppath, "--weight", "3", "--order", "8",
                                 "--out", out])
    assert code == 0, err
    doc = json.loads((tmp_path / "period.json").read_text())
    assert doc["result"]["membership"]["passes"]
    reparsed = period_series_from_doc(doc)
    ra = residue_assignment(basic_graph(2), [], 3)
    direct = assemble_period(ra, [("rotate", "e", 1), ("fuse", "e")], 3, 8)
    assert reparsed.series == direct.series
    assert reparsed.fusing_parameters == direct.fusing_parameters
    assert reparsed.graph == direct.graph


def test_period_assemble_with_growth(capsys, tmp_path):
    gpath = contraction_fixture(tmp_path)
    ppath = write_json(tmp_path, "path.json",
                       [["rotate", "e0", 1], ["associator", "v2", ["t1", "t2"]]])
    doc = run_json(capsys, ["period", "assemble", "--graph", gpath,
                            "--path", ppath, "--weight", "3", "--order", "8"])
    assert doc["result"]["letters"] == ["Xt1", "Xt2", "T", "A"]
    assert doc["result"]["membership"]["passes"]


def test_period_eval(capsys, tmp_path):
    gpath = graph_file(tmp_path, basic_graph(2))
    ppath = write_json(tmp_path, "path.json", [["rotate", "e", 1], ["fuse", "e"]])
    out = str(tmp_path / "period.json")
    assert main(["period", "assemble", "--graph", gpath, "--path", ppath,
                 "--weight", "3", "--order", "8", "--out", out]) == 0
    capsys.readouterr()
    apath = write_json(tmp_path, "assign.json", {"s": {"s_e": "1/10"}})
    doc = run_json(capsys, ["period", "eval", out, "--assign", apath,
                            "--precision", "20"])
    term = doc["result"]["terms"]["A T"]
    with mp.workdps(30):
        assert abs(mp.mpf(term["re"]) - mp.log(10)) < mp.mpf(10) ** -15
        assert abs(mp.mpf(term["im"]) - mp.pi) < mp.mpf(10) ** -15


def test_period_eval_checks_explicit_q0(capsys, tmp_path):
    gpath = graph_file(tmp_path, basic_graph(2))
    ppath = write_json(tmp_path, "path.json", [["rotate", "e", 1]])
    out = str(tmp_path / "period.json")
    assert main(["period", "assemble", "--graph", gpath, "--path", ppath,
                 "--weight", "2", "--order", "8", "--out", out]) == 0
    capsys.readouterr()
    for q0 in ("2/5", 0):
        apath = write_json(tmp_path, "assign.json", {"y": {"e": "1/10"}, "q0": q0})
        code, _out, err = run(capsys, ["period", "eval", out, "--assign", apath,
                                       "--precision", "15"])
        assert code == 3, err
        assert "analytic regime" in err


def test_period_eval_unbound_is_precondition(capsys, tmp_path):
    gpath = graph_file(tmp_path, basic_graph(2))
    ppath = write_json(tmp_path, "path.json", [["fuse", "e"]])
    out = str(tmp_path / "period.json")
    assert main(["period", "assemble", "--graph", gpath, "--path", ppath,
                 "--weight", "3", "--order", "8", "--out", out]) == 0
    capsys.readouterr()
    code, _out, err = run(capsys, ["period", "eval", out, "--precision", "15"])
    assert code == 3
    assert "binding" in err


def test_period_assemble_refuses_cycle_edges(capsys, tmp_path):
    # the loop edge l and the edge e0 form the cycle; e1 hangs off it
    growth = [["contract", "e"], ["expand", "v0", ["l", "t1"]], ["expand", "v0", ["t2", "t3"]]]
    g = expand_vertex(contract_edge(basic_graph(3), "e"), "v0", ("l", "t1"))
    gpath = graph_file(tmp_path, expand_vertex(g, "v0", ("t2", "t3")), growth=growth)
    for moves, expected in (([["fuse", "l"]], 3), ([["fuse", "e0"]], 3),
                            ([["loop", 1]], 3), ([["fuse", "e1"]], 0)):
        ppath = write_json(tmp_path, "path.json", moves)
        code, _out, err = run(capsys, ["period", "assemble", "--graph", gpath,
                                       "--path", ppath, "--weight", "3"])
        assert code == expected, (moves, err)


# malformed inputs that must end in a parse error (exit 2), not a Python exception
# or a "nan" document; "usage" cases are refused by the argument parser itself
MALFORMED = {
    "assignment-section-not-a-mapping": ("assign", {"y": [1]}),
    "letters-not-a-list": ("document", {"letters": 5}),
    "fusing-parameters-not-a-list": ("document", {"fusing_parameters": 5}),
    "term-not-a-string": ("document", {"terms": {"": 1}}),
    "term-with-zero-denominator": ("document", {"terms": {"": "7/0 * zeta(2)"}}),
    "growth-branches-not-names": ("growth", [["expand", "v0", [1, 2]]]),
    "polylog-z-nan": ("argv", ["polylog", "2", "--z", "nan"]),
    "eval-q-q0-nan": ("argv", ["eval-q", "4", "--q0", "nan", "--order", "10"]),
    "eval-q-q0-nanj": ("argv", ["eval-q", "4", "--q0", "nanj", "--order", "10"]),
    "binding-json-nan": ("assign", {"y": {"e": float("nan")}}),
    "binding-pair-inf": ("assign", {"y": {"e": [0, "inf"]}}),
    "binding-pair-bool": ("assign", {"y": {"e": [True, False]}}),
    "growth-not-a-list": ("growth", 7),
    "contraction-branch-like-an-option": (
        "usage", ["check", "contraction", "-e0", "t1", "t2", "--graph", "graph.json"]),
}


@pytest.mark.parametrize("kind, change", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_input_is_parse_error(capsys, tmp_path, kind, change):
    gpath = graph_file(tmp_path, basic_graph(2), growth=change if kind == "growth" else None)
    ppath = write_json(tmp_path, "path.json", [["rotate", "e", 1]])
    if kind == "usage":
        with pytest.raises(SystemExit) as exc:
            main(change)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        return
    argv = change if kind == "argv" else ["period", "assemble", "--graph", gpath,
                                          "--path", ppath, "--weight", "2"]
    if kind in ("assign", "document"):
        out = tmp_path / "period.json"
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        if kind == "document":
            doc["result"].update(change)
        apath = write_json(tmp_path, "assign.json", change if kind == "assign" else {})
        argv = ["period", "eval", write_json(tmp_path, "doc.json", doc), "--assign", apath]
    code, _out, err = run(capsys, argv)
    assert code == 2, err
    assert err.startswith("parse error")

def test_caps(capsys):
    assert run(capsys, ["mzv", "2", "--precision", "200"])[0] == 3
    assert run(capsys, ["associator", "--weight", "9"])[0] == 3
    assert run(capsys, ["eisenstein", "--weight", "4", "--order", "300"])[0] == 3


def test_selftest_deterministic(capsys):
    code1, out1, _e = run(capsys, ["selftest"])
    code2, out2, _e = run(capsys, ["selftest"])
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["passed"] is True
    assert doc["meta"]["seed"] == 0


def test_determinism_to_file(capsys, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["transport", "--weight", "2", "--precision", "20", "--out", a]) == 0
    assert main(["transport", "--weight", "2", "--precision", "20", "--out", b]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
