"""Batch command-line front end.

One invocation runs one job and writes one self-describing JSON document:
inputs are echoed, truncation and precision are recorded, and the seed is
included when given.  Output is deterministic for a fixed configuration (no
timestamps).  Numeric values print two digits short of the working precision,
dropping the two least certain digits.

Exit codes: 2 for malformed input, 3 for precondition violations, 4 when a
numeric budget cannot be met.  Desk-scale caps: weight <= 6, order <= 200,
precision <= 100.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import mpmath as mp

from . import __version__
from .curves import (
    StableGraph,
    compose_path,
    contraction_parameter_check,
    expand_vertex,
    fixed_points_multiplier,
    graph_from_dict,
    graph_to_dict,
    residue_assignment,
    validate_graph,
)
from .elliptic import eisenstein_series, iterated_eisenstein, qseries_eval, word_symbol
from .errors import NumericBudgetError, ParseError, PreconditionError
from .kz import TangentialPoint, associator_connection, drinfeld_associator, numeric_transport_oracle
from .mzv import KZ_LETTERS, X0, X1, mzv_numeric, polylog_numeric
from .ncalg import NCSeries
from .periodring import PeriodElem, parse_period, render_period, to_mp
from .periods import (
    PathSpec,
    PeriodSeries,
    assemble_period,
    numeric_evaluate_period,
    path_from_list,
    ring_membership_check,
)

MAX_WEIGHT = 6
MAX_ORDER = 200
MAX_PRECISION = 100


def _check_caps(weight=None, order=None, precision=None) -> None:
    if weight is not None and not 0 <= weight <= MAX_WEIGHT:
        raise PreconditionError(f"weight must be in 0..{MAX_WEIGHT}")
    if order is not None and not 0 <= order <= MAX_ORDER:
        raise PreconditionError(f"order must be in 0..{MAX_ORDER}")
    if precision is not None and not 1 <= precision <= MAX_PRECISION:
        raise PreconditionError(f"precision must be in 1..{MAX_PRECISION}")


def _digits(precision: int) -> int:
    return max(precision - 2, 1)


def _real_str(v, precision: int) -> str:
    with mp.workdps(precision + 15):
        return mp.nstr(mp.mpf(v), _digits(precision))


def _complex_doc(v, precision: int) -> dict:
    d = _digits(precision)
    with mp.workdps(precision + 15):
        v = mp.mpc(v)
        return {"re": mp.nstr(v.real, d), "im": mp.nstr(v.imag, d)}


def _parse_scalar(value, what: str):
    """An int, float, [re, im] pair or string (a fraction, else a complex) as a
    Fraction or a finite mpmath number; anything else is a ParseError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    number = None
    try:
        if isinstance(value, float):
            number = mp.mpf(value)
        elif (isinstance(value, list) and len(value) == 2
              and not any(isinstance(v, bool) for v in value)):
            number = mp.mpc(float(value[0]), float(value[1]))
        elif isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                number = mp.mpc(complex(value.replace("i", "j")))
    except (TypeError, ValueError):
        pass
    if number is None or not mp.isfinite(number):
        raise ParseError(f"bad {what}: {value!r}")
    return number


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), location=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", location=f"{path}:{exc.lineno}:{exc.colno}") from exc


def _load_graph(path: str):
    data = _load_json(path)
    graph, x = graph_from_dict(data)
    moves = data.get("growth", []) if isinstance(data, dict) else []
    if not isinstance(moves, list):
        raise ParseError(f"growth must be a list of moves, got {moves!r}", location=path)
    growth = []
    for move in moves:
        if not isinstance(move, list) or not move:
            raise ParseError(f"bad growth move {move!r}", location=path)
        if (move[0] == "expand" and len(move) == 3 and isinstance(move[2], list)
                and all(isinstance(h, str) for h in move[2])):
            growth.append(("expand", move[1], tuple(move[2])))
        elif move[0] == "contract" and len(move) == 2:
            growth.append(("contract", move[1]))
        else:
            raise ParseError(f"bad growth move {move!r}", location=path)
    return graph, x, growth


def _require_x(x, path: str):
    if x is None:
        raise ParseError("graph file must carry branch coordinates under 'x'", location=path)
    return x


def _series_terms(series: NCSeries) -> dict:
    return {" ".join(w): render_period(c) for w, c in sorted(series.coeffs.items())}


def _numeric_terms(series: NCSeries, precision: int) -> dict:
    return {" ".join(w): _complex_doc(c, precision) for w, c in sorted(series.coeffs.items())}


def _multiseries_doc(s) -> dict:
    terms = {",".join(str(e) for e in key): str(c) for key, c in sorted(s.terms.items())}
    return {"variables": list(s.variables), "trunc": s.trunc, "terms": terms}


def period_series_to_doc(p: PeriodSeries, growth, path_moves) -> dict:
    return {
        "graph": graph_to_dict(p.graph),
        "growth": [list(m[:2]) + [list(m[2])] if m[0] == "expand" else list(m) for m in growth],
        "path": [list(m[:2]) + ([list(m[2])] if m[0] == "associator" else list(m[2:]))
                 for m in path_moves],
        "letters": list(p.series.letters),
        "weight": p.weight,
        "order": p.order,
        "fusing_parameters": list(p.fusing_parameters),
        "terms": _series_terms(p.series),
    }


def period_series_from_doc(data) -> PeriodSeries:
    """Re-parse a saved period document; inverse of period_series_to_doc."""
    if not isinstance(data, dict):
        raise ParseError("a period document must be a mapping")
    if "result" in data and "graph" not in data:
        data = data["result"]
        if not isinstance(data, dict):
            raise ParseError("a period document must be a mapping")
    for key in ("graph", "letters", "weight", "order", "terms"):
        if key not in data:
            raise ParseError(f"period document missing field {key!r}")
    graph, _ = graph_from_dict(data["graph"])
    for key in ("letters", "fusing_parameters"):
        if not isinstance(data.get(key, []), list):
            raise ParseError(f"{key} in a period document must be a list")
    letters = tuple(data["letters"])
    weight = data["weight"]
    if not isinstance(weight, int) or weight < 0:
        raise ParseError("bad weight in period document")
    coeffs = {}
    terms = data["terms"]
    if not isinstance(terms, dict):
        raise ParseError("period terms must be a mapping")
    for key, text in terms.items():
        word = tuple(key.split())
        if not set(word) <= set(letters):
            raise ParseError(f"term word {key!r} uses letters outside the declared alphabet")
        coeffs[word] = parse_period(text)
    series = NCSeries(letters, weight, PeriodElem.one(), coeffs)
    return PeriodSeries(graph=graph, weight=weight, order=data["order"], series=series,
                        fusing_parameters=tuple(data.get("fusing_parameters", ())))


def _cmd_mzv(args) -> dict:
    _check_caps(precision=args.precision)
    value = mzv_numeric(tuple(args.indices), args.precision)
    return {"indices": list(args.indices), "precision": args.precision,
            "value": _real_str(value, args.precision)}


def _cmd_polylog(args) -> dict:
    _check_caps(precision=args.precision)
    with mp.workdps(args.precision + 15):
        z = to_mp(_parse_scalar(args.z, "argument z"))
    value = polylog_numeric(tuple(args.indices), z, args.precision)
    return {"indices": list(args.indices), "z": args.z, "precision": args.precision,
            "value": _complex_doc(value, args.precision)}


def _cmd_associator(args) -> dict:
    _check_caps(weight=args.weight)
    series = drinfeld_associator(args.weight)
    return {"weight": args.weight, "letters": list(KZ_LETTERS),
            "terms": _series_terms(series)}


def _transport_0_to_1(weight: int, precision: int) -> NCSeries:
    """Numeric transport of the two-point connection, unit tangents 0 -> 1."""
    start = TangentialPoint(base=Fraction(0), direction=Fraction(1))
    end = TangentialPoint(base=Fraction(1), direction=Fraction(-1))
    return numeric_transport_oracle(associator_connection(weight), start, end, weight, precision)


def _cmd_transport(args) -> dict:
    _check_caps(weight=args.weight, precision=args.precision)
    series = _transport_0_to_1(args.weight, args.precision)
    return {"weight": args.weight, "precision": args.precision,
            "letters": list(KZ_LETTERS), "terms": _numeric_terms(series, args.precision)}


def _qseries_doc(s) -> dict:
    terms = {f"{n},{m}": render_period(c) for (n, m), c in sorted(s.coeffs.items())}
    return {"order": s.order, "terms": terms, "term_key": "q-power,tau-power"}


def _cmd_eisenstein(args) -> dict:
    _check_caps(order=args.order)
    series = eisenstein_series(args.weight, args.order)
    return {"weight": args.weight, "order": args.order, "series": _qseries_doc(series)}


def _cmd_eis_int(args) -> dict:
    _check_caps(order=args.order)
    series = iterated_eisenstein(tuple(args.indices), args.order)
    return {"indices": list(args.indices), "order": args.order, "series": _qseries_doc(series)}


def _cmd_eval_q(args) -> dict:
    _check_caps(order=args.order, precision=args.precision)
    with mp.workdps(args.precision + 15):
        q0 = to_mp(_parse_scalar(args.q0, "q0"))
    series = iterated_eisenstein(tuple(args.indices), args.order)
    value = qseries_eval(series, q0, args.precision)
    return {"indices": list(args.indices), "order": args.order, "q0": args.q0,
            "precision": args.precision, "value": _complex_doc(value, args.precision)}


def _cmd_graph_validate(args) -> dict:
    graph, x, _growth = _load_graph(args.graph)
    report = validate_graph(graph)
    return {"graph": graph_to_dict(graph, x), "report": report}


def _cmd_graph_expand(args) -> dict:
    graph, x, _growth = _load_graph(args.graph)
    expanded = expand_vertex(graph, args.vertex, (args.branches[0], args.branches[1]))
    return {"vertex": args.vertex, "pulled": list(args.branches),
            "graph": graph_to_dict(expanded, x)}


def _cmd_moebius_fix(args) -> dict:
    _check_caps(order=args.order)
    graph, x, _growth = _load_graph(args.graph)
    from .curves import SeriesRing

    ring = SeriesRing.for_graph(graph, _require_x(x, args.graph), args.order)
    m = compose_path(list(args.branches), ring)
    attracting, repelling, multiplier = fixed_points_multiplier(m)
    return {"path": list(args.branches), "order": args.order,
            "attracting": _multiseries_doc(attracting),
            "repelling": _multiseries_doc(repelling),
            "multiplier": _multiseries_doc(multiplier)}


def _cmd_check_contraction(args) -> dict:
    _check_caps(order=args.order)
    graph, x, _growth = _load_graph(args.graph)
    h0, h1, h2 = args.branches
    report = contraction_parameter_check(graph, h0, h1, h2, _require_x(x, args.graph), args.order)
    return {"h0": h0, "pulled": [h1, h2], "order": args.order,
            "edge": report["edge"], "parameter": report["parameter"],
            "passes": report["passes"],
            "unit_constant_term": str(report["unit_constant_term"]),
            "unit": _multiseries_doc(report["unit"]),
            "difference": _multiseries_doc(report["difference"])}


def _cmd_period_assemble(args) -> dict:
    _check_caps(weight=args.weight, order=args.order)
    graph, _x, growth = _load_graph(args.graph)
    moves = path_from_list(_load_json(args.path))
    assignment = residue_assignment(graph, growth, max(args.weight, 2))
    period = assemble_period(assignment, moves, args.weight, args.order)
    doc = period_series_to_doc(period, growth, moves.moves)
    doc["membership"] = ring_membership_check(period)
    return doc


def _cmd_period_eval(args) -> dict:
    _check_caps(precision=args.precision)
    period = period_series_from_doc(_load_json(args.document))
    assign = _load_json(args.assign) if args.assign else {}
    if not isinstance(assign, dict):
        raise ParseError("an assignment file must contain a mapping")
    for key in ("y", "s", "elliptic"):
        if not isinstance(assign.get(key, {}), dict):
            raise ParseError(f"assignment section {key!r} must be a mapping")
    y = {k: _parse_scalar(v, f"y[{k}]") for k, v in assign.get("y", {}).items()}
    s = {k: _parse_scalar(v, f"s[{k}]") for k, v in assign.get("s", {}).items()}
    q0 = _parse_scalar(assign["q0"], "q0") if "q0" in assign else None
    ebind = {word_symbol(tuple(word.split())): _parse_scalar(v, f"elliptic[{word}]")
             for word, v in assign.get("elliptic", {}).items()}
    out = numeric_evaluate_period(period, y, s, q0, args.precision, elliptic_bindings=ebind)
    return {"document": args.document, "precision": args.precision,
            "terms": _numeric_terms(out, args.precision)}


def _cmd_selftest(args) -> dict:
    import random

    checks = []

    def check(name, passed):
        checks.append({"name": name, "passed": bool(passed)})

    with mp.workdps(40):
        a = mzv_numeric((2,), 30)
        b = _transport_0_to_1(2, 30).coefficient((X1, X0))  # zeta(2) by the oracle
        check("zeta2 two routes agree", abs(a - b) < mp.mpf(10) ** -25)
        check("zeta2 value", abs(a - mp.pi ** 2 / 6) < mp.mpf(10) ** -25)
    phi = drinfeld_associator(2)
    check("associator weight 2", phi.coefficient((X0, X1)) == -PeriodElem.zeta((2,))
          and phi.coefficient((X1, X0)) == PeriodElem.zeta((2,)))
    from .curves import basic_graph, contract_edge

    rng = random.Random(args.seed)
    ok = True
    for _ in range(5):
        n = rng.choice((3, 4))
        g = basic_graph(n)
        tails = sorted(g.tails)
        rng.shuffle(tails)
        ex = expand_vertex(g, "v0", (tails[0], tails[1]))
        ok = ok and contract_edge(ex, "e0") == g
    check("expand/contract round trip", ok)
    ra = residue_assignment(basic_graph(2), [], 3)
    check("residue vertex sums vanish", all(s.is_zero() for s in ra.vertex_sums().values()))
    unit = assemble_period(ra, [("rotate", "e", 2), ("rotate", "e", -2)], 3, 8)
    check("rotation inverse is unit",
          unit.series == NCSeries.unit(ra.letters, 3, PeriodElem.one()))
    return {"seed": args.seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and a parser rebuilt on every `main` call is cyclic garbage
    that stays resident until the collector's next full pass."""
    parser = argparse.ArgumentParser(
        prog="tateperiods",
        description="Unipotent periods on degenerating marked elliptic curves: "
                    "batch jobs with JSON documents in and out.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, fn, help_text, under=sub):
        p = under.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the output document here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="seed echoed into the document")
        return p

    def group(name, help_text):
        return sub.add_parser(name, help=help_text).add_subparsers(dest="sub", required=True)

    p = add("mzv", _cmd_mzv, "numeric multiple zeta value of a composition")
    p.add_argument("indices", type=int, nargs="+")
    p.add_argument("--precision", type=int, default=30)

    p = add("polylog", _cmd_polylog, "numeric multiple polylogarithm at z")
    p.add_argument("indices", type=int, nargs="+")
    p.add_argument("--z", default="1/2")
    p.add_argument("--precision", type=int, default=30)

    p = add("associator", _cmd_associator, "exact associator series over the period ring")
    p.add_argument("--weight", type=int, default=3)

    p = add("transport", _cmd_transport,
            "numeric transport for the two-point connection, unit tangents 0 -> 1")
    p.add_argument("--weight", type=int, default=3)
    p.add_argument("--precision", type=int, default=30)

    p = add("eisenstein", _cmd_eisenstein, "level-one Eisenstein q-expansion")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--order", type=int, default=20)

    p = add("eis-int", _cmd_eis_int, "iterated Eisenstein integral q-expansion")
    p.add_argument("indices", type=int, nargs="+")
    p.add_argument("--order", type=int, default=20)

    p = add("eval-q", _cmd_eval_q, "evaluate an iterated Eisenstein integral at q0")
    p.add_argument("indices", type=int, nargs="+")
    p.add_argument("--q0", required=True)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--precision", type=int, default=20)

    gsub = group("graph", "stable graph utilities")
    p = add("validate", _cmd_graph_validate, "connectivity, stability, genus report", gsub)
    p.add_argument("--graph", required=True)
    p = add("expand", _cmd_graph_expand, "pull two branches onto a fresh trivalent vertex", gsub)
    p.add_argument("vertex")
    p.add_argument("branches", nargs=2)
    p.add_argument("--graph", required=True)

    gsub = group("moebius", "gluing map utilities")
    p = add("fix", _cmd_moebius_fix, "fixed points and multiplier of a branch path", gsub)
    p.add_argument("branches", nargs="+")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", type=int, default=8)

    gsub = group("check", "structural checks")
    p = add("contraction", _cmd_check_contraction,
            "smoothing-parameter divisibility at a contraction", gsub)
    p.add_argument("branches", nargs=3, metavar="BRANCH",
                   help="h0, then the two branches pulled onto the fresh vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", type=int, default=6)

    gsub = group("period", "assemble and evaluate period series")
    p = add("assemble", _cmd_period_assemble, "product of monodromy factors along a path file", gsub)
    p.add_argument("--graph", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--weight", type=int, default=3)
    p.add_argument("--order", type=int, default=8)
    p = add("eval", _cmd_period_eval, "numeric evaluation of a saved period document", gsub)
    p.add_argument("document")
    p.add_argument("--assign")
    p.add_argument("--precision", type=int, default=20)

    p = add("selftest", _cmd_selftest, "quick invariant battery")
    p.set_defaults(seed=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NumericBudgetError as exc:
        print(f"numeric budget: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    doc = {"command": args.cmd if getattr(args, "sub", None) is None
           else f"{args.cmd} {args.sub}",
           "meta": {"package": "tateperiods", "version": __version__,
                    "seed": getattr(args, "seed", None)},
           "result": result}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.cmd == "selftest" and not result["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
