"""Rebuild the benchmark's fixed reference data under perfbench/data/.

    python3 perfbench/build_data.py

Writes two files:

* `catalogue.json`: the period-session input universe and the SHA-256 digest
  of every exact document the workload can request from it.  For each
  session slot (mark count, weight) it holds three seeded graphs, each with a
  move path, up to three Moebius branch paths and, where the graph has an
  expansion, a contraction triple.  The three share the zeta values of
  their assembled documents and the kinds of their moves, and are closest to
  the median size among the candidates that do, so that every slot costs
  about the same whichever graph a seed picks.  It also lists the
  Eisenstein index tuples.
* `zeta_refs.json`: 115-digit values of every zeta value a check needs,
  from mpmath closed forms (depth one and the duality zeta(1,...,1,2) =
  zeta(n)) or else from the Hoelder convolution route, which the `mzv`
  command does not use.

Rebuild only when an exact document is meant to change; the digests pin the
documents of the commit that built them.  Takes a few minutes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402

import workloads as wl  # noqa: E402
from tateperiods import cli  # noqa: E402
from tateperiods.curves import (  # noqa: E402
    SeriesRing, basic_graph, compose_path, contraction_parameter_check, edge_of,
    expand_vertex, expansion_names, fixed_points_multiplier, flip, graph_to_dict, residue_assignment)
from tateperiods.errors import PreconditionError  # noqa: E402
from tateperiods.mzv import mzv_numeric_holder  # noqa: E402
from tateperiods.periods import assemble_period, path_from_list, ring_membership_check  # noqa: E402

CANDIDATES = 60  # per slot; the wl.CYCLE closest to their median size are kept
MOEBIUS_PATHS = 3  # at most; a one-mark graph has only two
REF_DIGITS = 115
# index tuples whose q-expansions cost about the same at their stratum's order
EIS_INDICES = {2: [[4, 6], [4, 8], [8, 6]], 3: [[4, 4, 4], [4, 4, 6], [4, 6, 4]]}


def _grow(n: int, rng: random.Random):
    g = basic_graph(n)
    growth = []
    while True:
        cands = [(v, pair) for v in sorted(g.vertices) if len(g.branches_at(v)) >= 4
                 for pair in itertools.combinations(sorted(g.branches_at(v)), 2)]
        if not cands:
            return g, growth
        v, pair = rng.choice(cands)
        growth.append(("expand", v, pair, expansion_names(g)[1]))
        g = expand_vertex(g, v, pair)


def _random_move(g, rng: random.Random) -> list:
    edges = sorted(e for e, (a, b) in g.edges.items() if a != b)
    kind = rng.choice(["rotate", "loop", "associator"] + (["fuse"] if edges else []))
    if kind == "rotate":
        return _rotate_move(g, rng)
    if kind == "fuse":
        return ["fuse", rng.choice(edges)]
    if kind == "loop":
        return ["loop", rng.choice((1, -1))]
    return _associator_move(g, rng)


def _rotate_move(g, rng: random.Random) -> list:
    return ["rotate", rng.choice(sorted(g.all_branches())), rng.choice((1, -1, 2))]


def _associator_move(g, rng: random.Random) -> list:
    v = rng.choice(sorted(g.vertices))
    return ["associator", v, sorted(rng.sample(sorted(g.branches_at(v)), 2))]


def _reduced_path(g, rng: random.Random, length: int) -> list[str] | None:
    branches = sorted(h for e in g.edges for h in (e, flip(e)))
    path = [rng.choice(branches)]
    while len(path) < length:
        nxt = sorted(h for h in g.branches_at(g.branch_base(flip(path[-1])))
                     if h not in g.tails and h != flip(path[-1]))
        if not nxt:
            return None
        path.append(rng.choice(nxt))
    return None if path[-1] == flip(path[0]) else path


def _candidate(n: int, slot: dict, rng: random.Random) -> dict | None:
    """A seeded graph with a move path the library accepts, or None."""
    g, growth = _grow(n, rng)
    pool = sorted({Fraction(a, b) for a in range(-9, 10) for b in range(1, 6)})
    rng.shuffle(pool)
    x = {h: pool[i] for i, h in enumerate(g.all_branches())}
    # every path rotates and re-brackets, so each session fires the rotation,
    # exponential and associator spans and evaluates zeta values
    moves = [_associator_move(g, rng), _rotate_move(g, rng), _random_move(g, rng)]
    rng.shuffle(moves)
    contraction = None
    if growth:
        _, _v, pair, edge = growth[-1]
        contraction = [flip(edge), pair[0], pair[1]]
    ring = SeriesRing.for_graph(g, x, slot["moebius_order"])
    # the cost of a composed path follows the number of edge parameters in it
    edges = min(len(g.edges), wl.MOEBIUS_PATH_LENGTH)
    moebius = []
    for _ in range(20):
        path = _reduced_path(g, rng, wl.MOEBIUS_PATH_LENGTH)
        if path is None or path in moebius or len({edge_of(h) for h in path}) != edges:
            continue
        try:
            fixed_points_multiplier(compose_path(path, ring))
        except PreconditionError:
            continue
        moebius.append(path)
        if len(moebius) == MOEBIUS_PATHS:
            break
    if not moebius:
        return None
    try:
        w = slot["weight"]
        period = assemble_period(residue_assignment(g, [m[:3] for m in growth], w),
                                 path_from_list(moves), w, wl.ASSEMBLE_ORDER)
        for order in wl.CONTRACTION_ORDERS if contraction else ():
            contraction_parameter_check(g, *contraction, x, order)
    except PreconditionError:
        return None
    monomials = [m for c in period.series.coeffs.values() for m in c.terms]
    if not ring_membership_check(period)["passes"]:
        return None
    doc = graph_to_dict(g, x)
    doc["growth"] = [[kind, v, list(pair)] for kind, v, pair, _e in growth]
    return {"graph": doc, "path": moves, "fusing_parameters": list(period.fusing_parameters),
            "moebius_paths": moebius, "contraction": contraction,
            "monomials": len(monomials),
            "zeta_monomials": sum(1 for m in monomials if m.zeta_factors),
            "zetas": sorted({",".join(map(str, k)) for m in monomials for k in m.zeta_factors})}


def _slot_scenarios(slot: dict, rng: random.Random) -> list[dict]:
    """Scenarios of one slot that cost about the same in a pass.

    Within a pass the zeta values are memoized, so an evaluation costs mostly
    the zeta values that earlier jobs have not computed, and assembly cost
    follows the kinds of moves.  The kept scenarios therefore share the most
    common (zeta values, move kinds) signature among the candidates, and are
    the ones of that group closest to its median document size, so a pass
    costs about the same whichever scenarios the seed picks."""
    n = slot["marks"]
    groups: dict[tuple, list[dict]] = {}
    for _ in range(CANDIDATES):
        cand = None
        while cand is None or not cand["zeta_monomials"]:
            cand = _candidate(n, slot, rng)
        signature = (tuple(cand["zetas"]), tuple(sorted(move[0] for move in cand["path"])))
        groups.setdefault(signature, []).append(cand)
    group = max(groups.values(), key=len)
    if len(group) < wl.CYCLE:
        raise SystemExit(f"slot {n}: no signature shared by {wl.CYCLE} candidates")
    mid = {key: statistics.median(c[key] for c in group)
           for key in ("monomials", "zeta_monomials")}
    chosen = sorted(group, key=lambda c: max(abs(c[key] / mid[key] - 1) for key in mid))
    chosen = chosen[:wl.CYCLE]
    for i, c in enumerate(chosen):
        c["id"] = f"n{n}s{i}"
    return chosen


def _digest(argv: list[str], tmp: Path, branches=()) -> str:
    out = tmp / "doc.json"
    if cli.main(wl.with_out(argv, str(out), branches)) != 0:
        raise SystemExit(f"reference job failed: {argv}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def build_catalogue() -> dict:
    rng = random.Random("period-session catalogue")
    scenarios = {str(slot["marks"]): _slot_scenarios(slot, rng) for slot in wl.SESSION_SLOTS}
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        for slot in wl.SESSION_SLOTS:
            for sc in scenarios[str(slot["marks"])]:
                sid = sc["id"]
                graph = tmp / "graph.json"
                path = tmp / "path.json"
                graph.write_text(json.dumps(sc["graph"], sort_keys=True))
                path.write_text(json.dumps(sc["path"], sort_keys=True))
                digests[f"assemble/{sid}"] = _digest(
                    ["period", "assemble", "--graph", str(graph), "--path", str(path),
                     "--weight", str(slot["weight"]), "--order", str(wl.ASSEMBLE_ORDER)], tmp)
                for i, branches in enumerate(sc["moebius_paths"]):
                    digests[f"moebius/{sid}/{i}"] = _digest(
                        ["moebius", "fix", "--graph", str(graph),
                         "--order", str(slot["moebius_order"])], tmp, branches)
                for order in wl.CONTRACTION_ORDERS if sc["contraction"] else ():
                    digests[f"contraction/{sid}/o{order}"] = _digest(
                        ["check", "contraction", "--graph", str(graph), "--order", str(order)],
                        tmp, sc["contraction"])
        for length, order in wl.EIS_STRATA:
            for idx in EIS_INDICES[length]:
                indices = [str(k) for k in idx]
                digests[f"eis-int/{','.join(indices)}/o{order}"] = _digest(
                    ["eis-int", *indices, "--order", str(order)], tmp)
    return {"scenarios": scenarios, "eis_indices": {str(k): v for k, v in EIS_INDICES.items()},
            "digests": digests}


def build_zeta_refs() -> dict:
    refs = {}
    with mp.workdps(REF_DIGITS + 10):
        for k in wl.reference_compositions():
            if len(k) == 1:
                value = mp.zeta(k[0])
            elif set(k[:-1]) == {1} and k[-1] == 2:
                value = mp.zeta(len(k) + 1)
            else:
                value = mzv_numeric_holder(k, REF_DIGITS + 5)
            refs[",".join(map(str, k))] = mp.nstr(value, REF_DIGITS)
    return refs


def main() -> None:
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    (data / "catalogue.json").write_text(json.dumps(build_catalogue(), indent=1) + "\n")
    (data / "zeta_refs.json").write_text(json.dumps(build_zeta_refs(), indent=1) + "\n")


if __name__ == "__main__":
    main()
