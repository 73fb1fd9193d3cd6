"""Seeded, stratified job lists for the three benchmark workloads.

A workload run is a sequence of passes.  Each pass is one job list, executed
by one fresh worker interpreter.  Every pass holds the same strata, so the
seed never changes how many jobs of a kind a pass has.  Within a stratum the
costly input (a composition, a period-session graph, a set of Eisenstein
indices) comes from a fixed cycle of `CYCLE` inputs of similar cost:
pass `i` of a run with seed `s` takes entry `(offset + i) mod CYCLE`, where
the seed draws the stratum's offset.  A run therefore meets each entry about
equally often whatever its seed, and its medians barely depend on the seed.
Everything else (order, `z`, `q0`, assignment values, Moebius paths) is
drawn from the stream `workload/s/i`.  The same seed always yields
byte-identical job lists and input files.

* `zeta`: one `mzv` job for every depth 1..7 and precision 30/60/100, all
  compositions distinct within the pass (see `zeta_cycles`), one from the
  costly corner `ZETA_CORNER`, and one `polylog` job per depth, its
  precision cycling with the depth.
* `transport`: one `transport` job for every cell of the weight x precision
  grid, in grid order.
* `period-session`: one notebook session over four catalogue graphs (one per
  mark count 1..4, see `SESSION_SLOTS`): validate, assemble, an ascending
  eval ladder, `moebius fix`, `check contraction`, and two `eis-int` /
  `eval-q` pairs.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("zeta", "transport", "period-session")
CYCLE = 3

ZETA_DEPTHS = tuple(range(1, 8))
ZETA_PRECISIONS = (30, 60, 100)
# Euler-Maclaurin cost grows with leading 1 parts, so from depth 3 on each
# precision stratum fixes their number and draws the other parts from {2, 3, 4}.
ZETA_LEADING_ONES = {30: 2, 60: 1, 100: 0}
# The costly Euler-Maclaurin corner, many leading 1 parts at precision 100
# (1.5-2.0 s each where zeta(5) takes 0.06 s): one job per pass.
ZETA_CORNER = ((1, 1, 1, 1, 2), (1, 1, 1, 2, 2), (1, 1, 1, 2, 3))
ZETA_CORNER_PRECISION = 100
POLYLOG_Z = ("1/2", "-1/2", "1/3", "-1/3", "1/4", "-2/5")

TRANSPORT_WEIGHTS = (1, 2, 3)
TRANSPORT_PRECISIONS = (8, 9, 10)

# One session slot per mark count: the weight of `period assemble` and the
# order of `moebius fix`.  Graphs with an expansion (three or four marks) also
# get `check contraction` at every order in CONTRACTION_ORDERS.  The cheap
# `graph validate` and `check contraction` jobs put the session's median job
# inside the cluster of small evals and assemblies rather than between tiers.
SESSION_SLOTS = (
    {"marks": 1, "weight": 6, "moebius_order": 12},
    {"marks": 2, "weight": 6, "moebius_order": 12},
    {"marks": 3, "weight": 5, "moebius_order": 10},
    {"marks": 4, "weight": 4, "moebius_order": 8},
)
CONTRACTION_ORDERS = (8, 12)
MOEBIUS_PATH_LENGTH = 2
EVAL_LADDER = (10, 20)
ASSEMBLE_ORDER = 8
EIS_STRATA = ((2, 200), (3, 100))  # (number of indices, q-order)
EVAL_Q_PRECISION = {2: 30, 3: 20}
REGIME_VALUES = ("1/10", "1/8", "1/5", "-1/6", "1/4", "-1/9")
Q0_VALUES = ("1/10", "-1/10", "1/12", "1/8")


def compositions(weight: int, depth: int):
    """All compositions of `weight` into `depth` positive parts, lexicographic."""
    if depth == 1:
        yield (weight,)
        return
    for first in range(1, weight - depth + 2):
        for rest in compositions(weight - first, depth - 1):
            yield (first,) + rest


def _zeta_composition(rng: random.Random, depth: int, precision: int) -> tuple[int, ...]:
    if depth == 1:
        return (rng.randrange(2, 11),)
    if depth == 2:
        return (rng.randrange(1, 5), rng.randrange(2, 6))
    ones = ZETA_LEADING_ONES[precision]
    return (1,) * ones + tuple(rng.choice((2, 3, 4)) for _ in range(depth - ones))


@lru_cache(maxsize=None)
def zeta_cycles(depth: int) -> dict[int, list[tuple[int, ...]]]:
    """Per precision, the CYCLE compositions of that depth's stratum, distinct
    across the depth's precisions so no pass repeats a composition."""
    rng = random.Random(f"zeta/d{depth}")
    seen: set = set()
    out = {}
    for p in ZETA_PRECISIONS:
        out[p] = []
        while len(out[p]) < CYCLE:
            k = _zeta_composition(rng, depth, p)
            if k not in seen:
                seen.add(k)
                out[p].append(k)
    return out


def reference_compositions() -> list[tuple[int, ...]]:
    """Every composition whose zeta value a check may need: all `zeta`
    compositions plus all admissible compositions of weight <= 6."""
    out = {k for d in ZETA_DEPTHS for ks in zeta_cycles(d).values() for k in ks}
    out |= set(ZETA_CORNER)
    out |= {k for w in range(2, 7) for d in range(1, w) for k in compositions(w, d) if k[-1] >= 2}
    return sorted(out, key=lambda k: (sum(k), len(k), k))


@lru_cache(maxsize=None)
def catalogue() -> dict:
    """Fixed universe of period-session inputs with the digests of their exact
    documents; `build_data.py` writes it."""
    with open(DATA / "catalogue.json", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return str(path)


def with_out(argv: list[str], out: str, branches=()) -> list[str]:
    """Command line writing its document to `out`; branch names may start
    with "-", so they follow "--"."""
    return argv + ["--out", out] + (["--", *branches] if branches else [])


def _zeta_jobs(rng: random.Random, pick, workdir: Path) -> list[dict]:
    jobs = []
    for depth in ZETA_DEPTHS:
        for p, cycle in zeta_cycles(depth).items():
            jobs.append({"kind": "mzv", "stratum": f"mzv/d{depth}/p{p}",
                         "indices": list(pick(cycle)), "precision": p})
        p = ZETA_PRECISIONS[depth % len(ZETA_PRECISIONS)]
        jobs.append({"kind": "polylog", "stratum": f"polylog/d{depth}/p{p}",
                     "indices": [rng.choice((1, 2, 3)) for _ in range(depth)],
                     "z": rng.choice(POLYLOG_Z), "precision": p})
    jobs.append({"kind": "mzv", "stratum": f"mzv/corner/p{ZETA_CORNER_PRECISION}",
                 "indices": list(pick(ZETA_CORNER)), "precision": ZETA_CORNER_PRECISION})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        out = str(workdir / f"job{i:03d}.json")
        idx = [str(k) for k in job["indices"]]
        if job["kind"] == "mzv":
            job["argv"] = ["mzv", *idx, "--precision", str(job["precision"]), "--out", out]
        else:
            job["argv"] = ["polylog", *idx, f"--z={job['z']}",
                           "--precision", str(job["precision"]), "--out", out]
        job["out"] = out
    return jobs


def _transport_jobs(rng: random.Random, pick, workdir: Path) -> list[dict]:
    # The oracle memoizes its Chebyshev matrices per precision, so the first
    # job at each precision also builds them (about 0.3 s).  A fixed order
    # puts that cost on the same jobs in every pass.
    cells = [(w, p) for w in TRANSPORT_WEIGHTS for p in TRANSPORT_PRECISIONS]
    jobs = []
    for i, (w, p) in enumerate(cells):
        out = str(workdir / f"job{i:03d}.json")
        jobs.append({"kind": "transport", "stratum": f"transport/w{w}/p{p}", "weight": w,
                     "precision": p, "out": out,
                     "argv": ["transport", "--weight", str(w), "--precision", str(p),
                              "--out", out]})
    return jobs


def _elliptic_words(weight: int) -> list[str]:
    words = [""]
    out = []
    for _ in range(weight):
        words = [w + l for w in words for l in "TA"]
        out.extend(words)
    return out


def _assignment(rng: random.Random, scenario: dict, weight: int) -> dict:
    return {
        "y": {"l": rng.choice(REGIME_VALUES)},
        "s": {name: rng.choice(REGIME_VALUES) for name in scenario["fusing_parameters"]},
        "q0": rng.choice(REGIME_VALUES),
        "elliptic": {" ".join(w): [str(rng.randrange(-99, 100) / 400),
                                   str(rng.randrange(-99, 100) / 400)]
                     for w in _elliptic_words(weight)},
    }


def _session_jobs(rng: random.Random, pick, workdir: Path) -> list[dict]:
    cat = catalogue()
    jobs: list[dict] = []

    def add(kind, stratum, argv, branches=(), **extra):
        out = str(workdir / f"job{len(jobs):03d}.json")
        argv = with_out(argv, out, branches)
        jobs.append({"kind": kind, "stratum": stratum, "argv": argv, "out": out, **extra})
        return out

    for slot in SESSION_SLOTS:
        n, weight = slot["marks"], slot["weight"]
        sc = pick(cat["scenarios"][str(n)])
        sid = sc["id"]
        graph = _write_json(workdir / f"{sid}.graph.json", sc["graph"])
        path = _write_json(workdir / f"{sid}.path.json", sc["path"])
        add("validate", f"validate/n{n}", ["graph", "validate", "--graph", graph], marks=n)
        doc = add("assemble", f"assemble/n{n}/w{weight}",
                  ["period", "assemble", "--graph", graph, "--path", path,
                   "--weight", str(weight), "--order", str(ASSEMBLE_ORDER)],
                  key=f"assemble/{sid}")
        assign = _assignment(rng, sc, weight)
        apath = _write_json(workdir / f"{sid}.assign.json", assign)
        for p in EVAL_LADDER:
            add("eval", f"eval/n{n}/w{weight}/p{p}",
                ["period", "eval", doc, "--assign", apath, "--precision", str(p)],
                precision=p, document=doc, assign=assign)
        i = rng.randrange(len(sc["moebius_paths"]))
        add("moebius", f"moebius/n{n}/o{slot['moebius_order']}",
            ["moebius", "fix", "--graph", graph, "--order", str(slot["moebius_order"])],
            branches=sc["moebius_paths"][i], key=f"moebius/{sid}/{i}")
        for order in CONTRACTION_ORDERS if sc["contraction"] else ():
            add("contraction", f"contraction/n{n}/o{order}",
                ["check", "contraction", "--graph", graph, "--order", str(order)],
                branches=sc["contraction"], key=f"contraction/{sid}/o{order}")
    for length, order in EIS_STRATA:
        indices = [str(k) for k in pick(cat["eis_indices"][str(length)])]
        series = add("eis-int", f"eis-int/l{length}/o{order}",
                     ["eis-int", *indices, "--order", str(order)],
                     key=f"eis-int/{','.join(indices)}/o{order}")
        p = EVAL_Q_PRECISION[length]
        q0 = rng.choice(Q0_VALUES)
        add("eval-q", f"eval-q/l{length}/o{order}",
            ["eval-q", *indices, f"--q0={q0}", "--order", str(order), "--precision", str(p)],
            precision=p, q0=q0, series=series)
    return jobs


GENERATORS = {"zeta": _zeta_jobs, "transport": _transport_jobs,
              "period-session": _session_jobs}


def make_pass(workload: str, seed: int, index: int, workdir: Path) -> list[dict]:
    """Job list of pass `index` of a run with `seed`; writes its input files
    into `workdir`, which must exist."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    offsets = random.Random(f"{workload}/{seed}")

    def pick(cycle: list):
        # strata are visited in the same order in every pass, so the k-th
        # call of every pass gets the same offset
        return cycle[(offsets.randrange(len(cycle)) + index) % len(cycle)]

    return GENERATORS[workload](rng, pick, Path(workdir))
