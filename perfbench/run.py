"""Benchmark of the tateperiods command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload zeta --seed 1 --seconds 40 --trace 0

Run from the repository root (or any checkout with `src/tateperiods`).  A run
is a closed loop of passes.  Each pass is a fresh worker interpreter (see
`worker.py`) that runs one seeded job list (see `workloads.py`) one job at a
time through `tateperiods.cli.main`, so the package memos start empty as
they do for a command-line user.  Another pass starts while it should end
within half a pass of `--seconds`, so the time spent in passes averages about
`--seconds`; every output is checked (see `checks.py`) after its pass,
outside the timed region.

Job times are given at reference speed.  The speed of a shared host drifts
by up to half over minutes, and the package's pure-Python work slows with it,
so raw seconds of two runs of the same code differ by more than a change worth
detecting.  The worker therefore times `worker.calibrate`, a fixed piece of
the same kind of work, before the first job and after each job.  A job's
latency is scaled by `CALIBRATION_S` over the mean of the calibrations
timed around it and around its two neighbours, and a pass's job time is the
sum of its scaled latencies.  On a host where `calibrate`
takes `CALIBRATION_S` the scaled times equal the raw ones.  `README.md`
compares the spread of raw and scaled times over runs of the same code.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones:

* `wall_s`: median over passes of a pass's scaled job time;
* `job_p50_s`, `job_p90_s`: percentiles of the scaled latencies of all jobs
  of all passes;
* `setup_s`: median time (raw, not scaled) from spawning a worker until
  `tateperiods.cli` and mpmath are imported and it reports ready, over every
  pass and an empty probe worker started before each pass, so the samples
  span the run;
* `peak_rss_mb`: median peak resident memory of a worker.

With `--trace 1` passes alternate between traced and untraced; the metrics
are the medians of the per-layer spans and counts of the traced passes (see
`spans.py`), `cli.doc_bytes`, and `trace.overhead_s`, the median scaled job
time of the traced passes minus that of the untraced ones.  A traced run
fails if a span that the workload declares never fires.  Lines before the
last one describe the environment and the run; `host_slowdown` on the `# run`
line is the median calibration time over `CALIBRATION_S`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import LAYERS, SPANS  # noqa: E402

PASS_TIMEOUT_S = 150
# Median time of `worker.calibrate` on the reference host (2-core shared x86,
# Python 3.11, mpmath 1.3 on its pure-Python backend).
CALIBRATION_S = 0.017

# Spans each workload must fire in a traced run.
DECLARED = {
    "zeta": ("cli.main", "mzv.numeric", "mzv.polylog"),
    "transport": ("cli.main", "kz.oracle", "ncalg.multiply", "ncalg.exp", "ncalg.inverse"),
    "period-session": tuple(name for name in SPANS
                            if name not in ("kz.oracle", "mzv.polylog", "ncalg.inverse")),
}
UNITS = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"ncalg.multiply_pairs": "count", "mzv.numeric_distinct": "count",
                  "elliptic.qseries_terms": "count", "periods.terms": "count",
                  "cli.doc_bytes": "bytes", "trace.overhead_s": "s"})
    return units


def environment(seed) -> dict:
    import mpmath

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed}


def spawn(spec: dict, workdir: Path, tag: str) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None if it failed)."""
    spec_path = workdir / f"{tag}.spec.json"
    result_path = workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(workdir / f"{tag}.stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path),
                                 str(result_path)], cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            ready = proc.stdout.readline()  # the worker prints nothing else
            setup = perf_counter() - start
            proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not result_path.exists():
        return setup, None
    return setup, json.loads(result_path.read_text(encoding="utf-8"))


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from checks import Checker

    checker = Checker()
    setups = []
    passes = []
    attempted = failed = 0
    reasons: list[str] = []
    durations: list[float] = []
    index = 0
    while True:
        pass_dir = workdir / f"pass{index:03d}"
        pass_dir.mkdir()
        if not trace:
            setups.append(spawn({"jobs": [], "trace": False}, pass_dir, "probe")[0])
        jobs = workloads.make_pass(workload, seed, index, pass_dir)
        traced = trace and index % 2 == 0
        start = perf_counter()
        setup, result = spawn({"jobs": [{"argv": j["argv"]} for j in jobs], "trace": traced},
                              pass_dir, "worker")
        durations.append(perf_counter() - start)
        attempted += len(jobs)
        if result is None:
            failed += len(jobs)
            stderr = (pass_dir / "worker.stderr").read_text(errors="replace").strip()
            reasons.append(f"pass {index}: worker failed: {stderr[-300:]!r}")
        else:
            for job, outcome in zip(jobs, result["jobs"]):
                if outcome["rc"] != 0:
                    why = outcome["error"] or f"exit code {outcome['rc']}"
                else:
                    why = checker.check(job)
                if why is not None:
                    failed += 1
                    reasons.append(f"pass {index} {job['stratum']}: {why}")
            result["traced"] = traced
            result["setup_s"] = setup
            result["doc_bytes"] = sum(Path(j["out"]).stat().st_size for j in jobs
                                      if Path(j["out"]).exists())
            passes.append(result)
        index += 1
        # start another pass only if it should end within half a pass of the
        # measured time
        if (sum(durations) + statistics.median(durations) / 2 > seconds
                and index >= (2 if trace else 1)):
            break
    return {"passes": passes, "setups": setups, "attempted": attempted, "failed": failed,
            "reasons": reasons, "measured_s": sum(durations)}


def scaled_latencies(result: dict) -> list[float]:
    """Job latencies of a pass at reference speed (see the module docstring).
    Calibration group `i` precedes job `i`; job `i` is scaled by the mean of
    the calibrations in groups `i - 1` to `i + 2`."""
    groups = result["calib"]
    return [job["seconds"] * CALIBRATION_S
            / statistics.mean(c for g in groups[max(i - 1, 0):i + 3] for c in g)
            for i, job in enumerate(result["jobs"])]


def scaled_wall(result: dict) -> float:
    return sum(scaled_latencies(result))


def end_to_end(outcome: dict) -> dict:
    passes = outcome["passes"]
    latencies = [t for p in passes for t in scaled_latencies(p)]
    return {
        "wall_s": statistics.median(scaled_wall(p) for p in passes),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": percentile(latencies, 90),
        "setup_s": statistics.median(outcome["setups"] + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }


def per_layer(workload: str, outcome: dict) -> tuple[dict, list[str]]:
    traced = [p for p in outcome["passes"] if p["traced"]]
    plain = [p for p in outcome["passes"] if not p["traced"]]
    metrics = {}
    for name in per_layer_units():
        if name == "cli.doc_bytes":
            metrics[name] = statistics.median(p["doc_bytes"] for p in traced)
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(scaled_wall(p) for p in traced)
                             - statistics.median(scaled_wall(p) for p in plain))
        else:
            metrics[name] = statistics.median(p["trace"].get(name, 0) for p in traced)
    silent = [name for name in DECLARED[workload]
              if not any(p["trace"][f"{name}_calls"] for p in traced)]
    return metrics, silent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tateperiods" / "cli.py").is_file():
        print(f"error: no tateperiods package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in outcome["reasons"][:20]:
        print(f"# FAIL {reason}", flush=True)
    kinds = {p["traced"] for p in outcome["passes"]}
    if kinds != ({True, False} if args.trace else {False}):
        print("error: too few passes completed to report", file=sys.stderr)
        return 1
    if args.trace:
        values, silent = per_layer(args.workload, outcome)
        if silent:
            print(f"error: declared spans never fired: {', '.join(silent)}", file=sys.stderr)
            return 1
        units = per_layer_units()
    else:
        values, units = end_to_end(outcome), UNITS
    summary = {"workload": args.workload, "trace": args.trace, "passes": len(outcome["passes"]),
               "jobs": sum(len(p["jobs"]) for p in outcome["passes"]),
               "measured_s": round(outcome["measured_s"], 3),
               "host_slowdown": round(statistics.median(
                   c for p in outcome["passes"] for g in p["calib"] for c in g) / CALIBRATION_S, 3),
               "fail_frac": outcome["failed"] / outcome["attempted"]}
    print("# run " + json.dumps(summary), flush=True)
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
