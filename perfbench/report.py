"""Run every workload over several seeds and print one row per workload and metric.

    python3 perfbench/report.py --seeds 1 2 3 4 5
    python3 perfbench/report.py --seeds 1 2 3 --trace

Each row gives the median and quartiles over the seeds' runs, the number of
runs, and the passes and jobs they measured.  `fail_frac` is failed jobs over
attempted jobs, summed over the runs.  With `--trace` the traced runs follow
and their per-layer rows include `trace.overhead_s`, the traced `wall_s` minus
the untraced one.  The environment record (Python, mpmath and its backend,
nproc, git sha, source digest) heads the output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    run = next(json.loads(line[6:]) for line in lines if line.startswith("# run "))
    return {"result": json.loads(lines[-1]), "run": run}


def rows(workload: str, runs: list[dict]) -> list[str]:
    out = []
    passes = sum(r["run"]["passes"] for r in runs)
    jobs = sum(r["run"]["jobs"] for r in runs)
    names = runs[0]["result"]["metrics"]
    for name, first in names.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1 else values * 3)
        out.append(f"{workload:15s} {name:28s} {first['unit']:6s} {q2:14.6g} {q1:14.6g} "
                   f"{q3:14.6g} {len(runs):4d} {passes:6d} {jobs:6d}")
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    out.append(f"{workload:15s} {'fail_frac':28s} {'ratio':6s} {failed / attempted:14.6g} "
               f"{'':14s} {'':14s} {len(runs):4d} {passes:6d} {jobs:6d}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = parser.parse_args()
    header = (f"{'workload':15s} {'metric':28s} {'unit':6s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s} {'runs':>4s} {'passes':>6s} {'jobs':>6s}")
    env = environment(args.seeds)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    for trace in (0, 1) if args.trace else (0,):
        print(("# per-layer metrics, traced runs" if trace else "# end-to-end metrics") + "\n"
              + header, flush=True)
        for workload in WORKLOADS:
            runs = [run_once(workload, seed, trace) for seed in args.seeds]
            print("\n".join(rows(workload, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
