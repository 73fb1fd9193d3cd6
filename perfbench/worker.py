"""Benchmark worker: one fresh interpreter runs one pass of jobs.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds `{"jobs": [{"argv": [...]}, ...], "trace": bool}`.  The worker
imports `tateperiods.cli` (and mpmath with it), installs the spans when
tracing, prints `ready` on stdout, then runs the jobs one at a time through
`tateperiods.cli.main(argv)` and writes per-job latency and exit status,
its peak resident memory and any trace totals to RESULT.  The package's
memos start empty, as for a command-line user.

Before the first job and after every job the worker times `calibrate`, a
fixed piece of pure-Python and mpmath arithmetic that touches no package
state, and writes those times to RESULT as well, one group per gap between
jobs (see `run.py` for their use).
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


# After a job the worker times `calibrate` once per this many seconds the job
# took, at least once, so a long job's speed is sampled as densely as a short one's.
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Time a fixed piece of work like the package's own: mpf and Fraction
    arithmetic and dict traffic in the interpreter (about 17 ms on a 2-core
    x86 host under typical load)."""
    import mpmath as mp

    t0 = perf_counter()
    with mp.workdps(50):
        s = mp.mpf(0)
        for i in range(1, 1500):
            s += mp.mpf(1) / (i * i)
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(1, i * i)
    d = {}
    for i in range(20000):
        d[(i * 7919) % 1021] = (i, str(i))
    return perf_counter() - t0


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from tateperiods import cli

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    print("ready", flush=True)
    jobs = []
    calib = [[calibrate()]]
    for job in spec["jobs"]:
        t0 = perf_counter()
        error = None
        try:
            rc = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects a command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a job that raises fails; the pass goes on
            traceback.print_exc()
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        jobs.append({"seconds": seconds, "rc": rc, "error": error})
        calib.append([calibrate() for _ in range(1 + int(seconds / CALIBRATE_EVERY_S))])
    result = {"jobs": jobs, "calib": calib,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result["trace"] = recorder.summary()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
