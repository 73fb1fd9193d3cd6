"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, zeta_refs  # noqa: E402
from tateperiods import cli  # noqa: E402


def _pass_files(workload, seed, index, workdir):
    workdir.mkdir()
    jobs = workloads.make_pass(workload, seed, index, workdir)
    listing = json.dumps(jobs, sort_keys=True).replace(str(workdir), "<dir>")
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return listing, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    assert _pass_files(workload, 7, 1, tmp_path / "a") == _pass_files(workload, 7, 1, tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_fill_the_same_strata(workload, tmp_path):
    counts = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        jobs = workloads.make_pass(workload, seed, 0, workdir)
        counts.append(Counter(job["stratum"] for job in jobs))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ["zeta", "period-session"])
def test_seeds_differ(workload, tmp_path):
    assert _pass_files(workload, 1, 0, tmp_path / "1") != _pass_files(workload, 2, 0, tmp_path / "2")


def test_zeta_pass_never_repeats_a_composition(tmp_path):
    jobs = workloads.make_pass("zeta", 3, 0, tmp_path)
    comps = [tuple(j["indices"]) for j in jobs if j["kind"] == "mzv"]
    assert len(comps) == len(set(comps)) == 22


def test_every_reference_is_available():
    refs = zeta_refs()
    for k in workloads.reference_compositions():
        assert ",".join(map(str, k)) in refs


def _perturb(text: str) -> str:
    i = len(text) // 2
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _run_job(job):
    assert cli.main(job["argv"]) == 0


@pytest.mark.parametrize("kind", ["mzv", "polylog"])
def test_perturbed_digit_fails_the_check(kind, tmp_path):
    job = next(j for j in workloads.make_pass("zeta", 5, 0, tmp_path)
               if j["kind"] == kind and j["precision"] == 30)
    _run_job(job)
    checker = Checker()
    assert checker.check(job) is None
    doc = json.loads(Path(job["out"]).read_text())
    value = doc["result"]["value"]
    if kind == "mzv":
        doc["result"]["value"] = _perturb(value)
    else:
        value["re"] = _perturb(value["re"])
    Path(job["out"]).write_text(json.dumps(doc))
    assert checker.check(job) is not None


def test_perturbed_transport_digit_fails_the_check(tmp_path):
    job = next(j for j in workloads.make_pass("transport", 5, 0, tmp_path)
               if j["weight"] == 2 and j["precision"] == 10)
    _run_job(job)
    checker = Checker()
    assert checker.check(job) is None
    doc = json.loads(Path(job["out"]).read_text())
    term = doc["result"]["terms"]["x0 x1"]
    term["re"] = _perturb(term["re"])
    Path(job["out"]).write_text(json.dumps(doc))
    assert "x0 x1" in checker.check(job)


def test_changed_exact_document_fails_the_check(tmp_path):
    jobs = workloads.make_pass("period-session", 5, 0, tmp_path)
    assemble = next(j for j in jobs if j["kind"] == "assemble")
    _run_job(assemble)
    checker = Checker()
    assert checker.check(assemble) is None
    text = Path(assemble["out"]).read_text()
    Path(assemble["out"]).write_text(text.replace('"weight"', '"weight" ', 1))
    assert "digest" in checker.check(assemble)


def test_perturbed_eval_digit_fails_the_check(tmp_path):
    jobs = workloads.make_pass("period-session", 5, 0, tmp_path)
    assemble = next(j for j in jobs if j["kind"] == "assemble")
    evaluate = next(j for j in jobs if j["kind"] == "eval" and j["document"] == assemble["out"])
    _run_job(assemble)
    _run_job(evaluate)
    checker = Checker()
    assert checker.check(evaluate) is None
    doc = json.loads(Path(evaluate["out"]).read_text())
    term = max(doc["result"]["terms"].values(), key=lambda v: abs(float(v["re"])))
    term["re"] = _perturb(term["re"])
    Path(evaluate["out"]).write_text(json.dumps(doc))
    assert checker.check(evaluate) is not None


def test_close_tolerance():
    from checks import close

    with mp.workdps(40):
        ref = mp.zeta(3)
        assert close(mp.nstr(ref, 28), ref, 30)
        assert not close(_perturb(mp.nstr(ref, 28)), ref, 30)


def test_self_time_subtracts_other_layers():
    rec = spans.Recorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = rec.wrap("mzv.polylog", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    rec.wrap("periodring.numeric_eval", outer)()
    s = rec.summary()
    assert s["mzv.polylog_calls"] == 2
    assert s["periodring.numeric_eval_s"] >= s["mzv.polylog_s"] >= 0.04
    assert 0.01 <= s["periodring.self_s"] < 0.03
    assert s["mzv.self_s"] == pytest.approx(s["mzv.polylog_s"])


def test_declared_span_that_never_fires_is_reported():
    from run import DECLARED, per_layer

    trace = spans.Recorder().summary()
    trace["cli.main_calls"] = 28
    result = {"jobs": [{"seconds": 1.0}], "calib": [[0.02], [0.02]]}
    passes = [{"traced": True, "doc_bytes": 1, "trace": trace, **result},
              {"traced": False, "doc_bytes": 1, **result}]
    _metrics, silent = per_layer("zeta", {"passes": passes})
    assert silent == [name for name in DECLARED["zeta"] if name != "cli.main"]


def test_times_are_scaled_to_reference_speed():
    from run import CALIBRATION_S, scaled_latencies, scaled_wall

    # the host runs at half speed until the second job, at full speed after
    c = CALIBRATION_S
    result = {"jobs": [{"seconds": 3.0}, {"seconds": 1.0}, {"seconds": 1.0}],
              "calib": [[2 * c], [2 * c, 2 * c], [2 * c], [c, c, c]]}
    # job 0 sees calibration groups 0..2, job 1 sees 0..3, job 2 sees 1..3
    assert scaled_latencies(result) == pytest.approx([1.5, 7 / 11, 1.0 / 1.5])
    assert scaled_wall(result) == pytest.approx(1.5 + 7 / 11 + 1.0 / 1.5)


def test_traced_worker_sees_import_bound_names(tmp_path):
    """`cli` binds `mzv_numeric` and `numeric_transport_oracle` at import;
    the spans must still fire when the command goes through those names."""
    spec = tmp_path / "spec.json"
    result = tmp_path / "result.json"
    argv = [["mzv", "2", "3", "--out", str(tmp_path / "a.json")],
            ["transport", "--weight", "1", "--precision", "10", "--out", str(tmp_path / "b.json")]]
    spec.write_text(json.dumps({"jobs": [{"argv": a} for a in argv], "trace": True}))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert [j["rc"] for j in out["jobs"]] == [0, 0]
    trace = out["trace"]
    assert trace["mzv.numeric_calls"] == 1
    assert trace["mzv.numeric_distinct"] == 1
    assert trace["kz.oracle_calls"] == 1
    assert trace["ncalg.multiply_calls"] > 0 and trace["ncalg.multiply_pairs"] > 0
    assert trace["cli.main_calls"] == 2
