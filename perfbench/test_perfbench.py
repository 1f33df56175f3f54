"""Fast self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import inputs, jobs, measure, oracles, sweep, tracing
from perfbench import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", list(inputs.ROUNDS))
def test_same_seed_gives_identical_inputs(workload):
    first = [inputs.make_round(workload, 7, r) for r in range(3)]
    assert first == [inputs.make_round(workload, 7, r) for r in range(3)]
    assert first != [inputs.make_round(workload, 8, r) for r in range(3)]
    assert inputs.warmup_jobs(workload, 7) == inputs.warmup_jobs(workload, 7)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = "import json; from perfbench import inputs; print(json.dumps([inputs.make_round(w, 3, 0) for w in inputs.ROUNDS]))"
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=ROOT)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_progression_round_records_its_mix():
    mix = inputs.describe(inputs.make_round("progressions", 1, 0))
    assert mix["source:planted"] == 6 and mix["source:perturbed"] == 3 and mix["source:transposed"] == 3
    assert mix["source:dataset"] == len(inputs.DATASET_JOBS)
    assert mix["n:12"] == 8 and mix["n:7"] == 2 and mix["n:24"] == 2


def test_planted_progressions_follow_their_element():
    for job in inputs.make_round("progressions", 5, 0):
        if job.get("planted") is not None:
            n, el = job["n"], job["planted"]
            assert all(ref.element_apply(el, a, n) == b for a, b in zip(job["tuples"], job["tuples"][1:]))


def test_reference_matrix_agrees_with_reference_action():
    for n in (7, 12):
        for el in [("(13)", 1, 2, 5), ("(123)", 0, n - 1, 3), ("id", 1, 0, 0)]:
            v = (1, 4, 9)
            assert ref.mat_vec(ref.element_matrix(el, n), v, n) == ref.element_apply(el, v, n)


# --- oracles ----------------------------------------------------------------


def _first(workload, kind, **match):
    for job in inputs.make_round(workload, 3, 0):
        if job["kind"] == kind and all(job.get(k) == v for k, v in match.items()):
            return job
    raise LookupError(kind)


def _rejects(job, result):
    with pytest.raises(oracles.OracleFailure):
        oracles.check(job, result)


def test_progression_oracle_rejects_corrupted_results():
    job = _first("progressions", "progression", source="planted", n=12, pair=None)
    job = dict(job, bruteforce_step=0)
    paired = next(j for j in inputs.make_round("progressions", 3, 0) if j.get("pair"))
    res, pres = jobs.run(job), jobs.run(paired)
    oracles.check(job, res)
    oracles.check(paired, pres)
    planted = [s for s in res["solutions"] if oracles.coords(s.element) == job["planted"]]
    _rejects(job, dict(res, solutions=[s for s in res["solutions"] if s not in planted]))
    wrong = dataclasses.replace(res["solutions"][0], matrix=jobs.L.Mat3.identity(12))
    _rejects(job, dict(res, solutions=[wrong] + res["solutions"][1:]))
    _rejects(job, dict(res, steps=[[]] + res["steps"][1:]))
    _rejects(job, dict(res, dot=res["dot"].replace(" -> ", " - ", 1)))
    _rejects(paired, dict(pres, morphisms=[]))


def test_algebra_oracle_rejects_corrupted_results():
    job = _first("algebra", "algebra", n=12)
    res = jobs.run(job)
    oracles.check(job, res)
    _rejects(job, dict(res, product=res["b"]))
    _rejects(job, dict(res, inverse=res["a"] * res["a"]))
    _rejects(job, dict(res, power=res["power"] * res["a"]))
    _rejects(job, dict(res, decoded=res["b"]))
    _rejects(job, dict(res, image=res["image"].shift(1)))
    _rejects(job, dict(res, j_order=res["j_order"] * 2))
    _rejects(job, dict(res, ext_order=res["ext_order"] + 1))


@pytest.mark.parametrize(
    "kind, match, corrupt",
    [
        ("center", {}, lambda r: r[:-1]),
        ("centralizer", {"ambient": "m3"}, lambda r: dataclasses.replace(r, elements=r.elements[1:], size=r.size - 1)),
        ("centralizer", {"ambient": "gl3"}, lambda r: dataclasses.replace(r, elements=r.elements[:1] * r.size)),
        ("centralizer", {"ambient": "aff"}, lambda r: dataclasses.replace(r, elements=r.elements[1:], size=r.size - 1)),
        ("count", {"ambient": "sl3"}, lambda r: r + 1),
        ("index", {"ambient": "GL3"}, lambda r: r - 1),
        ("conjugacy", {"within": "extension"}, lambda r: set(list(r)[1:])),
        ("orbit", {"group": "extension"}, lambda r: set(list(r)[1:])),
        ("duality", {}, lambda r: dataclasses.replace(r, is_dual_pair=not r.is_dual_pair)),
    ],
)
def test_structure_oracles_reject_corrupted_results(kind, match, corrupt):
    job = _first("structure", kind, n=6, **match)
    res = jobs.run(job)
    oracles.check(job, res)
    _rejects(job, corrupt(res))


def test_hook_and_table_oracles_reject_corrupted_results():
    job = _first("structure", "hook_all")
    res = jobs.run(job)
    oracles.check(job, res)
    u, h, back, form = res[0]
    _rejects(job, [(u, h, res[1][0], form)] + res[1:])
    _rejects(job, [(u, h, back, res[1][3])] + res[1:])
    job = _first("structure", "orbit_table")
    table = jobs.run(job)
    oracles.check(job, table)
    _rejects(job, {**table, (0, 4, 7): {"U": "L", "V": "R", "W": "P"}})


def test_cli_oracle_rejects_corrupted_results(tmp_path):
    job = _first("cli", "cli", subcommand="solve", format="json")
    jobs.write_files(job, str(tmp_path))
    code, stdout = jobs.cli_in_process(jobs.cli_argv(job, str(tmp_path)))
    good = subprocess.CompletedProcess(job["argv"], code, stdout, "")
    oracles.check(job, good, str(tmp_path))
    with pytest.raises(oracles.OracleFailure):
        oracles.check(job, subprocess.CompletedProcess([], 1, stdout, "boom"), str(tmp_path))
    payload = json.loads(stdout)
    payload["modulus"] = "twelve"
    with pytest.raises(oracles.OracleFailure):
        oracles.check(job, subprocess.CompletedProcess([], 0, json.dumps(payload, indent=2), ""), str(tmp_path))
    payload = json.loads(stdout)
    payload["solutions"] = payload["solutions"][1:]
    with pytest.raises(oracles.OracleFailure):
        oracles.check(job, subprocess.CompletedProcess([], 0, json.dumps(payload, indent=2), ""), str(tmp_path))


# --- tracing ----------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     a1 [2, 3]
    #   3   b  [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(tracing.self_times(start, end, parent)) == [3.0, 2.0, 1.0, 4.0]
    spans = {k: np.array(v) for k, v in {"start": start, "end": end, "parent": parent, "job": [0, 0, 0, 0]}.items()}
    assert tracing.accounting(spans) == {"max_gap_s": 0.0, "spans_outside_parent": 0}
    spans["end"][2] = 4.5  # a1 now ends after its parent a
    assert tracing.accounting(spans)["spans_outside_parent"] == 1


def test_tracer_nests_cross_layer_calls_and_restores_the_library():
    job = _first("progressions", "progression", source="planted", n=7)
    original = jobs.A.solve_linear
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert jobs.A.solve_linear is not original
        res = tracer.run_job(0, jobs.run, job)
    finally:
        tracer.uninstall()
    assert jobs.A.solve_linear is original
    oracles.check(job, res)
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    parents = [names[p] if p >= 0 else None for p in spans["parent"]]
    assert ("modring.solve_linear", "analysis.solve_step") in set(zip(names, parents))
    assert tracing.accounting(spans)["spans_outside_parent"] == 0
    assert tracing.accounting(spans)["max_gap_s"] < 1e-9
    metrics = tracing.layer_metrics(tracer)
    assert metrics["modring.solve_linear.calls"][0] == names.count("modring.solve_linear") > 0
    assert metrics["modring.candidates"][0] >= metrics["modring.solutions"][0] > 0


# --- sweep and measurement ----------------------------------------------------


def test_sweep_case_that_times_out_is_recorded():
    out = sweep.run_case(lambda: None, lambda _: time.sleep(5), timeout=0.05)
    assert out["status"] == "timeout" and 40_000 < out["us"] < 2_000_000


def test_sweep_case_refused_by_budget_is_recorded():
    out = sweep.run_case(lambda: 7, jobs.S.centralizer_in_M3)
    assert out["status"] == "budget_exceeded"


def test_sweep_case_that_finishes_reports_the_median():
    out = sweep.run_case(lambda: None, lambda _: None, budget=0.001)
    assert out["status"] == "ok" and out["reps"] >= 1 and out["us"] >= 0


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = list(range(1, 101))
    assert measure.tail(values) == (90, 90)
    value, pct = measure.tail(list(range(1, 1001)))
    assert pct == 99 and sum(v > value for v in range(1, 1001)) >= 10
    assert measure.tail([3, 1, 2]) == (3, 100)


def test_short_jobs_are_scaled_by_the_median_calibration_around_them():
    ref = measure.CAL_REF_S
    seconds = [0.01] * 10
    calibrations = [2 * ref] * 11
    calibrations[5] = 50 * ref  # one interrupted reading does not move a job
    scaled = measure.at_reference_speed(seconds, calibrations, [[]] * 10)
    assert scaled == pytest.approx([0.005] * 10)


def test_long_jobs_are_scaled_by_the_calibrations_taken_while_they_ran():
    ref = measure.CAL_REF_S
    during = [[ref, 3 * ref, 2 * ref], [ref, ref]]
    scaled = measure.at_reference_speed([1.0, 1.0], [4 * ref] * 3, during)
    # the first job has enough readings of its own; the second falls back to the bracketing ones
    assert scaled == pytest.approx([0.5, 0.25])
    with pytest.raises(ValueError):
        measure.at_reference_speed([1.0], [ref], [[]])


def test_speed_sampler_takes_readings_and_its_own_time_off_the_job():
    sampler = measure.SpeedSampler()
    with sampler:
        t_end = time.process_time() + 6 * measure.SAMPLE_CPU_S
        while time.process_time() < t_end:
            pass
    assert len(sampler.samples) >= 3 and all(s > 0 for s in sampler.samples)
    assert 0 < sampler.spent < 6 * measure.SAMPLE_CPU_S
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
