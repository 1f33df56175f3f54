"""Orchestration of one benchmark run; see run.py for the command line."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter

import numpy

from . import inputs, jobs, measure, oracles, sweep, tracing

ROOT = jobs.ROOT
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
CLI_LAYER_REPS = 5
MAX_FAILURE_MESSAGES = 5


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = os.path.join(git, ref_name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh interpreters (see probe.py), SETUP_PROBES times."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=measure.TIMEOUT_S,
            env=measure.child_env(ROOT),
            cwd=ROOT,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Loop:
    """The closed-loop client: runs jobs one after another and checks each result.

    With `sample`, a SpeedSampler takes calibrations while each job runs (see
    measure.py). The traced run goes without, so that no calibration time
    lands in a library span.
    """

    def __init__(self, directory: str, tracer=None, sample: bool = True):
        self.directory = directory
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: list[float] = []  # each job's latency as measured
        self.calibrations: list[float] = []  # taken just before each job
        self.during: list[list[float]] = []  # taken while each job ran
        self.sampler = measure.SpeedSampler() if sample else None

    def run(self, job: dict, job_id: int = 0) -> None:
        """Run and check one job, recording its latency."""
        if job["kind"] == "cli":
            jobs.write_files(job, self.directory)
        error = None
        self.calibrations.append(measure.calibration_s())
        t0 = time.perf_counter()
        try:
            with self.sampler or contextlib.nullcontext():
                if self.tracer is not None:
                    result = self.tracer.run_job(job_id, self._call, job)
                else:
                    result = self._call(job)
        except measure.Deadline as exc:
            error = f"timeout: {exc}"
        except Exception as exc:  # a failing job is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if self.sampler is None:
            self.seconds.append(latency)
            self.during.append([])
        else:
            self.seconds.append(latency - self.sampler.spent)
            self.during.append(self.sampler.samples)
        if error is None:
            try:
                oracles.check(job, result, self.directory)
            except Exception as exc:  # an oracle that cannot read the result rejects it too
                error = f"oracle {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{job['kind']} (n={job.get('n')}): {error}"[:400])

    def scaled(self) -> list[float]:
        """Every job's latency so far, in seconds at the reference speed (see measure.py)."""
        return measure.at_reference_speed(self.seconds, self.calibrations + [measure.calibration_s()], self.during)

    def _call(self, job: dict):
        if job["kind"] == "cli":  # the subprocess has its own timeout
            return jobs.run(job, self.directory)
        with measure.deadline(measure.TIMEOUT_S):
            return jobs.run(job, self.directory)


def timed_rounds(workload: str, seed: int, seconds: float, loop: Loop) -> tuple[int, Counter]:
    """Run the fixed number of rounds `seconds` stands for; returns (rounds, mix)."""
    count = inputs.round_count(workload, seconds)
    mix: Counter = Counter()
    for r in range(count):
        batch = inputs.make_round(workload, seed, r)
        mix.update(inputs.describe(batch))
        for job in batch:
            loop.run(job)
    return count, mix


def cli_layer(seed: int, directory: str) -> dict[str, float]:
    """Interpreter start, import, and in-process cli.main per subcommand, in ms."""
    def wall_ms(cmd) -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=measure.child_env(ROOT), check=True, capture_output=True, timeout=measure.TIMEOUT_S)
        return (time.perf_counter() - t0) * 1e3

    out = {
        "cli.interpreter_ms": measure.median([wall_ms([sys.executable, "-c", "pass"]) for _ in range(CLI_LAYER_REPS)]),
        "cli.import_ms": measure.median(
            [wall_ms([sys.executable, "-c", "import voicegroup.cli"]) for _ in range(CLI_LAYER_REPS)]
        ),
    }
    for job in inputs.make_round("cli", seed, 0) + inputs.make_round("cli", seed, 1):
        key = f"cli.main_ms.{job['argv'][0]}"
        if job["format"] != "json" or key in out:
            continue
        jobs.write_files(job, directory)
        argv = jobs.cli_argv(job, directory)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            code, _ = jobs.cli_in_process(argv)
            times.append((time.perf_counter() - t0) * 1e3)
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) exited with {code}")
        out[key] = measure.median(times)
    return out


def end_to_end(args, loop: Loop, record: dict) -> dict[str, float]:
    setup = setup_seconds(args.workload, args.seed)
    for job in inputs.warmup_jobs(args.workload, args.seed):
        loop.run(job)
    start = len(loop.seconds)
    rounds, mix = timed_rounds(args.workload, args.seed, args.seconds, loop)
    peak = measure.peak_rss_mb(children=args.workload == "cli")
    latencies = loop.scaled()[start:]
    tail_ms, pct = measure.tail([x * 1e3 for x in latencies])
    record.update(
        {
            "samples": {"jobs": len(latencies), "rounds": rounds, "setup_probes": len(setup)},
            "timed_s": sum(latencies),
            "timed_s_as_measured": sum(loop.seconds[start:]),
            "job_p50_ms_as_measured": measure.median(loop.seconds[start:]) * 1e3,
            "job_tail_percentile": pct,
            "setup_s_runs": setup,
            "mix": dict(sorted(mix.items())),
        }
    )
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": measure.median(latencies) * 1e3,
        "job_tail_ms": tail_ms,
        "setup_s": measure.median(setup),
        "peak_rss_mb": peak,
    }


def per_layer(args, loop: Loop, record: dict, directory: str) -> dict[str, float]:
    job_set = [job for r in range(inputs.TRACE_ROUNDS[args.workload]) for job in inputs.make_round(args.workload, args.seed, r)]
    for job in inputs.warmup_jobs(args.workload, args.seed):
        loop.run(job)
    jobs.clear_caches()
    start = len(loop.seconds)
    for job in job_set:
        loop.run(job)
    untraced = loop.scaled()[start:]
    jobs.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    traced_loop = Loop(directory, tracer, sample=False)
    try:
        for i, job in enumerate(job_set):
            if tracer.full():
                break
            traced_loop.run(job, i)
    finally:
        tracer.uninstall()
    traced = traced_loop.scaled()
    loop.attempted += traced_loop.attempted
    loop.failures += traced_loop.failures
    metrics = {name: value for name, (value, _unit) in tracing.layer_metrics(tracer).items()}
    record["accounting"] = tracing.accounting(tracer.arrays())
    record["spans"] = len(tracer)
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced[: len(traced)])
    cases = sweep.sweep(args.seed)
    for name, case in cases.items():
        metrics[name] = case["us"]
    metrics["sweep.timeouts"] = float(sum(c["status"] == "timeout" for c in cases.values()))
    metrics["sweep.budget_exceeded"] = float(sum(c["status"] == "budget_exceeded" for c in cases.values()))
    metrics.update(cli_layer(args.seed, directory))
    record.update(
        {
            "samples": {"jobs": len(job_set), "traced_jobs": len(traced), "sweep_cases": len(cases)},
            "sweep": {name: case["status"] for name, case in cases.items()},
            "mix": inputs.describe(job_set),
        }
    )
    return metrics


def emit(values: dict[str, float], declared: list[dict], record: dict, loop: Loop) -> dict:
    """Order values as declared, print each with its unit; the declared set must be produced exactly."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    ratio = len(loop.failures) / loop.attempted
    print(f"failed_ratio = {ratio:.6g} ({len(loop.failures)}/{loop.attempted})")
    for message in loop.failures[:MAX_FAILURE_MESSAGES]:
        print(f"failure: {message}")
    record.update({"attempted": loop.attempted, "failed": len(loop.failures), "failed_ratio": ratio,
                   "failures": loop.failures[:MAX_FAILURE_MESSAGES]})
    return metrics


def run(args) -> int:
    declared = declared_metrics()
    # One CPU for this process and every child it starts: the calibrations
    # (measure.py) then read the speed of the CPU the job, or the cli
    # workload's child process, runs on. Jobs run one at a time anyway. The
    # highest-numbered CPU, as the lowest tends to take the most interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    directory = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)
    loop = Loop(directory, sample=not args.trace)
    try:
        if args.trace:
            values, kind = per_layer(args, loop, record, directory), "per_layer"
        else:
            values, kind = end_to_end(args, loop, record), "end_to_end"
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    metrics = emit(values, declared[kind], record, loop)
    print("record: " + json.dumps(record, sort_keys=True))
    path = os.path.join(OUT, f"record-{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1, sort_keys=True)
    summary = {"correct": not loop.failures, "attempted": loop.attempted, "failed": len(loop.failures)}
    print(json.dumps(dict(summary, metrics=metrics)))
    return 0
