"""Statistics, deadlines, resource readings and child environments for the benchmark."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import signal
import statistics
import time

# Limit on any one job, set-up probe or child process of the benchmark.
TIMEOUT_S = 120

# Host-speed calibration. The shared host this benchmark runs on changes
# speed by up to 1.8x within a fraction of a second, so raw job times of the
# same code spread by 20-30% from run to run. A fixed pure-stdlib loop
# (calibration_s) runs before every timed job and, for long jobs, every 20 ms
# inside it (SpeedSampler), and a job's time is reported at the reference
# speed: measured * CAL_REF_S / the calibration time around or during it
# (at_reference_speed). The loop does what
# the library does most, small-object arithmetic, method calls, tuple keys and
# dict lookups, because that tracks the host's slow phases far better than
# integer arithmetic alone. It runs no library code and holds the garbage
# collector off, so nothing the library does, caches included, can change its
# time; only the host can.
CAL_ITERS = 800
# Seconds one calibration loop took in the host's fast state when the
# benchmark was written (2-vCPU Xeon VM, Python 3.11). It only sets the scale:
# a reported time is what the job would take at that speed.
CAL_REF_S = 0.65e-3
# Jobs on each side whose calibrations also scale a short job (see at_reference_speed).
CAL_WINDOW = 3
# CPU seconds between calibrations taken while a job runs (SpeedSampler), and
# how many a job needs to be scaled by them alone.
SAMPLE_CPU_S = 0.02
MIN_SAMPLES = 3


class _Triple:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self.a, self.b, self.c = a, b, c

    def times(self, other: "_Triple", n: int) -> "_Triple":
        return _Triple((self.a + other.b) % n, (self.b * other.c + 1) % n, self.c ^ other.a)

    def key(self) -> tuple:
        return (self.a, self.b, self.c)


def calibration_s() -> float:
    """Seconds for the fixed calibration loop, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, g, seen = _Triple(1, 2, 3), _Triple(5, 7, 11), {}
        for _ in range(CAL_ITERS):
            x = x.times(g, 1009)
            k = x.key()
            seen[k] = seen.get(k, 0) + len(str(x.a))
            if len(seen) > 64:
                seen.clear()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed


class SpeedSampler:
    """Calibrations taken while a job runs, for jobs too long to scale by their ends.

    Inside `with sampler:`, every SAMPLE_CPU_S of this process's CPU time a
    SIGPROF handler runs the calibration loop and adds its reading to
    `samples`, and the time the handler took to `spent`, which the caller
    takes off the job's latency. Jobs that wait for a child process use no
    CPU and get no samples.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False


def at_reference_speed(seconds: list[float], calibrations: list[float], during: list[list[float]]) -> list[float]:
    """Each of `seconds` scaled to the reference speed.

    calibrations[j] was taken just before job j and calibrations[j + 1] just
    after it; during[j] holds the readings a SpeedSampler took while job j ran.
    A job with at least MIN_SAMPLES of those is scaled by their mean, since
    they are spread evenly over its run. A shorter job is scaled by the median
    of the calibrations within CAL_WINDOW jobs of it: one calibration can catch
    an interrupt.
    """
    if len(calibrations) != len(seconds) + 1 or len(during) != len(seconds):
        raise ValueError("need one calibration before each job and one after the last")
    out = []
    for j, s in enumerate(seconds):
        if len(during[j]) >= MIN_SAMPLES:
            speed = statistics.fmean(during[j])
        else:
            speed = statistics.median(calibrations[max(0, j - CAL_WINDOW) : j + CAL_WINDOW + 2])
        out.append(s * CAL_REF_S / speed)
    return out


class Deadline(BaseException):
    """Raised inside a call that ran past its time limit.

    A BaseException, so that no `except Exception` in the code under test can
    swallow it.
    """


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise Deadline in this (main) thread once `seconds` have passed."""

    def expire(signum, frame):
        raise Deadline(f"no result after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with >= 10 samples above it.

    Nearest-rank percentiles. With 10 samples or fewer no percentile has ten
    above it, and the maximum (percentile 100) is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    p = min(99, (100 * (n - 10)) // n)
    while p > 0:
        idx = max(0, math.ceil(p * n / 100) - 1)
        if n - 1 - idx >= 10:
            return ordered[idx], p
        p -= 1
    return ordered[0], 0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's src/ and root first on the path."""
    env = dict(os.environ)
    paths = (os.path.join(root, "src"), root, env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env
