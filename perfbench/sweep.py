"""Modulus sweep: one operation at a time over n in SWEEP_MODULI.

Each case is timed untraced, with its own deadline. A case that runs out of
time, or that the library refuses with BudgetExceeded, is recorded as a
result with that status and the time it took to get there, never raised.
"""

from __future__ import annotations

import random
import time

from . import jobs
from . import measure
from . import reference as ref
from .jobs import A, E, R, S, V

SWEEP_MODULI = (7, 12, 24, 36, 60, 1009)
SWEEP_OPS = (
    "jelement_mul",
    "jelement_order",
    "ext_mul_cold",
    "ext_order",
    "ext_decode",
    "solve_step",
    "center_of_J",
    "centralizer_in_M3",
)
CASE_TIMEOUT_S = 1.0
# Repeat a case until this much time is spent (at least once), then report the median.
CASE_BUDGET_S = 0.15
MAX_REPS = 50


def _element(rng: random.Random, n: int) -> tuple:
    return (rng.choice(ref.CYCLES[1:]), rng.randrange(2), rng.randrange(n), rng.randrange(n))


def _case(op: str, n: int, rng: random.Random):
    """(prepare, call): prepare runs untimed before each repetition and returns call's argument."""
    if op == "jelement_mul":
        a = V.JElement(rng.randrange(2), rng.randrange(n), rng.randrange(n), R.Modulus(n))
        b = V.JElement(rng.randrange(2), rng.randrange(n), rng.randrange(n), R.Modulus(n))
        return (lambda: (a, b)), (lambda ab: ab[0] * ab[1])
    if op == "jelement_order":
        a = V.JElement(0, rng.randrange(1, n), rng.randrange(n), R.Modulus(n))
        return (lambda: a), (lambda x: x.order())
    if op == "ext_mul_cold":
        def prepare():
            jobs.clear_caches()
            return jobs.ext_element(_element(rng, n), n), jobs.ext_element(_element(rng, n), n)
        return prepare, (lambda ab: ab[0] * ab[1])
    if op == "ext_order":
        a = jobs.ext_element(_element(rng, n), n)
        return (lambda: a), (lambda x: x.order())
    if op == "ext_decode":
        m = jobs.ext_element(_element(rng, n), n).matrix()
        return (lambda: m), E.ext_decode
    if op == "solve_step":
        src = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        dst = ref.element_apply(_element(rng, n), src, n)
        pair = (jobs.vec(src, n), jobs.vec(dst, n))
        return (lambda: pair), (lambda p: A.solve_step(p[0], p[1], "extension"))
    if op == "center_of_J":
        return (lambda: n), S.center_of_J
    if op == "centralizer_in_M3":
        return (lambda: n), S.centralizer_in_M3
    raise ValueError(f"unknown sweep op {op!r}")


def run_case(prepare, call, timeout: float = CASE_TIMEOUT_S, budget: float = CASE_BUDGET_S) -> dict:
    """Time call(prepare()) repeatedly; a timeout or BudgetExceeded ends the case as its result."""
    times: list[float] = []
    while not times or (sum(times) < budget and len(times) < MAX_REPS):
        arg = prepare()
        t0 = time.perf_counter()
        try:
            with measure.deadline(timeout):
                t0 = time.perf_counter()
                call(arg)
                t1 = time.perf_counter()
        except measure.Deadline:
            return {"status": "timeout", "us": (time.perf_counter() - t0) * 1e6, "reps": len(times)}
        except R.BudgetExceeded:
            return {"status": "budget_exceeded", "us": (time.perf_counter() - t0) * 1e6, "reps": len(times)}
        times.append(t1 - t0)
    return {"status": "ok", "us": measure.median(times) * 1e6, "reps": len(times)}


def sweep(seed: int) -> dict[str, dict]:
    """Every (op, n) case: 'sweep.<op>.us.n<N>' -> {status, us, reps}."""
    out = {}
    for op in SWEEP_OPS:
        for n in SWEEP_MODULI:
            rng = random.Random(f"sweep:{seed}:{op}:{n}")
            prepare, call = _case(op, n, rng)
            out[f"sweep.{op}.us.n{n}"] = run_case(prepare, call)
    jobs.clear_caches()
    return out
