"""Spans around the calls into each voicegroup layer, recorded from outside.

``Tracer.install`` wraps each layer's public functions in every voicegroup
module namespace that holds them (so ``analysis.solve_linear`` and
``extension.decode`` are wrapped where they are called from), plus the
arithmetic methods of the layer's classes. A call made while a job runs
becomes a span: name, start, end, parent span and job id, kept in compact
arrays in memory and written out at the end. The benchmark's own job code is
the root span of each job, so its self time is the time no layer accounts
for.

Self time is a span's duration minus the time its child spans cover. Calls in
one thread nest, so the children of a span never overlap and "covered" is the
sum of their durations.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

from . import reference as ref

LAYERS = ("modring", "linalg", "voicing", "extension", "structure", "triadic", "analysis", "cli")
# Called inside nearly every operation; a span would cost more than the call.
PLUMBING = frozenset({"as_modulus", "check_same_modulus"})
# Methods of the value classes that do arithmetic. Constructors, predicates
# and accessors stay in their caller's self time.
METHODS = (
    "__mul__", "__matmul__", "__pow__", "inverse", "order", "matrix", "apply", "apply_triad", "compose", "trace",
)
JOB = "job"
# Time spent in the counting hooks below; benchmark overhead, not a layer.
HOOK = "trace.hook"
# The traced pass stops at the next job boundary beyond this many spans (~27 bytes each).
SPAN_LIMIT = 4_000_000


def _n(modulus) -> int:
    return int(getattr(modulus, "n", modulus))


def _solve_linear(counters, args, result):
    d = len(args["rows"][0])
    counters["modring.candidates"] += sum(q**d for q in ref.prime_powers(_n(args["modulus"])))
    counters["modring.solutions"] += len(result)


def _word_to_element(counters, args, result):
    word = args["word"]
    if hasattr(word, "__len__"):
        counters["voicing.word_to_element.letters"] += len(word)


def _orbit(counters, args, result):
    counters["triadic.orbit.states"] += len(result)


def _center(counters, args, result):
    n = _n(args["modulus"])
    counters["structure.candidates"] += (2 * n * n) ** 2


def _q9(counters, args, result):
    counters["structure.candidates"] += sum(q**9 for q in ref.prime_powers(_n(args["modulus"])))


# Counters computed from a call's arguments and result (not measured inside it).
HOOKS = {
    "modring.solve_linear": _solve_linear,
    "voicing.word_to_element": _word_to_element,
    "triadic.orbit": _orbit,
    "structure.center_of_J": _center,
    "structure.centralizer_in_M3": _q9,
    "structure.count_GL3": _q9,
    "structure.count_SL3": _q9,
}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


class Tracer:
    def __init__(self):
        self.names = [JOB, HOOK]
        self._name_ids = {JOB: 0, HOOK: 1}
        self.errors = [""]
        self._error_ids = {"": 0}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.error = array("B")
        self._stack = [-1]
        self.job_id = -1
        self.active = False
        self.counters: Counter = Counter()
        # "layer.name" -> (functools cache, its cache_info() at install)
        self.caches: dict = {}
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.name)

    def full(self) -> bool:
        return len(self.name) >= SPAN_LIMIT

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _error_id(self, exc: BaseException) -> int:
        key = type(exc).__name__
        if key not in self._error_ids:
            self._error_ids[key] = len(self.errors)
            self.errors.append(key)
        return self._error_ids[key]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error[i] = tracer._error_id(exc)
                raise
            finally:
                tracer._close(i)
            if hook is not None:
                h = tracer._open(tracer._name_ids[HOOK])
                try:
                    hook(tracer.counters, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    tracer._close(h)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer; recording starts only inside run_job."""
        modules = [m for k, m in list(sys.modules.items()) if k == "voicegroup" or k.startswith("voicegroup.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"voicegroup.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in PLUMBING or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth in METHODS:
                        fn = obj.__dict__.get(meth)
                        if isinstance(fn, types.FunctionType):
                            self._patch(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self.caches[f"{layer}.{attr}"] = (obj, obj.cache_info())
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._patch(m, k, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) as the root span of job `job_id` and return its result."""
        self.job_id = job_id
        self.active = True
        i = self._open(self._name_ids[JOB])
        try:
            return fn(*args)
        finally:
            self._close(i)
            self.active = False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "error": np.frombuffer(self.error, dtype=np.uint8),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), errors=np.array(self.errors), **self.arrays())


def accounting(spans: dict[str, np.ndarray]) -> dict:
    """Check that the spans nest and that self times add up to each job.

    Returns the largest gap, over jobs, between a job's duration and the sum
    of the self times of its spans, and the number of spans that lie outside
    their parent's interval.
    """
    selft = self_times(spans["start"], spans["end"], spans["parent"])
    roots = spans["parent"] < 0
    per_job = np.bincount(spans["job"], weights=selft)
    job_dur = np.zeros_like(per_job)
    job_dur[spans["job"][roots]] = (spans["end"] - spans["start"])[roots]
    child = ~roots
    p = spans["parent"][child]
    outside = (spans["start"][child] < spans["start"][p]) | (spans["end"][child] > spans["end"][p])
    return {
        "max_gap_s": float(np.max(np.abs(per_job - job_dur))) if len(per_job) else 0.0,
        "spans_outside_parent": int(np.count_nonzero(outside)),
    }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced pass, as name -> (value, unit)."""
    spans = tracer.arrays()
    names, parent, error = spans["name"], spans["parent"], spans["error"]
    dur = spans["end"] - spans["start"]
    selft = self_times(spans["start"], spans["end"], parent)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return names == ids.get(name, -1)

    def calls(name) -> float:
        return float(np.count_nonzero(mask(name)))

    def self_ms(name) -> float:
        return float(selft[mask(name)].sum() * 1e3)

    def us_per_call(name) -> float:
        m = mask(name)
        return float(dur[m].mean() * 1e6) if m.any() else 0.0

    def layer_self_ms(layer) -> float:
        lid = [i for n, i in ids.items() if n.split(".")[0] == layer]
        return float(selft[np.isin(names, lid)].sum() * 1e3)

    def raised(name, exc) -> float:
        return float(np.count_nonzero(mask(name) & (error == tracer._error_ids.get(exc, -1))))

    def under(child, parent_name) -> float:
        m = mask(child) & (parent >= 0)
        return float(np.count_nonzero(names[parent[m]] == ids.get(parent_name, -1)))

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    c = tracer.counters
    hits = misses = entries = 0
    if "extension.conjugate_j" in tracer.caches:
        conj, before = tracer.caches["extension.conjugate_j"]
        info = conj.cache_info()
        hits, misses, entries = info.hits - before.hits, info.misses - before.misses, info.currsize
    decode_calls = calls("voicing.decode")
    ext_decode_calls = calls("extension.ext_decode")
    solve_uniform_calls = calls("analysis.solve_uniform")
    m = {
        "modring.solve_linear.calls": (calls("modring.solve_linear"), "count"),
        "modring.solve_linear.us_per_call": (us_per_call("modring.solve_linear"), "us"),
        "modring.solve_linear.self_ms": (self_ms("modring.solve_linear"), "ms"),
        "modring.candidates": (float(c["modring.candidates"]), "count"),
        "modring.solutions": (float(c["modring.solutions"]), "count"),
        "modring.yield": (ratio(c["modring.solutions"], c["modring.candidates"]), "ratio"),
        "modring.budget_exceeded": (raised("modring.solve_linear", "BudgetExceeded"), "count"),
        "modring.self_ms": (layer_self_ms("modring"), "ms"),
        "linalg.mat_mul.calls": (calls("linalg.mat_mul"), "count"),
        "linalg.mat_vec.calls": (calls("linalg.mat_vec"), "count"),
        "linalg.self_ms": (layer_self_ms("linalg"), "ms"),
        "voicing.JElement.mul.calls": (calls("voicing.JElement.__mul__"), "count"),
        "voicing.self_ms": (layer_self_ms("voicing"), "ms"),
        "voicing.word_to_element.letters": (float(c["voicing.word_to_element.letters"]), "count"),
        "voicing.decode.calls": (decode_calls, "count"),
        "voicing.decode.miss_ratio": (ratio(raised("voicing.decode", "NotInJ"), decode_calls), "ratio"),
        "extension.ExtElement.mul.calls": (calls("extension.ExtElement.__mul__"), "count"),
        "extension.self_ms": (layer_self_ms("extension"), "ms"),
        "extension.conjugate_j.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "extension.conjugate_j.entries": (float(entries), "count"),
        "extension.ext_decode.attempts_per_call": (
            ratio(under("voicing.decode", "extension.ext_decode"), ext_decode_calls),
            "count",
        ),
        "extension.conjugacy_class.self_ms": (self_ms("extension.conjugacy_class"), "ms"),
    }
    for fn in ("center_of_J", "centralizer_in_M3", "centralizer_in_GL3", "centralizer_in_Aff", "count_GL3", "count_SL3"):
        m[f"structure.{fn}.self_ms"] = (self_ms(f"structure.{fn}"), "ms")
    m["structure.candidates"] = (float(c["structure.candidates"]), "count")
    m["structure.self_ms"] = (layer_self_ms("structure"), "ms")
    m.update(
        {
            "triadic.orbit.calls": (calls("triadic.orbit"), "count"),
            "triadic.orbit.states": (float(c["triadic.orbit.states"]), "count"),
            "triadic.rho.calls": (calls("triadic.rho"), "count"),
            "triadic.self_ms": (layer_self_ms("triadic"), "ms"),
            "analysis.solve_step.us_per_call": (us_per_call("analysis.solve_step"), "us"),
            "analysis.solve_uniform.calls": (solve_uniform_calls, "count"),
            "analysis.feasible_case_ratio": (
                ratio(under("modring.solve_linear", "analysis.solve_uniform"), solve_uniform_calls),
                "ratio",
            ),
            "analysis.self_ms": (layer_self_ms("analysis"), "ms"),
            "trace.unattributed_ms": (self_ms(JOB), "ms"),
        }
    )
    return m
