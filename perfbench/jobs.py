"""Run one generated job against the library and return what it produced.

Library functions are looked up on their modules at call time (``A.solve_step``
rather than a name imported once), so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import voicegroup
from voicegroup import analysis as A
from voicegroup import cli as C
from voicegroup import datasets as D
from voicegroup import extension as E
from voicegroup import linalg as L
from voicegroup import modring as R
from voicegroup import structure as S
from voicegroup import triadic as T
from voicegroup import voicing as V

from . import measure
from . import reference as ref



def ext_element(el: tuple, n: int):
    cycle, k, m, nn = el
    return E.ExtElement(L.Perm3.from_cycle(cycle), V.JElement(k, m, nn, R.Modulus(n)))


def vec(v: tuple, n: int):
    return L.Vec3.of(*v, n)


def progression(job: dict):
    if job["source"] == "dataset":
        return getattr(D, job["dataset"])
    return A.Progression.of(job["tuples"], job["n"], job["cyclic"])


def pair_progression(job: dict):
    if job["source"] == "dataset":
        return getattr(D, job["pair_dataset"]) if job["pair_dataset"] else None
    if job["pair"] is None:
        return None
    return A.Progression.of(job["pair"]["tuples"], job["n"], job["cyclic"])


def run_progression(job: dict) -> dict:
    prog = progression(job)
    solutions = A.solve_uniform_all_cases(prog)
    steps = [A.solve_step(src, dst, "extension") for src, dst in prog.steps()]
    labels = [solutions[0].element] * len(prog.steps()) if solutions else None
    dot = A.export_network_dot(prog, labels)
    pair = pair_progression(job)
    morphisms = A.find_affine_morphisms(prog, pair) if pair is not None else None
    return {"solutions": solutions, "steps": steps, "dot": dot, "morphisms": morphisms}


def run_algebra(job: dict) -> dict:
    n = job["n"]
    a = E.parse_element(job["a_text"], n)
    b = E.parse_element(job["b_text"], n)
    matrix = a.matrix()
    return {
        "a": a,
        "b": b,
        "product": a * b,
        "inverse": a.inverse(),
        "power": a ** job["t"],
        "image": a.apply(vec(job["v"], n)),
        "matrix": matrix,
        "decoded": E.ext_decode(matrix),
        "j_order": a.j.order(),
        "ext_order": a.order() if job["ext_order"] else None,
    }


def run_centralizer(job: dict):
    n, ambient = job["n"], job["ambient"]
    if ambient == "m3":
        return S.centralizer_in_M3(n)
    if ambient == "gl3":
        return S.centralizer_in_GL3(n)
    return S.centralizer_in_Aff(n, ambient == "affx")


def run_hook_all(job: dict) -> list:
    out = []
    for u in T.all_utts():
        h = T.rho(u)
        out.append((u, h, T.rho_inverse(h), T.hook_normal_form_B(h)))
    return out


def orbit_generators(group: str, n: int) -> list:
    return [ext_element(el, n) for el in ref.ORBIT_GENERATORS[group]]


RUNNERS = {
    "progression": run_progression,
    "algebra": run_algebra,
    "center": lambda job: S.center_of_J(job["n"]),
    "centralizer": run_centralizer,
    "count": lambda job: (S.count_GL3 if job["ambient"] == "gl3" else S.count_SL3)(job["n"]),
    "index": lambda job: S.index_of_J(job["n"], job["ambient"]),
    "conjugacy": lambda job: E.conjugacy_class(ext_element(job["a"], job["n"]), job["within"]),
    "orbit": lambda job: T.orbit(orbit_generators(job["group"], job["n"]), vec(job["seed"], job["n"])),
    "duality": lambda job: S.check_duality(vec(job["seed"], job["n"])),
    "hook_all": run_hook_all,
    "orbit_table": lambda job: S.orbit_restriction_table(12),
}


def cli_argv(job: dict, directory: str) -> list[str]:
    return [a.replace("{dir}", directory) for a in job["argv"]]


def write_files(job: dict, directory: str) -> None:
    for name, text in job.get("files", {}).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


# The checkout root: voicegroup is imported from <root>/src/voicegroup.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(voicegroup.__file__))))


def run_cli(job: dict, directory: str) -> subprocess.CompletedProcess:
    """One `python -m voicegroup.cli` process; a timeout kills it and raises."""
    return subprocess.run(
        [sys.executable, "-m", "voicegroup.cli"] + cli_argv(job, directory),
        capture_output=True,
        text=True,
        timeout=measure.TIMEOUT_S,
        env=measure.child_env(ROOT),
        check=False,
    )


def cli_in_process(argv: list[str]) -> tuple[int, str]:
    """cli.main in this process with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = C.main(argv)
    return code, out.getvalue()


def clear_caches() -> None:
    """Empty every functools cache in the library, so the next call runs cold."""
    for module in (R, L, V, E, S, T, A):
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run(job: dict, directory: str | None = None):
    if job["kind"] == "cli":
        return run_cli(job, directory)
    return RUNNERS[job["kind"]](job)
