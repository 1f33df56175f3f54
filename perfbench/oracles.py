"""Correctness oracles. They run outside the timed region, after each job.

``check(job, result)`` raises ``OracleFailure`` when a result is wrong; the
benchmark counts that job as failed. Wherever possible the expected answer
comes from ``reference`` (plain integers) or from a closed form, not from the
code path under test.
"""

from __future__ import annotations

import functools
import json
import os

from . import jobs
from . import reference as ref
from .jobs import A, L, S

# The restriction table the paper states (criterion 7 of the acceptance suite).
ORBIT_TABLE = {
    (0, 4, 7): {"U": "R", "V": "L", "W": "P"},
    (4, 7, 0): {"U": "L", "V": "P", "W": "R"},
    (7, 0, 4): {"U": "P", "V": "R", "W": "L"},
    (0, 7, 4): {"U": "P", "V": "L", "W": "R"},
    (4, 0, 7): {"U": "R", "V": "P", "W": "L"},
    (7, 4, 0): {"U": "L", "V": "R", "W": "P"},
}

# JSON schema shipped for each subcommand's payload
CLI_SCHEMAS = {
    "normal-form": "element",
    "solve": "solutions",
    "centralizer": "centralizer",
    "center": "center",
    "count": "count",
    "orbit": "orbit",
    "hook to-utt": "hook_to_utt",
    "hook from-utt": "element",
    "rich": "rich",
    "export-dot": "network",
}


class OracleFailure(AssertionError):
    """A job's result disagrees with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def coords(e) -> tuple:
    """An ExtElement as a reference element (cycle, k, m, n)."""
    return (e.sigma.cycle_notation(), e.j.k, e.j.m, e.j.n)


def rows(mat) -> tuple:
    return tuple(tuple(r) for r in mat.rows)


# --- progressions -----------------------------------------------------------


def check_progression(job: dict, res: dict) -> None:
    prog = jobs.progression(job)
    n = prog.modulus.n
    steps = prog.steps()
    for s in res["solutions"]:
        require(
            all(L.mat_vec(s.matrix, src) == dst for src, dst in steps),
            f"uniform solution {s} does not map every tuple to its successor",
        )
    planted = job.get("planted")
    if planted is not None:
        found = {coords(s.element) for s in res["solutions"]}
        require(planted in found, f"planted element {planted} missing from solve_uniform output")
    require(len(res["steps"]) == len(steps), "solve_step result count differs from the step count")
    for (src, dst), elements in zip(steps, res["steps"]):
        found = {coords(g) for g in elements}
        for el in found:
            require(ref.element_apply(el, src.entries, n) == dst.entries, f"solve_step gives {el} for {src} -> {dst}")
        require(planted is None or planted in found, f"planted element missing from solve_step({src}, {dst})")
    i = job.get("bruteforce_step")
    if i is not None:
        src, dst = steps[i]
        want = A.solve_step_bruteforce(src, dst, "extension")
        require(res["steps"][i] == want, f"solve_step({src}, {dst}) differs from solve_step_bruteforce")
    dot = res["dot"]
    require(dot.startswith("digraph") and dot.count(" -> ") == len(steps), "DOT export has the wrong edge count")
    pair = jobs.pair_progression(job)
    if pair is not None:
        u, q = job["pair"]["map"] if job["source"] != "dataset" else job["pair_map"]
        found = {(f.linear.rows[0][0], f.translation.entries[0]) for f in res["morphisms"] if f.is_componentwise()}
        require((u % n, q % n) in found, f"affine map x -> {u}x+{q} missing from find_affine_morphisms")
        for f in res["morphisms"]:
            require(
                all(L.mat_vec(f.linear, a) + f.translation == b for a, b in zip(prog.tuples, pair.tuples)),
                f"morphism {f} does not map the progression onto its pair",
            )


# --- algebra ----------------------------------------------------------------


def check_algebra(job: dict, res: dict) -> None:
    n = job["n"]
    ma, mb = ref.element_matrix(job["a"], n), ref.element_matrix(job["b"], n)
    require(rows(res["a"].matrix()) == ma, f"parse_element({job['a_text']!r}) has the wrong matrix")
    require(rows(res["b"].matrix()) == mb, f"parse_element({job['b_text']!r}) has the wrong matrix")
    require(rows(res["matrix"]) == ma, "matrix() disagrees with the reference matrix")
    require(rows(res["product"].matrix()) == ref.mat_mul(ma, mb, n), "a * b disagrees with the matrix product")
    require(
        ref.mat_mul(rows(res["inverse"].matrix()), ma, n) == ref.identity(n),
        "a.inverse() * a is not the identity",
    )
    t, power = job["t"], rows(res["power"].matrix())
    if t >= 0:
        require(power == ref.mat_pow(ma, t, n), f"a ** {t} disagrees with the matrix power")
    else:
        require(ref.mat_mul(power, ref.mat_pow(ma, -t, n), n) == ref.identity(n), f"a ** {t} * a ** {-t} != 1")
    require(res["image"].entries == ref.mat_vec(ma, job["v"], n), "a.apply(v) disagrees with the matrix action")
    require(res["decoded"] == res["a"], "ext_decode(a.matrix()) != a")
    mj = ref.element_matrix(("id",) + tuple(job["a"][1:]), n)
    require(ref.is_order(mj, res["j_order"], n), f"JElement.order() = {res['j_order']} is wrong")
    if res["ext_order"] is not None:
        require(ref.is_order(ma, res["ext_order"], n), f"ExtElement.order() = {res['ext_order']} is wrong")


# --- structure --------------------------------------------------------------


def _invertible(mat: tuple, n: int) -> bool:
    return ref.is_unit(ref.determinant(mat, n), n)


def check_center(job: dict, res: list) -> None:
    n = job["n"]
    require(len(res) == (4 if n % 2 == 0 else 1), f"|center| = {len(res)} for n = {n}")
    gens = [ref.generator(g, n) for g in ref.GENERATORS]
    for e in res:
        mat = ref.element_matrix(("id", e.k, e.m, e.n), n)
        require(all(ref.mat_mul(mat, g, n) == ref.mat_mul(g, mat, n) for g in gens), f"{e} is not central")


def check_centralizer(job: dict, report) -> None:
    n, ambient = job["n"], job["ambient"]
    closed = {rows(m) for m in S.monoid_centralizer_closed_form(n)}
    invertible = {m for m in closed if _invertible(m, n)}
    require(report.size == len(report.elements), "report size differs from its element count")
    if ambient in ("m3", "gl3"):
        want = closed if ambient == "m3" else invertible
        require({rows(m) for m in report.elements} == want, f"{ambient} centralizer differs from the closed form")
        return
    linear = closed if ambient == "aff" else invertible
    require(report.size == len(linear) * n, f"{ambient} centralizer has {report.size} maps, want {len(linear) * n}")
    for f in report.elements:
        t = f.translation.entries
        require(rows(f.linear) in linear and t[0] == t[1] == t[2], f"{f} is not in the {ambient} centralizer")


def _closed_order(ambient: str, n: int) -> int:
    return (S.gl3_order_closed_form if ambient.lower() == "gl3" else S.sl3_order_closed_form)(n)


def check_count(job: dict, count: int) -> None:
    want = _closed_order(job["ambient"], job["n"])
    require(count == want, f"{job['ambient']} count {count} != closed form {want}")


def check_index(job: dict, index: int) -> None:
    n = job["n"]
    want = _closed_order(job["ambient"], n) // (2 * n * n)
    require(index == want, f"index of J in {job['ambient']} is {index}, closed form gives {want}")


@functools.lru_cache(maxsize=None)
def _group_matrices(within: str, n: int) -> tuple:
    cycles = ("id",) if within == "J" else ref.CYCLES
    mats = [ref.element_matrix((c, k, m, nn), n) for c in cycles for k in (0, 1) for m in range(n) for nn in range(n)]
    return tuple((mat, _inverse_of(mat, n)) for mat in mats)


def check_conjugacy(job: dict, cls: set) -> None:
    n = job["n"]
    ma = ref.element_matrix(job["a"], n)
    want = {ref.mat_mul(ref.mat_mul(mg, ma, n), inv, n) for mg, inv in _group_matrices(job["within"], n)}
    require({rows(c.matrix()) for c in cls} == want, f"conjugacy class of {job['a']} within {job['within']} is wrong")


def _inverse_of(mat: tuple, n: int) -> tuple:
    """Inverse of a group matrix (determinant +-1) via the adjugate."""
    (a, b, c), (d, e, f), (g, h, i) = mat
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    det_inv = pow(ref.determinant(mat, n), -1, n)
    return tuple(tuple(x * det_inv % n for x in row) for row in adj)


def check_orbit(job: dict, states: set) -> None:
    n = job["n"]
    want = ref.orbit(ref.ORBIT_GENERATORS[job["group"]], tuple(job["seed"]), n)
    require({v.entries for v in states} == want, f"orbit of {job['seed']} under {job['group']} is wrong")


def check_duality(job: dict, report) -> None:
    n = job["n"]
    x, y, z = job["seed"]
    ti_orbit = {tuple((s * e + t) % n for e in (x, y, z)) for s in (1, -1) for t in range(n)}
    require(report.orbit_size == len(ti_orbit), f"T/I orbit size {report.orbit_size} != {len(ti_orbit)}")
    conj = (
        report.orbit_size == 2 * n
        and report.simply_transitive_contextual
        and report.simply_transitive_TI
        and report.mutually_commuting
    )
    require(report.is_dual_pair == conj, "is_dual_pair disagrees with its own conditions")


def check_hook_all(job: dict, res: list) -> None:
    require(len(res) == 288, f"{len(res)} UTTs, want 288")
    forms = set()
    for u, h, back, (p, nn) in res:
        require(back == u, f"rho_inverse(rho({u})) = {back}")
        require(0 <= p < 24 and 0 <= nn < 12, f"hook normal form B ({p}, {nn}) out of range")
        forms.add((p, nn))
    require(len(forms) == 288, "hook normal forms B are not distinct")


def check_orbit_table(job: dict, table: dict) -> None:
    require(table == ORBIT_TABLE, "orbit restriction table differs from the stated table")


# --- cli --------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cli_schema(name: str) -> dict:
    path = os.path.join(os.path.dirname(jobs.voicegroup.__file__), "schemas", f"{name}.schema.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_cli(job: dict, proc, directory: str) -> None:
    # imported here so that the in-process workloads' peak_rss_mb excludes it
    import jsonschema

    require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
    if job["format"] == "json":
        try:
            payload = json.loads(proc.stdout)
            jsonschema.validate(payload, cli_schema(CLI_SCHEMAS[job["subcommand"]]))
        except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
            raise OracleFailure(f"invalid JSON payload: {exc}") from None
    code, stdout = jobs.cli_in_process(jobs.cli_argv(job, directory))
    require(code == 0 and stdout == proc.stdout, "CLI output differs from the in-process cli.main result")


CHECKS = {
    "progression": check_progression,
    "algebra": check_algebra,
    "center": check_center,
    "centralizer": check_centralizer,
    "count": check_count,
    "index": check_index,
    "conjugacy": check_conjugacy,
    "orbit": check_orbit,
    "duality": check_duality,
    "hook_all": check_hook_all,
    "orbit_table": check_orbit_table,
}


def check(job: dict, result, directory: str | None = None) -> None:
    if job["kind"] == "cli":
        check_cli(job, result, directory)
    else:
        CHECKS[job["kind"]](job, result)

