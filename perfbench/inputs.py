"""Seeded inputs for the four workloads.

Every job is plain data (ints, strings, tuples), so the library receives only
what this module generates, and the same seed gives the same jobs. A workload
runs in rounds: the kinds and moduli of a round's jobs are fixed, and the seed
picks only their arguments, so the cost of a round barely depends on the seed.
Round ``r`` of workload ``w`` draws from ``random.Random(f"{w}:{seed}:{r}")``,
which is stable across processes and Python hash seeds.

This module imports only the standard library, so generating inputs stays
outside the setup time measured for the library.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

from . import reference as ref


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _element(rng: random.Random, n: int, cycles=ref.CYCLES) -> tuple:
    return (rng.choice(cycles), rng.randrange(2), rng.randrange(n), rng.randrange(n))


def _vec(rng: random.Random, n: int) -> tuple:
    return (rng.randrange(n), rng.randrange(n), rng.randrange(n))


# --- progressions -----------------------------------------------------------
# Why: this is the music-analysis path (analysis + modring on 1x2 and Lx2
# systems). At n = 12 solve_step spends most of its time in solve_linear, and
# conjugation is never called. The three generated kinds differ in how far a
# (sigma, k) case gets: planted progressions have feasible cases that reach
# solve_linear, perturbed ones mostly exit at the constant-diagonal test first,
# and transposed copies repeat an earlier job's linear systems exactly (shared
# work a solver cache could reuse).

# The generated jobs of a round: (kind, modulus, paired with an affine image,
# d, tuples). d is the start voicing's gcd(z - x, z - y, n), which every tuple
# keeps, and each feasible (sigma, k) case has d^2 solutions. Fixing d and the
# length per slot keeps the share of large outputs the same in every round, so
# the seed cannot swing the round's cost. A transposed slot copies the slot
# before it.
PROGRESSION_SLOTS = (
    ("planted", 12, True, 1, 8),
    ("planted", 12, False, 2, 12),
    ("perturbed", 12, False, 1, 10),
    ("transposed", 12, False, None, None),
    ("planted", 7, False, 1, 6),
    ("perturbed", 7, False, 1, 14),
    ("planted", 24, True, 1, 5),
    ("transposed", 24, False, None, None),
    ("planted", 12, False, 3, 16),
    ("perturbed", 12, True, 4, 7),
    ("transposed", 12, False, None, None),
    ("planted", 12, False, 6, 4),
)

# The worked progressions of voicegroup.datasets, run as fixed jobs every round.
# A pair names the dataset's documented affine image, x -> u*x + q.
DATASET_JOBS = (
    ("GRAIL", None, None),
    ("FALLING_FIFTHS", None, None),
    ("WEBERN_ROW_1", "WEBERN_ROW_2", (1, -2)),
    ("WEBERN_ROW_2", None, None),
    ("SCHOENBERG_OCTATONIC", "SCHOENBERG_JET_SHARK", (7, 7)),
    ("SCHOENBERG_JET_SHARK", None, None),
    ("HYMN_TO_THE_SUN", "WITHOUT_A_SONG", (2, 0)),
    ("WITHOUT_A_SONG", None, None),
)


def _voicing(rng: random.Random, n: int, d: int = 1) -> tuple:
    """A random voicing (x, y, z) with gcd(z - x, z - y, n) = d.

    The group acts invertibly on these differences, so d fixes how large the
    voicing's orbits and solution sets are (d = 1 is the generic case).
    """
    a, b = rng.randrange(n), rng.randrange(n)
    while math.gcd(a, b, n) != d:
        a, b = rng.randrange(n), rng.randrange(n)
    z = rng.randrange(n)
    return ((z - a) % n, (z - b) % n, z)


def _planted(rng: random.Random, n: int, d: int = 1, length: int | None = None, kind: int | None = None) -> tuple[tuple, list[tuple]]:
    """A random element and `length` tuples it carries each to the next; d as in _voicing.

    `kind` in 0..11, if given, fixes the element's permutation and reflection
    bit, and only its translation part is drawn.
    """
    if kind is None:
        el = _element(rng, n)
    else:
        el = (ref.CYCLES[kind % 6], (kind // 6) % 2, rng.randrange(n), rng.randrange(n))
    v = _voicing(rng, n, d)
    tuples = [v]
    for _ in range((length or rng.randint(4, 16)) - 1):
        v = ref.element_apply(el, v, n)
        tuples.append(v)
    return el, tuples


def progressions_round(seed: int, index) -> list[dict]:
    """The slots of PROGRESSION_SLOTS, with the dataset jobs interleaved.

    How many (sigma, k) cases of a progression are feasible, and so what it
    costs, depends most on the planted element's permutation and reflection
    bit: an identity permutation costs about twice what a 3-cycle does. These
    cycle through all 12 combinations over 12 rounds instead of being drawn,
    so every run has the same mix of them.
    """
    rng = _rng("progressions", seed, index)
    r = index if isinstance(index, int) else 0
    generated = []
    for slot, (kind, n, paired, d, length) in enumerate(PROGRESSION_SLOTS):
        if kind == "transposed":
            source = generated[-1]
            t = rng.randrange(1, n)
            tuples = [tuple((x + t) % n for x in v) for v in source["tuples"]]
            planted = source["planted"]
        else:
            planted, tuples = _planted(rng, n, d, length, r + slot)
            if kind == "perturbed":
                i, j = rng.randrange(1, len(tuples)), rng.randrange(3)
                v = list(tuples[i])
                v[j] = (v[j] + rng.randrange(1, n)) % n
                tuples[i] = tuple(v)
                planted = None
        job = {
            "kind": "progression",
            "source": kind,
            "n": n,
            "tuples": tuples,
            "cyclic": False,
            "planted": planted,
            "pair": None,
            "bruteforce_step": None,
        }
        if paired:
            u, q = rng.randrange(1, n), rng.randrange(n)
            job["pair"] = {
                "map": (u, q),
                "tuples": [tuple((u * x + q) % n for x in v) for v in tuples],
            }
        generated.append(job)
    # one seeded step per round is also checked against solve_step_bruteforce
    sample = rng.choice(generated)
    sample["bruteforce_step"] = rng.randrange(len(sample["tuples"]) - 1)
    datasets = [
        {"kind": "progression", "source": "dataset", "dataset": name, "pair_dataset": pair, "pair_map": fmap}
        for name, pair, fmap in DATASET_JOBS
    ]
    # interleave so the fixed dataset jobs spread over the round
    out = []
    for i, job in enumerate(generated):
        out.append(job)
        if i < len(datasets):
            out.append(datasets[i])
    return out


# --- algebra ----------------------------------------------------------------
# Why: the only workload where conjugation and conjugate_j's unbounded cache
# dominate. Fresh random elements every round keep the cache cold at n = 1009
# while it turns warm at n = 12 (twice per round), so the cache's memory shows
# in peak_rss_mb. solve_linear is never called, so a modring change should
# leave this workload unchanged.

ALGEBRA_MODULI = (7, 12, 12, 24, 36, 60, 1009)
# ExtElement.order is a loop over powers; one call takes ~12 s at n = 1009.
EXT_ORDER_MAX_MODULUS = 60
TRANSPOSITIONS = ("(12)", "(13)", "(23)")
# Exponents of a ** t; they differ in how many products the power takes, and
# the negative ones go through inverse().
POWERS = (2, -3, 5, -6, 7, -9, 11, -12, 13, -14, 15, -16)


def algebra_round(seed: int, index) -> list[dict]:
    """One job per modulus.

    A job's cost depends mostly on the permutations and reflection bits of a
    and b (which products need a conjugation, how long the order loops run)
    and on t. These cycle through all 12 combinations and all of POWERS over
    12 rounds instead of being drawn, so every 12 rounds cost about the same;
    the exponents m, n are drawn, with gcd(m, n, N) = 1 for a. Where the
    order loop runs, a transposition's order still ranges from 2 to 2N with
    m and n, so a is redrawn until it has the generic order 2N.
    """
    rng = _rng("algebra", seed, index)
    r = index if isinstance(index, int) else 0
    out = []
    for i, n in enumerate(ALGEBRA_MODULI):
        c = r + i
        cycle, k = ref.CYCLES[c % 6], (c // 6) % 2
        while True:
            m, nn = rng.randrange(n), rng.randrange(n)
            if math.gcd(m, nn, n) != 1:
                continue
            a = (cycle, k, m, nn)
            if n > EXT_ORDER_MAX_MODULUS or cycle not in TRANSPOSITIONS:
                break
            if ref.is_order(ref.element_matrix(a, n), 2 * n, n):
                break
        b = (ref.CYCLES[(c + 2) % 6], c % 2, rng.randrange(n), rng.randrange(n))
        out.append(
            {
                "kind": "algebra",
                "n": n,
                "a": a,
                "b": b,
                "a_text": ref.element_text(a),
                "b_text": ref.element_text(b),
                "t": POWERS[c % 12],
                "v": _vec(rng, n),
                "ext_order": n <= EXT_ORDER_MAX_MODULUS,
            }
        )
    return out


# --- structure --------------------------------------------------------------
# Why: structural queries use modring very differently from progressions:
# 9-unknown scans with many candidates and few solutions instead of 1x2
# systems. The round also holds the O(n^4) center, the q^9 GL/SL counts, and
# conjugation with a warm cache at small n, so a change that removes the cache
# has to show that it costs nothing here. The moduli are the n <= 20 with at
# least two prime-power factors q, all with q^9 <= the default budget.

STRUCTURE_MODULI = (6, 10, 12, 15, 20)


def structure_round(seed: int, index) -> list[dict]:
    rng = _rng("structure", seed, index)
    out = []
    for n in STRUCTURE_MODULI:
        out.append({"kind": "center", "n": n})
        for ambient in ("m3", "gl3", "aff", "affx"):
            out.append({"kind": "centralizer", "n": n, "ambient": ambient})
        for ambient in ("gl3", "sl3"):
            out.append({"kind": "count", "n": n, "ambient": ambient})
            out.append({"kind": "index", "n": n, "ambient": ambient.upper()})
        for within in ("J", "extension"):
            cycles = ("id",) if within == "J" else ref.CYCLES
            out.append({"kind": "conjugacy", "n": n, "within": within, "a": _element(rng, n, cycles)})
        # Generic voicings, so orbit sizes (and costs) do not depend on the
        # seed. Four orbits per generator set put the median job of the round
        # well inside the many light jobs of similar cost instead of near the
        # gap between light and heavy ones.
        for group in ref.ORBIT_GENERATORS:
            for _ in range(4):
                out.append({"kind": "orbit", "n": n, "group": group, "seed": _voicing(rng, n)})
        out.append({"kind": "duality", "n": n, "seed": _voicing(rng, n)})
        if n == 12:
            out.append({"kind": "hook_all", "n": 12})
            out.append({"kind": "orbit_table", "n": 12})
    return out


# --- cli --------------------------------------------------------------------
# Why: the only workload that pays interpreter start and imports on every job,
# so lazy imports, or anything that changes numpy's import, shows only here.
# Each invocation alternates between text and json output from round to round,
# so two rounds cover every README subcommand in both formats. Progression
# files are written to a scratch directory before the round starts; "{dir}"
# in an argument stands for that directory.

ORBIT_GROUPS = tuple(ref.ORBIT_GENERATORS)
CENTRALIZER_AMBIENTS = ("m3", "gl3", "aff", "affx")


def _progression_file(n: int, tuples: list[tuple]) -> str:
    return json.dumps({"modulus": n, "cyclic": False, "tuples": [list(v) for v in tuples]})


def cli_round(seed: int, index) -> list[dict]:
    rng = _rng("cli", seed, index)
    r = index if isinstance(index, int) else 0
    planted12, tuples12 = _planted(rng, 12)
    _, tuples7 = _planted(rng, 7)
    files = {"p12.json": _progression_file(12, tuples12), "p7.json": _progression_file(7, tuples7)}
    sigma, k = planted12[0], str(planted12[1])
    word = "".join(rng.choice("UVW") for _ in range(rng.randint(1, 8)))
    matrix = ref.element_matrix(_element(rng, 7), 7)
    hook_el = rng.choice((("id", 0), ("(13)", 1))) + (rng.randrange(12), rng.randrange(12))
    utt = f"<{rng.choice('+-')},{rng.randrange(12)},{rng.randrange(12)}>"
    invocations = [
        ["normal-form", "--word", word, "--mod", "12"],
        ["normal-form", "--matrix", json.dumps([list(row) for row in matrix]), "--mod", "7"],
        ["solve", "{dir}/p12.json", "--sigma", sigma, "--k", k],
        ["solve", "{dir}/p7.json"],
        ["centralizer", "--ambient", CENTRALIZER_AMBIENTS[r % 4], "--mod", "12"],
        ["center", "--mod", "12"],
        ["count", ("gl3", "sl3")[r % 2], "--mod", "12"],
        ["orbit", "--seed", ",".join(map(str, _vec(rng, 12))), "--group", ORBIT_GROUPS[r % 5], "--mod", "12"],
        ["hook", "to-utt", "--element", ref.element_text(hook_el)],
        ["hook", "from-utt", "--utt", utt],
        ["rich", "--seed", ",".join(map(str, _vec(rng, 12))), "--steps", str(rng.randint(1, 24))],
        ["export-dot", "{dir}/p12.json", "--sigma", sigma, "--k", k],
    ]
    out = []
    for i, argv in enumerate(invocations):
        formats = ("dot", "json") if argv[0] == "export-dot" else ("text", "json")
        fmt = formats[(i + r) % 2]
        out.append(
            {
                "kind": "cli",
                "subcommand": argv[0] if argv[0] != "hook" else f"hook {argv[1]}",
                "format": fmt,
                "argv": argv + ["--format", fmt],
                "files": files,
            }
        )
    return out


ROUNDS = {
    "progressions": progressions_round,
    "algebra": algebra_round,
    "structure": structure_round,
    "cli": cli_round,
}

# Seconds of --seconds that one round stands for. A run of --seconds s does
# round(s / ROUND_SECONDS) rounds, at least one: every run of every commit
# does the same work for the same --seconds, so a faster commit finishes
# sooner, and caches that warm up over a run (conjugate_j in algebra) see the
# same calls whatever the host's speed. At --seconds 15 a run does 50
# progression rounds, 115 algebra rounds, 2 structure rounds and 6 cli rounds:
# enough jobs for steady medians and tails in each, with every run of every
# workload ending within a minute on a 2-vCPU Xeon VM with Python 3.11.
ROUND_SECONDS = {"progressions": 0.3, "algebra": 0.13, "structure": 7.5, "cli": 2.5}

# Rounds in the traced run's fixed job set: a few seconds of untraced work,
# the same on every commit so per-layer counts compare exactly.
TRACE_ROUNDS = {"progressions": 20, "algebra": 10, "structure": 1, "cli": 1}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_round(workload: str, seed: int, index) -> list[dict]:
    return ROUNDS[workload](seed, index)


def warmup_jobs(workload: str, seed: int) -> list[dict]:
    """Jobs run before timing so lazy set-up (first numpy calls, caches) is done.

    They come from a round of their own, so they share no inputs with the
    timed rounds. The cli workload needs none: every job is a new process.
    """
    if workload == "cli":
        return []
    jobs = make_round(workload, seed, "warmup")
    small = min(job.get("n", 99) for job in jobs)
    return [job for job in jobs if job.get("n", 99) == small][:20]


def describe(jobs: list[dict]) -> Counter:
    """The mix of a job list: how many jobs of each kind, source and modulus."""
    mix: Counter = Counter()
    for job in jobs:
        mix[f"kind:{job['kind']}"] += 1
        if "source" in job:
            mix[f"source:{job['source']}"] += 1
        if "n" in job:
            mix[f"n:{job['n']}"] += 1
    return mix
