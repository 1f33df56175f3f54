import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import voicegroup.modring as modring
from voicegroup.modring import BudgetExceeded, Modulus
from voicegroup.linalg import (
    ALL_PERMS,
    AffineMap,
    Mat3,
    Perm3,
    TRANSPOSITION_13,
    Vec3,
    mat_vec,
    scalar_affine,
)
from voicegroup.voicing import Generator, JElement, _Element, enumerate_J, word_to_element
from voicegroup.extension import ExtElement, enumerate_extension, parse_element
from voicegroup import analysis, datasets
from voicegroup.analysis import (
    Progression,
    export_network_dot,
    export_network_json,
    find_affine_morphisms,
    find_rich_voicing_cycle,
    orbit_of_element,
    rich_element,
    solve_step,
    solve_step_bruteforce,
    solve_uniform,
    solve_uniform_all_cases,
    verify_morphism_commutation,
)
from voicegroup.structure import centralizer_in_Aff
from voicegroup.datasets import (
    FALLING_FIFTHS,
    GRAIL,
    HEXATONIC_CHORDS,
    HYMN_TO_THE_SUN,
    SCHOENBERG_JET_SHARK,
    SCHOENBERG_OCTATONIC,
    WEBERN_ROW_1,
    WEBERN_ROW_2,
    WITHOUT_A_SONG,
)

M12 = Modulus(12)
M7 = Modulus(7)


def test_progression_validation():
    with pytest.raises(ValueError):
        Progression(M12, ())
    with pytest.raises(ValueError):
        Progression(M12, (Vec3.of(0, 0, 0, M7),))
    p = Progression.of([(0, 4, 7)], 12)
    assert p.steps() == []
    p2 = Progression.of([(0, 4, 7), (1, 5, 8)], 12, cyclic=True)
    assert len(p2.steps()) == 2
    # any iterable of tuples is stored as a tuple, so it hashes and compares as one
    v, w = p2.tuples
    listed = Progression(M12, [v, w])
    assert listed == Progression(M12, (v, w)) and hash(listed) == hash(Progression(M12, (v, w)))
    assert type(listed.tuples) is tuple
    # cyclic is a bool, as from_jsonable reads it: "false" is refused, not read as true
    with pytest.raises(ValueError, match="^cyclic must be true or false, got 'false'$"):
        Progression(M12, (v, w), "false")
    with pytest.raises(ValueError, match="^cyclic must be true or false, got 1$"):
        Progression.of([(0, 4, 7)], 12, cyclic=1)


def test_progression_json_round_trip():
    text = '{"modulus": 12, "cyclic": true, "tuples": [[3,7,10],[2,6,11]]}'
    p = Progression.from_jsonable(json.loads(text))
    assert p.cyclic and p.modulus.n == 12
    assert Progression.from_jsonable(p.to_jsonable()) == p
    with pytest.raises(ValueError):
        Progression.from_jsonable({"tuples": [[0, 0, 0]]})


def test_progression_queries_factor_no_modulus(monkeypatch):
    # every solve here has n^2 <= the default budget, so the budget gate needs no primes
    calls = []
    factor = modring._prime_powers
    monkeypatch.setattr(modring, "_prime_powers", lambda n: calls.append(n) or factor(n))
    progressions = [p for p in vars(datasets).values() if isinstance(p, Progression)]
    for prog in progressions:
        solve_uniform_all_cases(prog)
        for src, dst in prog.steps():
            solve_step(src, dst)
            solve_step(src, dst, group="J")
    assert find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2, restrict_to_centralizer=True)
    assert find_affine_morphisms(SCHOENBERG_OCTATONIC, SCHOENBERG_JET_SHARK)
    assert calls == []


def test_solve_step_contains_rich_edge():
    sols = solve_step(Vec3.of(8, 4, 5, M12), Vec3.of(4, 5, 1, M12))
    assert rich_element(12) in sols


def test_solve_step_identity_fixed_point():
    sols = solve_step(Vec3.of(0, 4, 7, M12), Vec3.of(0, 4, 7, M12), group="J")
    assert any(g.is_identity() for g in sols)


def test_solve_step_single_case_solution_structure():
    # one step constrains (m, n) by one linear equation; in the (12), k=1
    # case of the hexatonic opening that equation is 7m+3n = 11, with twelve
    # solutions containing the four that survive the full cycle
    sols = solve_step(Vec3.of(3, 7, 10, M12), Vec3.of(2, 6, 11, M12))
    case = [g for g in sols if g.sigma == Perm3.from_cycle("(12)") and g.j.k == 1]
    assert len(case) == 12
    assert all((7 * g.j.m + 3 * g.j.n) % 12 == 11 for g in case)
    assert {(2, 7), (5, 4), (8, 1), (11, 10)} <= {(g.j.m, g.j.n) for g in case}


@pytest.mark.parametrize("group", ["J", "extension", "hook"])
def test_solve_step_matches_bruteforce(group):
    # both hook cases move an augmented triad (an arithmetic progression) onto
    # its transposition, so this pair pins the order of the cases too
    src, dst = Vec3.of(0, 4, 8, M12), Vec3.of(4, 8, 0, M12)
    assert solve_step(src, dst, group) == solve_step_bruteforce(src, dst, group)
    if group == "hook":
        assert {g.sigma for g in solve_step(src, dst, group)} == {Perm3.identity(), TRANSPOSITION_13}
    rng = random.Random(group)
    for _ in range(60):
        src = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
        dst = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
        assert solve_step(src, dst, group) == solve_step_bruteforce(src, dst, group)


def test_solve_step_rejects_an_unknown_group():
    with pytest.raises(ValueError, match=r"^group must be one of \['J', 'extension', 'hook'\], got 'bogus'$"):
        solve_step(Vec3.of(0, 4, 7, M12), Vec3.of(0, 3, 7, M12), group="bogus")
    with pytest.raises(ValueError, match="^unknown group 'bogus'$"):
        solve_step_bruteforce(Vec3.of(0, 4, 7, M12), Vec3.of(0, 3, 7, M12), "bogus")


def test_solve_step_and_its_oracle_refuse_mixed_moduli():
    # the oracle refuses what the solver refuses, so it can pin the refusal
    src, dst = Vec3.of(0, 4, 7, 12), Vec3.of(0, 4, 0, 7)
    for solve in (solve_step, solve_step_bruteforce):
        with pytest.raises(ValueError, match="^mixed moduli: 12 vs 7$"):
            solve(src, dst, "J")


_PROGRESSIONS = [v for v in vars(datasets).values() if isinstance(v, Progression)]
_PAIRS = [(WEBERN_ROW_1, WEBERN_ROW_2), (SCHOENBERG_OCTATONIC, SCHOENBERG_JET_SHARK), (HYMN_TO_THE_SUN, WITHOUT_A_SONG)]


def test_every_progression_query_solves_two_unknowns_without_the_generic_echelon(monkeypatch):
    # each system the analysis layer solves has two unknowns, (m, n) or (u, q)
    def generic(rows, n):
        raise AssertionError(f"generic echelon reached with {len(rows[0]) - 1} unknowns")

    monkeypatch.setattr(modring, "_howell", generic)
    assert len(_PROGRESSIONS) == 8
    for prog in _PROGRESSIONS:
        solve_uniform_all_cases(prog)
        for src, dst in prog.steps():
            for group in ("J", "extension") + (("hook",) if prog.modulus.n == 12 else ()):
                solve_step(src, dst, group)
        find_affine_morphisms(prog, prog, restrict_to_centralizer=True)
    for a, b in _PAIRS:
        assert find_affine_morphisms(a, b)
        assert find_affine_morphisms(a, b, restrict_to_centralizer=True)
    with pytest.raises(AssertionError, match="^generic echelon reached with 3 unknowns$"):
        modring.solve_linear([[1, 2, 3]], [0], 12)


def test_solve_step_over_a_large_modulus_reaches_its_budget():
    # n = 10000000019 * 10000000033: factoring it by trial division hung before the budget was read
    v = Vec3.of(0, 1, 3, 100000000520000000627)
    with pytest.raises(BudgetExceeded, match=r"^10000000019\^2 = 100000000380000000361 candidates exceeds budget 10000000$"):
        solve_step(v, v, "J")


@st.composite
def planted_progressions(draw):
    """A seed with a drawn d | gcd(z - x, z - y, n), followed by 1-5 images
    under a random element, computed by its matrix."""
    n = draw(st.integers(3, 24))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    x = draw(st.integers(0, n - 1))
    seed = Vec3.of(x, x - d * draw(st.integers(0, n - 1)), x - d * draw(st.integers(0, n - 1)), n)
    g = ExtElement(
        draw(st.sampled_from(ALL_PERMS)),
        JElement(draw(st.integers(0, 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), n),
    )
    tuples = [seed]
    for _ in range(draw(st.integers(1, 5))):
        tuples.append(mat_vec(g.matrix(), tuples[-1]))
    return Progression(Modulus(n), tuple(tuples), draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(planted_progressions(), st.data())
def test_solvers_match_group_scans_in_sort_key_order(prog, data):
    # list-for-list, so the order of the solvers' output is pinned as well as its content
    src, dst = data.draw(st.sampled_from(prog.steps()))
    scanned = solve_step_bruteforce(src, dst, "extension")
    assert solve_step(src, dst, "extension") == scanned
    assert solve_step(src, dst, "J") == solve_step_bruteforce(src, dst, "J")
    if prog.modulus.n == 12:
        assert solve_step(src, dst, "hook") == solve_step_bruteforce(src, dst, "hook")
    # the elements of the whole group realizing every step realize this one;
    # the matrix action keeps the oracle apart from the kernel under test
    realizing = [g for g in scanned if all(mat_vec(g.matrix(), s) == t for s, t in prog.steps())]
    realizing.sort(key=ExtElement.sort_key)
    assert [s.element for s in solve_uniform_all_cases(prog)] == realizing


def test_solve_step_matches_bruteforce_for_every_divisor_of_60():
    # gcd(z - x, z - y, n) = d fixes a step's equation (z-x)m + (z-y)n == rhs up
    # to units; over the twelve divisors of 60 the solver meets pivots that
    # divide 60 and pivots that share a factor with 60 without dividing it
    n = 60
    rng = random.Random(n)
    js = enumerate_J(n)
    perms = [ExtElement(sigma, JElement.identity(n)) for sigma in ALL_PERMS]
    for d in (d for d in range(1, n + 1) if n % d == 0):
        while True:
            x, y, z = (rng.randrange(n) for _ in range(3))
            if math.gcd(z - x, z - y, n) == d:
                break
        src = Vec3.of(x, y, z, n)
        j_images = [j.apply(src) for j in js]
        dst = rng.choice(j_images)
        assert solve_step(src, dst, "J") == solve_step_bruteforce(src, dst, "J") != []
        # sigma j carries src to dst iff j carries src to sigma^-1(dst), so one
        # scan of J lists what solve_step_bruteforce's scan of all 6*2n^2
        # elements would, in the same sort-key order, at a sixth of the cost
        dst = rng.choice(perms).apply(rng.choice(j_images))
        scanned = []
        for s in perms:
            target = s.inverse().apply(dst)
            scanned += [ExtElement(s.sigma, j) for j, w in zip(js, j_images) if w == target]
        assert solve_step(src, dst, "extension") == scanned != []


def _step_through_the_case_loop(src, dst, group, budget):
    """solve_step's answer through the multi-step case loop, listed point by
    point: the route solve_step took before it read its one step in a pass of
    its own. A refusal comes back as its text."""
    modulus = src.modulus
    try:
        cases = analysis._cases([(src.entries, dst.entries)], analysis._points(group, modulus), modulus, budget)
    except BudgetExceeded as e:
        return str(e)
    return [ExtElement._make((p, m, n, modulus)) for p, solutions in cases for m, n in solutions]


def _step_or_refusal(src, dst, group, budget):
    try:
        return solve_step(src, dst, group, budget)
    except BudgetExceeded as e:
        return str(e)


@pytest.mark.parametrize("n", range(3, 61))
def test_solve_step_matches_the_case_loop_and_the_group_filter(n):
    # one seed per divisor class g = gcd(z - x, z - y, n), and three targets:
    # an image under a random element, the seed shifted by a constant (feasible
    # at the identity with any rhs, so solvable or not) and a random triple
    rng = random.Random(f"one-step grid {n}")
    groups = ["J", "extension", "hook"] if n == 12 else ["J", "extension"]
    budgets = (1, 16, 20, n * n, modring.DEFAULT_BUDGET)
    outcomes = set()
    for g in (g for g in range(1, n + 1) if n % g == 0):
        z = rng.randrange(n)
        src = Vec3.of(z - g, z - g * rng.randrange(n), z, n)
        assert math.gcd(src.entries[2] - src.entries[0], src.entries[2] - src.entries[1], n) == g
        element = ExtElement(rng.choice(ALL_PERMS), JElement(rng.randrange(2), rng.randrange(n), rng.randrange(n), n))
        dsts = [mat_vec(element.matrix(), src), src.shift(rng.randrange(n)), Vec3.of(*rng.choices(range(n), k=3), n)]
        for dst in dsts:
            for group in groups:
                scanned = solve_step_bruteforce(src, dst, group) if n <= 24 else None
                for budget in budgets:
                    got = _step_or_refusal(src, dst, group, budget)
                    assert got == _step_through_the_case_loop(src, dst, group, budget)
                    if isinstance(got, str):
                        outcomes.add("refused")
                        continue
                    outcomes.add("listed" if got else "empty")
                    if scanned is not None:
                        assert got == scanned
    assert outcomes == {"refused", "listed", "empty"}


def test_solve_step_is_unsolvable_mod_4_before_the_budget_reads_5():
    # mod 20 the row of (0, 4, 8) is (8, 4): a rhs that 4 does not divide is
    # unsolvable mod 4, so the answer is [] before 5^2 > 20 is read
    src = Vec3.of(0, 4, 8, 20)
    unsolvable, solvable = src.shift(1), src.shift(4)
    for budget in (20, 24):
        assert solve_step(src, unsolvable, "J", budget) == []
        assert _step_through_the_case_loop(src, unsolvable, "J", budget) == []
        message = f"5^2 = 25 candidates exceeds budget {budget}"
        assert _step_through_the_case_loop(src, solvable, "J", budget) == message
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
            solve_step(src, solvable, "J", budget)


# Voicings with repeated entries mod 12 and mod 6: several (sigma, k) cases of
# one step then see the same right-hand side.
_REPEATED_ENTRY_SEEDS = [(12, (0, 0, 6)), (12, (4, 4, 4)), (12, (3, 9, 9)), (6, (3, 3, 3)), (6, (1, 1, 4)), (6, (2, 5, 5))]


def _case_rhs(sigma, k, src, dst):
    """The rhs d of the case (sigma, k) on one step, dst - sigma U^k(src) ==
    d*(1,1,1), read off the matrix action; None when not constant-diagonal."""
    n = src.modulus.n
    image = mat_vec(ExtElement(sigma, JElement(k, 0, 0, n)).matrix(), src)
    diff = {(t - w) % n for t, w in zip(dst.entries, image.entries)}
    return diff.pop() if len(diff) == 1 else None


def _steps_rhs(cases, steps):
    """The distinct rhs tuples, over every step, of the cases that can realize every step."""
    tuples = {tuple(_case_rhs(sigma, k, src, dst) for src, dst in steps) for sigma, k in cases}
    return {t for t in tuples if None not in t}


def _count_solves(monkeypatch, rows_seen=None):
    """Record the rhs of every solve_linear call the analysis layer makes, and
    its rows in rows_seen if given."""
    calls, solve = [], analysis.solve_linear

    def counted(rows, rhs, modulus, budget):
        calls.append(tuple(rhs))
        if rows_seen is not None:
            rows_seen.append(rows)
        return solve(rows, rhs, modulus, budget)

    monkeypatch.setattr(analysis, "solve_linear", counted)
    return calls


@pytest.mark.parametrize("solve", [lambda prog: solve_uniform(prog, ALL_PERMS[0], 0), solve_uniform_all_cases])
def test_uniform_solutions_that_miss_a_step_are_refused(monkeypatch, solve):
    # only the identity case can realize these steps, with 7m + 3n = 1 mod 12; a solver
    # that returns (m, n) = (5, 0) there is caught by the re-verification against every step
    prog = Progression.of([(0, 4, 7), (1, 5, 8), (2, 6, 9)], 12)
    assert {(s.sigma, s.k) for s in solve(prog)} == {(ALL_PERMS[0], 0)}
    monkeypatch.setattr(analysis, "solve_linear", lambda rows, rhs, modulus, budget: [(5, 0)])
    with pytest.raises(RuntimeError) as info:
        solve(prog)
    assert str(info.value) == "solver returned (UV)^5, which does not realize every step"


_GROUP_CASES = {"J": [(Perm3.identity(), k) for k in (0, 1)], "extension": [(s, k) for s in ALL_PERMS for k in (0, 1)]}


@pytest.mark.parametrize("n, seed", _REPEATED_ENTRY_SEEDS)
def test_steps_from_repeated_entries_solve_each_rhs_once(monkeypatch, n, seed):
    src = Vec3.of(*seed, n)
    rng = random.Random(f"{n}{seed}")
    images = sorted({g.apply(src) for g in enumerate_extension(n)}, key=lambda v: v.entries)
    dsts = rng.sample(images, min(10, len(images))) + [Vec3.of(*(rng.randrange(n) for _ in range(3)), n)]
    groups = ["J", "extension", "hook"] if n == 12 else ["J", "extension"]
    calls = _count_solves(monkeypatch)
    shared = 0
    for dst in dsts:
        for group in groups:
            assert solve_step(src, dst, group) == solve_step_bruteforce(src, dst, group)
        for group, cases in _GROUP_CASES.items():
            calls.clear()
            solve_step(src, dst, group)
            distinct = _steps_rhs(cases, [(src, dst)])
            # one solve per distinct right-hand side
            assert len(calls) == len(set(calls)) == len(distinct)
            assert set(calls) == distinct
            feasible = sum(_case_rhs(sigma, k, src, dst) is not None for sigma, k in cases)
            shared += feasible - len(distinct)
    assert shared > 0  # some points did share a right-hand side


@pytest.mark.parametrize("n, seed", _REPEATED_ENTRY_SEEDS)
def test_uniform_solutions_from_repeated_entries_match_the_group_filter(monkeypatch, n, seed):
    rng = random.Random(f"{seed}{n}")
    group = enumerate_extension(n)
    calls = _count_solves(monkeypatch)
    for _ in range(4):
        g = rng.choice(group)
        tuples = [Vec3.of(*seed, n)]
        for _ in range(rng.randint(1, 3)):
            tuples.append(mat_vec(g.matrix(), tuples[-1]))
        prog = Progression(Modulus(n), tuple(tuples), rng.random() < 0.5)
        realizing = [h for h in group if all(mat_vec(h.matrix(), s) == t for s, t in prog.steps())]
        realizing.sort(key=ExtElement.sort_key)
        calls.clear()
        assert [s.element for s in solve_uniform_all_cases(prog)] == realizing
        # a short orbit makes steps recur; each distinct step is one equation
        assert len(calls) == len(set(calls))
        assert set(calls) == _steps_rhs(_GROUP_CASES["extension"], list(dict.fromkeys(prog.steps())))


def test_recurring_steps_are_solved_once(monkeypatch):
    # the Grail closes its cycle, so three laps hold its cyclic steps three times
    laps = Progression(M12, GRAIL.tuples * 3)
    rows_seen = []
    _count_solves(monkeypatch, rows_seen)
    solutions = solve_uniform_all_cases(laps)
    assert {len(rows) for rows in rows_seen} == {len(GRAIL.tuples)}
    assert len(solutions) == 4
    assert solutions == solve_uniform_all_cases(Progression(M12, GRAIL.tuples, cyclic=True))


def test_solve_uniform_grail():
    sols = solve_uniform(GRAIL, Perm3.from_cycle("(12)"), 1)
    assert sorted((s.m, s.n) for s in sols) == [(2, 7), (5, 4), (8, 1), (11, 10)]
    by_mn = {(s.m, s.n): str(s.matrix) for s in sols}
    assert by_mn[(2, 7)] == "[[11,5,9],[10,6,9],[11,6,8]]"
    assert by_mn[(5, 4)] == "[[8,8,9],[7,9,9],[8,9,8]]"
    assert by_mn[(8, 1)] == "[[5,11,9],[4,0,9],[5,0,8]]"
    assert by_mn[(11, 10)] == "[[2,2,9],[1,3,9],[2,3,8]]"
    # no other (sigma, k) case admits solutions for the full cycle
    assert len(solve_uniform_all_cases(GRAIL)) == 4


def test_uniform_solution_matrix_is_read_from_the_element():
    sols = solve_uniform_all_cases(GRAIL)
    for s in sols:
        assert s.modulus == GRAIL.modulus
        assert s.matrix == s.element.matrix()
        assert all(mat_vec(s.matrix, src) == dst for src, dst in GRAIL.steps())
    # a matrix given to the constructor is read in place of the derived one
    replaced = dataclasses.replace(sols[0], matrix=Mat3.identity(12))
    assert replaced.matrix == Mat3.identity(12)
    assert replaced.element == sols[0].element


def test_solve_uniform_grail_solutions_traverse_cycle():
    for s in solve_uniform(GRAIL, Perm3.from_cycle("(12)"), 1):
        assert orbit_of_element(s.element, GRAIL.tuples[0]) == list(GRAIL.tuples)


def test_solve_uniform_falling_fifths():
    sols = solve_uniform(FALLING_FIFTHS, Perm3.from_cycle("(12)"), 1)
    assert [(s.m, s.n) for s in sols] == [(3, 0)]
    assert str(sols[0].matrix) == "[[5,0,3],[4,1,3],[5,1,2]]"
    assert len(solve_uniform_all_cases(FALLING_FIFTHS)) == 1


def test_solve_uniform_constant_progression():
    prog = Progression.of([(0, 4, 7), (0, 4, 7)], 12)
    sols = solve_uniform(prog, Perm3.identity(), 0)
    got = {(s.m, s.n) for s in sols}
    expected = {(m, n) for m in range(12) for n in range(12) if (7 * m + 3 * n) % 12 == 0}
    assert got == expected
    assert len(got) == 12


def test_solve_uniform_no_solutions():
    # (1,0,0) is not a diagonal translate of (0,4,7), so the identity case fails
    prog = Progression.of([(0, 4, 7), (1, 4, 7)], 12)
    assert solve_uniform(prog, Perm3.identity(), 0) == []


def test_cyclic_flag_adds_wraparound_constraint():
    # open chain: shift 1 is realizable; closing the cycle demands shift -1
    # on the way back, which contradicts it
    open_chain = Progression.of([(0, 4, 7), (1, 5, 8)], 12)
    closed = Progression.of([(0, 4, 7), (1, 5, 8)], 12, cyclic=True)
    assert len(solve_uniform(open_chain, Perm3.identity(), 0)) == 12
    assert solve_uniform(closed, Perm3.identity(), 0) == []


def test_solve_uniform_validation():
    with pytest.raises(ValueError):
        solve_uniform(Progression.of([(0, 4, 7)], 12), Perm3.identity(), 0)
    with pytest.raises(ValueError):
        solve_uniform(GRAIL, Perm3.identity(), 2)
    with pytest.raises(ValueError, match="at least two tuples"):
        solve_uniform_all_cases(Progression.of([(0, 4, 7)], 12))


def test_budget_is_read_only_where_a_case_is_feasible():
    # mod 5003 every feasible case has a 5003^2 search space; a major triad
    # never goes to a diminished one, so no case reaches the solver
    M = Modulus(5003)
    major, diminished, rich_image = Vec3.of(0, 4, 7, M), Vec3.of(0, 3, 6, M), Vec3.of(4, 7, 11, M)
    assert solve_step(major, diminished, budget=1) == []
    assert solve_uniform_all_cases(Progression(M, (major, diminished)), budget=1) == []
    message = "^5003\\^2 = 25030009 candidates exceeds budget 1$"
    with pytest.raises(BudgetExceeded, match=message):
        solve_step(major, rich_image, budget=1)
    with pytest.raises(BudgetExceeded, match=message):
        solve_uniform_all_cases(Progression(M, (major, rich_image)), budget=1)
    with pytest.raises(BudgetExceeded, match=message):
        solve_uniform(Progression(M, (major, rich_image)), TRANSPOSITION_13, 1, budget=1)


def test_hook_solving_needs_the_twelve_tone_modulus():
    # the Hook group is the stabilizer of the root-position triads mod 12
    src, dst = Vec3.of(0, 2, 4, M7), Vec3.of(6, 1, 3, M7)
    # the solver and its oracle share one refusal
    with pytest.raises(ValueError, match=r"^the Hook group is defined over Z/12 only, got modulus 7$"):
        solve_step(src, dst, "hook")
    with pytest.raises(ValueError, match=r"^the Hook group is defined over Z/12 only, got modulus 7$"):
        solve_step_bruteforce(src, dst, "hook")


def test_rich_examples():
    rich = rich_element(M12).apply
    assert rich(Vec3.of(8, 4, 5, M12)) == Vec3.of(4, 5, 1, M12)
    assert rich(Vec3.of(5, 10, 1, M12)) == Vec3.of(10, 1, 6, M12)
    assert rich(Vec3.of(7, 8, 4, M12)) == Vec3.of(8, 4, 5, M12)


def test_rich_equals_group_element():
    e = rich_element(12)
    assert e == parse_element("(13)V", 12)
    rng = random.Random(6)
    for _ in range(200):
        x, y, z = rng.randrange(12), rng.randrange(12), rng.randrange(12)
        # retrograde inversion enchaining: keep y and z in front, close with the reflected first entry
        assert e.apply(Vec3.of(x, y, z, M12)) == Vec3.of(y, z, y + z - x, M12)


def test_rich_element_is_in_hook():
    from voicegroup.triadic import is_in_hook

    assert is_in_hook(rich_element(12))


def test_rich_octatonic_cycle():
    cycle = orbit_of_element(rich_element(12), Vec3.of(8, 4, 5, M12))
    assert len(cycle) == 8
    assert cycle[:6] == list(WEBERN_ROW_1.tuples)
    assert set().union(*(v.entries for v in cycle)) == {1, 2, 4, 5, 7, 8, 10, 11}


def test_falling_fifths_element_cycle():
    # derived by iteration: the element has order 14 and visits each of the
    # seven diatonic chords twice, in its two alternating voicings
    g = parse_element("(12)U(UV)^3", M7)
    cycle = orbit_of_element(g, Vec3.of(0, 2, 4, M7))
    assert [tuple(v.entries) for v in cycle[:3]] == [(0, 2, 4), (5, 0, 3), (6, 1, 3)]
    assert len(cycle) == 14
    assert g.order() == 14


def test_orbit_length_divides_element_order(ext12):
    rng = random.Random(10)
    for _ in range(30):
        g = rng.choice(ext12)
        seed = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
        assert g.order() % len(orbit_of_element(g, seed)) == 0


def test_identity_orbit():
    assert orbit_of_element(ExtElement.identity(M12), Vec3.of(1, 2, 3, M12)) == [
        Vec3.of(1, 2, 3, M12)
    ]


def test_webern_rows_morphism():
    morphisms = find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2)
    down_two = [f for f in morphisms if str(f) == "x -> 1x+10"]
    assert down_two
    assert verify_morphism_commutation(down_two[0], [rich_element(12)])


def test_schoenberg_affine_image():
    morphisms = find_affine_morphisms(SCHOENBERG_OCTATONIC, SCHOENBERG_JET_SHARK)
    assert any(str(f) == "x -> 7x+7" for f in morphisms)
    rich = rich_element(M12).apply
    for src, dst in SCHOENBERG_OCTATONIC.steps():
        assert rich(src) == dst
    for src, dst in SCHOENBERG_JET_SHARK.steps():
        assert rich(src) == dst


def test_expansion_morphism_mod_7():
    morphisms = find_affine_morphisms(HYMN_TO_THE_SUN, WITHOUT_A_SONG)
    assert any(str(f) == "x -> 2x+0" for f in morphisms)
    # mod 7 the centralizer family is the componentwise maps, and the widened search answers
    wide = find_affine_morphisms(HYMN_TO_THE_SUN, WITHOUT_A_SONG, restrict_to_centralizer=True)
    assert [str(f) for f in wide] == ["x -> 2x+0"]
    for prog in (HYMN_TO_THE_SUN, WITHOUT_A_SONG):
        for i, (src, dst) in enumerate(prog.steps()):
            if i == 1:  # the one voice swap in both melodies
                assert TRANSPOSITION_13.apply(src) == dst
            else:
                assert rich_element(M7).apply(src) == dst


def test_noninvertible_morphisms_still_commute():
    labels = [ExtElement.from_j(word_to_element([g], M12)) for g in Generator]
    assert verify_morphism_commutation(scalar_affine(10, 0, M12), labels)


def test_nondiagonal_translation_fails_commutation():
    f = AffineMap(Mat3.identity(M12), Vec3.of(1, 0, 0, M12))
    u, v = (ExtElement.from_j(word_to_element([g], M12)) for g in (Generator.U, Generator.V))
    assert not verify_morphism_commutation(f, [v])
    assert not verify_morphism_commutation(f, [u])
    # a linear part that does not commute with U fails before the translation is read
    g = AffineMap(Mat3(((1, 0, 0), (0, 2, 0), (0, 0, 1)), M12), Vec3.of(0, 0, 0, M12))
    assert not verify_morphism_commutation(g, [u])


def test_morphism_results_commute_with_step_solutions():
    morphisms = find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2)
    labels = solve_step(WEBERN_ROW_1.tuples[0], WEBERN_ROW_1.tuples[1])
    for f in morphisms:
        assert verify_morphism_commutation(f, labels)


def test_widened_morphism_search():
    narrow = find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2)
    wide = find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2, restrict_to_centralizer=True)
    assert set(map(str, narrow)) <= set(map(str, wide))
    with pytest.raises(ValueError):
        find_affine_morphisms(WEBERN_ROW_1, Progression.of([(0, 0, 0)], 12))


def _affine_scan(a, b):
    """Oracle: every componentwise map x -> u*x + q, in (u, q) order, kept if it sends a to b."""
    n = a.modulus.n
    candidates = [scalar_affine(u, q, a.modulus) for u in range(n) for q in range(n)]
    return [f for f in candidates if all(f.apply(src) == dst for src, dst in zip(a.tuples, b.tuples))]


@pytest.mark.parametrize(
    "a, b",
    [
        (WEBERN_ROW_1, WEBERN_ROW_2),
        (SCHOENBERG_OCTATONIC, SCHOENBERG_JET_SHARK),
        (HYMN_TO_THE_SUN, WITHOUT_A_SONG),
    ],
)
def test_affine_morphisms_match_scan_on_datasets(a, b):
    assert find_affine_morphisms(a, b) == _affine_scan(a, b)


@pytest.mark.parametrize("n", [7, 12, 24])
def test_affine_morphisms_match_scan_on_random_pairs(n):
    rng = random.Random(n)
    for trial in range(30):
        length = rng.randint(1, 4)
        a = Progression.of(
            [[rng.randrange(n) for _ in range(3)] for _ in range(length)], n, cyclic=bool(trial % 2)
        )
        if trial % 3 == 2:
            # unrelated second progression: usually no map at all
            b = Progression.of([[rng.randrange(n) for _ in range(3)] for _ in range(length)], n)
        else:
            # the image under a planted map; every third u is a zero divisor (or 0 mod 7)
            u = rng.randrange(n) if trial % 3 else rng.choice([0, 2, 3, 4, 6, 8]) % n
            planted = scalar_affine(u, rng.randrange(n), n)
            b = Progression(a.modulus, tuple(planted.apply(v) for v in a.tuples))
            assert planted in find_affine_morphisms(a, b)
        assert find_affine_morphisms(a, b) == _affine_scan(a, b)


def _centralizer_scan(a, b):
    """Oracle: the listed affine centralizer family, in its order, kept where it sends a to b."""
    maps = centralizer_in_Aff(a.modulus, budget=10**12).elements
    return [f for f in maps if all(f.apply(src) == dst for src, dst in zip(a.tuples, b.tuples))]


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 8, 9, 12, 16])
def test_widened_morphisms_match_centralizer_scan(n):
    rng = random.Random(100 + n)
    family = centralizer_in_Aff(n, budget=10**12).elements
    for trial in range(24):
        length = rng.randint(1, 4)
        a = Progression.of([[rng.randrange(n) for _ in range(3)] for _ in range(length)], n)
        if trial % 3 == 2:
            # unrelated second progression: usually no map at all
            b = Progression.of([[rng.randrange(n) for _ in range(3)] for _ in range(length)], n)
        else:
            # the image under a planted family member, componentwise or not
            planted = rng.choice(family)
            b = Progression(a.modulus, tuple(planted.apply(v) for v in a.tuples))
            assert planted in find_affine_morphisms(a, b, restrict_to_centralizer=True)
        wide = find_affine_morphisms(a, b, restrict_to_centralizer=True)
        assert wide == _centralizer_scan(a, b)
        assert find_affine_morphisms(a, b) == [f for f in wide if f.is_componentwise()]


def test_hexatonic_rich_cycle_found_by_search():
    cycle = find_rich_voicing_cycle(HEXATONIC_CHORDS, 12)
    assert cycle is not None
    assert len(cycle) == 6
    assert [tuple(v.entries) for v in cycle] == [
        (3, 10, 7),
        (10, 7, 2),
        (7, 2, 11),
        (2, 11, 6),
        (11, 6, 3),
        (6, 3, 10),
    ]
    for i, v in enumerate(cycle):
        assert frozenset(v.entries) == HEXATONIC_CHORDS[i]
        assert rich_element(12).apply(v) == cycle[(i + 1) % 6]
    # no ordering of C major is carried by RICH to C# major and back
    assert find_rich_voicing_cycle([{0, 4, 7}, {1, 5, 8}], 12) is None
    # nor, without an error, to a later chord of two pitch classes
    assert find_rich_voicing_cycle([{0, 4, 7}, {1, 5}], 12) is None



@pytest.mark.parametrize(
    "chords, expected",
    [
        ([], "chords is empty: a cycle needs at least one chord"),
        ([{0, 4}, {4, 7, 0}], "the first chord [0, 4] has 2 pitch classes; a voicing needs 3"),
        ([{0, 4, 7, 11}], "the first chord [0, 4, 7, 11] has 4 pitch classes; a voicing needs 3"),
    ],
    ids=["empty", "dyad", "tetrachord"],
)
def test_rich_cycle_search_refuses_a_malformed_first_chord(chords, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        find_rich_voicing_cycle(chords, 12)


def test_rich_cycle_search_refuses_modulus_2_as_rich_element_does():
    # RICH is a group element, and over Z/2 there is no voicing group; the chords are checked first
    with pytest.raises(ValueError, match=r"^voicing-group normal forms need modulus >= 3 "):
        find_rich_voicing_cycle([{0, 2, 4}], 2)
    with pytest.raises(ValueError, match=r"^chords is empty"):
        find_rich_voicing_cycle([], 2)

def test_export_dot():
    dot = export_network_dot(WEBERN_ROW_1, [rich_element(12)] * 5)
    assert dot.startswith("digraph")
    assert dot.count("->") == 5
    assert '"(8,4,5)" -> "(4,5,1)" [label="(13) U (UV)^1"];' in dot
    small = export_network_dot(Progression.of([(0, 4, 7), (7, 11, 2)], 12))
    assert small.count("->") == 1


def test_export_json_grail():
    doc = export_network_json(GRAIL)
    assert doc["modulus"] == 12 and doc["cyclic"]
    assert len(doc["nodes"]) == 6
    assert len(doc["edges"]) == 6
    assert doc["edges"][-1] == {"from": 5, "to": 0}


def test_export_label_length_mismatch():
    with pytest.raises(ValueError):
        export_network_json(GRAIL, [rich_element(12)])
    for export in (export_network_json, export_network_dot):
        with pytest.raises(ValueError, match=r"^expected 6 labels \(one per edge\), got 1$"):
            export(GRAIL, [rich_element(12)])


def _network_document(prog, labels):
    """The reference network document: nodes de-duplicated as Vec3 values in
    first-seen order, one edge per step of prog.steps()."""
    steps = prog.steps()
    nodes, index = [], {}
    for v in prog.tuples:
        if v not in index:
            index[v] = len(nodes)
            nodes.append(v)
    edges = []
    for i, (src, dst) in enumerate(steps):
        edge = {"from": index[src], "to": index[dst]}
        if labels is not None:
            edge["label"] = str(labels[i])
        edges.append(edge)
    return {"modulus": prog.modulus.n, "cyclic": prog.cyclic, "nodes": [list(v.entries) for v in nodes], "edges": edges}


def _dot_from_document(doc):
    """The reference DOT text, rendered from the network document."""
    names = ["(" + ",".join(str(x) for x in node) + ")" for node in doc["nodes"]]
    lines = ["digraph progression {", "  rankdir=LR;"]
    for name in names:
        lines.append(f'  "{name}";')
    for edge in doc["edges"]:
        attr = f' [label="{edge["label"]}"]' if "label" in edge else ""
        lines.append(f'  "{names[edge["from"]]}" -> "{names[edge["to"]]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


_EXPORTED = {name: v for name, v in vars(datasets).items() if isinstance(v, Progression)} | {
    "repeated tuple": Progression.of([(0, 4, 7), (4, 7, 11), (0, 4, 7), (4, 7, 11), (7, 11, 2)], 12, cyclic=True),
    "one tuple": Progression.of([(0, 4, 7)], 12),
    "one tuple, cyclic": Progression.of([(0, 4, 7)], 12, cyclic=True),
}


@pytest.mark.parametrize("labelling", ["none", "repeated", "distinct"])
@pytest.mark.parametrize("name", sorted(_EXPORTED))
def test_exports_match_the_document_derivation(name, labelling, monkeypatch):
    prog = _EXPORTED[name]
    count = len(prog.steps())
    distinct = enumerate_extension(prog.modulus)[:count]
    labels = {"none": None, "repeated": [rich_element(prog.modulus)] * count, "distinct": distinct}[labelling]
    doc = _network_document(prog, labels)
    formatted = []
    text = _Element.__str__
    monkeypatch.setattr(_Element, "__str__", lambda e: formatted.append(e) or text(e))
    assert export_network_json(prog, labels) == doc
    # each distinct label object is formatted once: a label repeated on every edge, once in all
    assert len(formatted) == {"none": 0, "repeated": min(count, 1), "distinct": count}[labelling]
    assert export_network_dot(prog, labels) == _dot_from_document(doc)
