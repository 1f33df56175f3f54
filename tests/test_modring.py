import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import voicegroup.modring as modring
from voicegroup.modring import (
    BudgetExceeded,
    Modulus,
    Residue,
    check_same_modulus,
    euler_phi,
    solve_linear,
    units,
)


def test_normalize_examples():
    assert Residue(-3, Modulus(12)).value == 9
    assert Residue(14, Modulus(7)).value == 0
    assert Residue(13, Modulus(12)).value == 1


@given(st.integers(-10**6, 10**6), st.integers(2, 24))
def test_normalize_recovers_input(x, n):
    assert Residue(x, Modulus(n)).value + n * (x // n) == x


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(1)
    with pytest.raises(ValueError):
        Modulus(0)
    assert Modulus(12).prime_powers() == (4, 3)
    assert Modulus(7).prime_powers() == (7,)
    assert Modulus(60).prime_powers() == (4, 3, 5)


def test_modulus_reads_numpy_integers_as_int():
    np = pytest.importorskip("numpy")
    for n in (np.int64(12), np.uint8(12)):
        assert Modulus(n) == Modulus(12) and type(Modulus(n).n) is int
    sols = solve_linear([[np.int64(7), np.uint8(3)], np.array([9, 5])], np.array([11, -7]), np.int32(12))
    assert sols == [(2, 7), (5, 4), (8, 1), (11, 10)] and {type(x) for sol in sols for x in sol} == {int}


def test_check_same_modulus_compares_n():
    a, b = Modulus(12), Modulus(12)
    assert a is not b and check_same_modulus(a, b) is a
    with pytest.raises(ValueError, match="mixed moduli: 12 vs 13"):
        check_same_modulus(a, Modulus(13))
    # an int is not a Modulus, even when it equals n
    for x, y in ((a, 12), (12, a)):
        with pytest.raises(ValueError, match="mixed moduli: 12 vs 12"):
            check_same_modulus(x, y)


def test_euler_phi_of_a_large_prime_does_not_trial_divide_to_it():
    # 10000000019 is prime: factoring trial-divides neither up to it nor up to its square root
    assert euler_phi(10000000019) == 10000000018
    assert euler_phi(10000000019 * 4) == 10000000018 * 2
    assert euler_phi(10000000019**2) == 10000000019 * 10000000018


def _trial_division(n):
    """The prime-power factors of n by trial division up to the square root of
    the cofactor: the factoring used before rho, kept as the oracle."""
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            factors.append(q)
        p += 1
    if rest > 1:
        factors.append(rest)
    return tuple(factors)


def test_factoring_agrees_with_trial_division():
    assert [n for n in range(2, 10**5 + 1) if Modulus(n).prime_powers() != _trial_division(n)] == []


def test_factoring_agrees_with_sympy_on_planted_products():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(18)
    planted = [7 * 1428571429 * 10000000019, 10000000019 * 10000000033, 12 * (2**31 - 1) * (2**61 - 1)]
    planted.append(sympy.prevprime(10**12) * sympy.nextprime(10**12))  # the largest split rho is sized for
    for _ in range(40):
        # one prime up to 10^12 and up to two up to 10^8, each to a power up to 3
        primes = {sympy.nextprime(rng.randrange(10 ** rng.randint(1, 12)))}
        primes |= {sympy.nextprime(rng.randrange(10 ** rng.randint(1, 8))) for _ in range(rng.randint(0, 2))}
        planted.append(math.prod(p ** rng.randint(1, 3) for p in primes))
    for n in planted:
        want = [(p, p**e) for p, e in sorted(sympy.factorint(n).items())]
        assert modring._prime_powers(n) == want, n


def test_factoring_refuses_what_it_cannot_finish(monkeypatch):
    factor = modring._prime_powers
    # 2^89 - 1 is prime, but above 3.3*10^24 the twelve Miller-Rabin bases prove nothing
    with pytest.raises(BudgetExceeded, match=f"^modulus {2 * (2**89 - 1)} has a factor {2**89 - 1} above "):
        factor(2 * (2**89 - 1))
    # rho's steps are bounded: a split that needs more is refused, naming the modulus
    monkeypatch.setattr(modring, "_RHO_STEPS", 1000)
    n = 10000000019 * 10000000033
    with pytest.raises(BudgetExceeded, match=f"^factoring modulus {n} needs more than 1000 rho steps$"):
        factor(n)


def test_is_unit_examples():
    assert Residue(5, Modulus(12)).is_unit()
    assert not Residue(6, Modulus(12)).is_unit()
    assert not Residue(0, Modulus(7)).is_unit()


def test_units_examples():
    assert [u.value for u in units(12)] == [1, 5, 7, 11]
    assert [u.value for u in units(7)] == [1, 2, 3, 4, 5, 6]
    assert [u.value for u in units(4)] == [1, 3]


@pytest.mark.parametrize("n", range(2, 25))
def test_units_count_is_totient(n):
    # euler_phi goes through the factorization, units() through gcd scanning
    assert len(units(n)) == euler_phi(n)
    assert len(units(n)) == sum(1 for v in range(n) if math.gcd(v, n) == 1)


def test_residue_arithmetic():
    m = Modulus(12)
    a = Residue(7, m)
    b = Residue(8, m)
    assert (a + b).value == 3
    assert (a - b).value == 11
    assert (a * b).value == 8
    assert (-a).value == 5
    with pytest.raises(ValueError):
        a + Residue(1, Modulus(7))


def test_crt_split_examples():
    # the CRT split of n: pairwise-coprime prime powers, by increasing prime, whose product is n
    assert Modulus(360).prime_powers() == (8, 9, 5)
    for n in range(2, 200):
        factors = Modulus(n).prime_powers()
        primes = [min(p for p in range(2, q + 1) if q % p == 0) for q in factors]
        assert math.prod(factors) == n
        assert primes == sorted(set(primes))
        assert all(q == p ** round(math.log(q, p)) for p, q in zip(primes, factors))


def test_solve_homogeneous_examples():
    assert solve_linear([[1]], [0], 12) == [(0,)]
    assert solve_linear([[2]], [0], 12) == [(0,), (6,)]


def test_solve_linear_matches_direct_enumeration():
    for a in range(12):
        for b in range(12):
            for c in range(12):
                got = solve_linear([[a, b]], [c], 12)
                expected = sorted(
                    (x, y)
                    for x in range(12)
                    for y in range(12)
                    if (a * x + b * y - c) % 12 == 0
                )
                assert got == expected, (a, b, c)


def test_solve_linear_two_rows_spot():
    # the hexatonic solve: 7m+3n=11, 9m+5n=5 has the four known solutions
    assert solve_linear([[7, 3], [9, 5]], [11, 5], 12) == [(2, 7), (5, 4), (8, 1), (11, 10)]
    # a repeated equation changes nothing; the same coefficients with another rhs are inconsistent
    assert solve_linear([[7, 3], [9, 5], [7, 3]], [11, 5, 11], 12) == [(2, 7), (5, 4), (8, 1), (11, 10)]
    assert solve_linear([[7, 3], [7, 3]], [11, 10], 12) == []


def test_solution_count_multiplies_over_factors():
    sols = solve_linear([[6, 0], [0, 4]], [0, 0], 12)
    per_factor = [
        sum(
            1
            for x in range(q)
            for y in range(q)
            if (6 * x) % q == 0 and (4 * y) % q == 0
        )
        for q in (4, 3)
    ]
    assert len(sols) == per_factor[0] * per_factor[1]


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_linear([], [], 12)
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [0, 0], 12)
    with pytest.raises(ValueError):
        solve_linear([[0] * 13], [0], 12)
    with pytest.raises(ValueError, match="^all rows must have the same number of unknowns$"):
        solve_linear([[1, 2], [3]], [0, 0], 12)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        solve_linear([[0] * 9], [0], 7, budget=10**6)


def enumerate_solutions(rows, rhs, n):
    """Oracle: scan all n^d candidates mod n at once (no factors, no CRT)."""
    np = pytest.importorskip("numpy")
    d = len(rows[0])
    cand = np.indices((n,) * d, dtype=np.int64).reshape(d, -1).T
    for row, target in zip(rows, rhs):
        cand = cand[(cand @ np.asarray(row, dtype=np.int64) - target) % n == 0]
    return [tuple(int(v) for v in x) for x in cand]


# primes, prime powers, 2*odd and highly composite values are all in [2, 60]
@st.composite
def linear_systems(draw):
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    entry = st.integers(0, n - 1) | st.integers(-200, 200)
    rows = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(r)]
    rhs = draw(st.lists(entry, min_size=r, max_size=r))
    if draw(st.booleans()):
        rows[draw(st.integers(0, r - 1))] = [0] * d
    if draw(st.booleans()):
        rhs = [0] * r
    return rows, rhs, n


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_enumeration_property(system):
    rows, rhs, n = system
    assert solve_linear(rows, rhs, n, budget=n**3) == enumerate_solutions(rows, rhs, n)


@st.composite
def two_unknown_systems(draw):
    """A system in two unknowns, the shape of every query the library makes:
    1-6 rows over n in [2, 60] with entries in +-200, some with an all-zero
    row, an all-zero column, a row repeated (its entries shifted by n or not)
    or an all-zero right-hand side."""
    n = draw(st.integers(2, 60))
    r = draw(st.integers(1, 6))
    entry = st.integers(-200, 200)
    rows = [draw(st.lists(entry, min_size=2, max_size=2)) for _ in range(r)]
    rhs = draw(st.lists(entry, min_size=r, max_size=r))
    if draw(st.booleans()):
        rows[draw(st.integers(0, r - 1))] = [0, 0]
    if draw(st.booleans()):
        j = draw(st.integers(0, 1))
        for row in rows:
            row[j] = 0
    if r > 1 and draw(st.booleans()):
        i, k = draw(st.permutations(range(r)))[:2]
        shift = st.sampled_from((-n, 0, n))
        rows[k], rhs[k] = [x + draw(shift) for x in rows[i]], rhs[i] + draw(shift)
    if draw(st.booleans()):
        rhs = [0] * r
    return rows, rhs, n


@settings(max_examples=400, deadline=None)
@given(two_unknown_systems(), st.integers(1, 400))
def test_two_unknowns_echelon_on_scalars_as_the_generic_route_does(system, budget):
    rows, rhs, n = system

    def outcome(budget):
        try:
            return solve_linear(rows, rhs, n, budget=budget)
        except BudgetExceeded as exc:
            return f"BudgetExceeded: {exc}"

    scalar = outcome(n**2), outcome(budget)
    assert scalar[0] == enumerate_solutions(rows, rhs, n)
    # the generic echelon, reached by routing two unknowns through it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modring, "_howell2", modring._howell)
        assert (outcome(n**2), outcome(budget)) == scalar
    # the same row operations in the same order: the same pivots and zero rows
    augmented = list(dict.fromkeys((a % n, b % n, c % n) for (a, b), c in zip(rows, rhs)))
    pivots, zero_rhs = modring._howell2(augmented, n)
    generic_pivots, generic_zero_rhs = modring._howell(augmented, n)
    assert [p and tuple(p) for p in pivots] == [p and tuple(p) for p in generic_pivots]
    assert zero_rhs == generic_zero_rhs


@st.composite
def systems_with_many_rhs(draw):
    """One coefficient matrix with several right-hand sides, as a query that
    factors its rows once and solves every rhs against them would see."""
    rows, _, n = draw(linear_systems())
    r = len(rows)
    entry = st.integers(0, n - 1) | st.integers(-200, 200)
    rhss = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=2, max_size=5))
    return rows, rhss, n


@settings(max_examples=150, deadline=None)
@given(systems_with_many_rhs())
def test_solve_linear_many_rhs_match_enumeration(system):
    rows, rhss, n = system
    for rhs in rhss:
        sols = solve_linear(rows, rhs, n, budget=n**3)
        # strictly increasing: sorted with no duplicates, whatever the oracle's order
        assert all(a < b for a, b in zip(sols, sols[1:]))
        assert sols == enumerate_solutions(rows, rhs, n)


@st.composite
def systems_with_repeated_rows(draw):
    """A system, and the same system with copies of some of its equations,
    some written with entries x +- n, in shuffled order."""
    rows, rhs, n = draw(linear_systems())
    shift = st.sampled_from((-n, 0, n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4))
    copies = [([x + draw(shift) for x in rows[i]], rhs[i] + draw(shift)) for i in picks]
    equations = draw(st.permutations(list(zip(rows, rhs)) + copies))
    return rows, rhs, [row for row, _ in equations], [c for _, c in equations], n


@settings(max_examples=200, deadline=None)
@given(systems_with_repeated_rows(), st.integers(1, 400))
def test_repeated_rows_change_neither_solutions_nor_budget(system, budget):
    rows, rhs, repeated_rows, repeated_rhs, n = system
    expected = enumerate_solutions(rows, rhs, n)
    assert solve_linear(repeated_rows, repeated_rhs, n, budget=n**3) == expected
    assert solve_linear(rows, rhs, n, budget=n**3) == expected

    def outcome(rows, rhs):
        try:
            return solve_linear(rows, rhs, n, budget=budget)
        except BudgetExceeded as exc:
            return f"BudgetExceeded: {exc}"

    # under a small budget both give the same list or refuse with the same message
    assert outcome(repeated_rows, repeated_rhs) == outcome(rows, rhs)


def test_inconsistency_found_only_after_elimination_precedes_a_later_budget():
    # no single row is unsolvable mod 2, but their difference 2y == 1 is;
    # that is read before 7^2 = 49 exceeds the budget
    assert solve_linear([[1, 1], [1, 3]], [0, 1], 14, budget=10) == []
    with pytest.raises(BudgetExceeded, match=r"7\^2 = 49 candidates exceeds budget 10"):
        solve_linear([[1, 1], [1, 3]], [0, 0], 14, budget=10)


def test_budget_bounds_the_search_space_per_factor():
    with pytest.raises(BudgetExceeded, match=r"7\^3 = 343 candidates exceeds budget 342"):
        solve_linear([[0, 0, 0]], [0], 7, budget=342)
    assert len(solve_linear([[0, 0, 0]], [0], 7, budget=343)) == 343
    # unsolvable mod 2, which is checked before 7^3 exceeds the budget
    assert solve_linear([[2, 0, 0]], [1], 14, budget=100) == []
    # the budget is checked first for the first factor, even if unsolvable there
    with pytest.raises(BudgetExceeded, match=r"2\^3 = 8 "):
        solve_linear([[2, 0, 0]], [1], 14, budget=7)


def gated_oracle(rows, rhs, n, budget):
    """The budget rule as a loop over every prime-power factor, by increasing
    prime: the first q with q^d > budget refuses, unless the system is already
    unsolvable modulo an earlier factor."""
    d = len(rows[0])
    for q in Modulus(n).prime_powers():
        if q**d > budget:
            return f"BudgetExceeded: {q}^{d} = {q**d} candidates exceeds budget {budget}"
        if not enumerate_solutions(rows, rhs, q):
            return []
    return enumerate_solutions(rows, rhs, n)


@st.composite
def gated_systems(draw):
    """A system, some with an inconsistent all-zero row, and a budget next to
    n^d or to q^d for a prime-power factor q of n, or a small one."""
    rows, rhs, n = draw(linear_systems())
    if draw(st.booleans()):
        rows.append([0] * len(rows[0]))
        rhs.append(draw(st.integers(1, n - 1)))
    d = len(rows[0])
    edge = draw(st.sampled_from([n, *Modulus(n).prime_powers()])) ** d
    budget = draw(st.sampled_from([edge - 1, edge, edge + 1]) | st.integers(1, 400))
    return rows, rhs, n, budget


@settings(max_examples=400, deadline=None)
@given(gated_systems())
def test_budget_gate_matches_the_loop_over_every_factor(system):
    rows, rhs, n, budget = system
    try:
        got = solve_linear(rows, rhs, n, budget=budget)
    except BudgetExceeded as exc:
        got = f"BudgetExceeded: {exc}"
    assert got == gated_oracle(rows, rhs, n, budget)


def test_a_budget_of_n_to_the_d_needs_no_primes():
    # 2^89 - 1 is prime but cannot be proven so; a budget >= n^2 solves without factoring n
    n = 2 * (2**89 - 1)
    assert solve_linear([[1, 0], [0, 1]], [3, 4], n, budget=n**2) == [(3, 4)]
    assert solve_linear([[1, 0], [0, 1], [0, 0]], [3, 4, 5], n, budget=n**2) == []
    # below n^2 the gate needs the primes, and factoring refuses
    with pytest.raises(BudgetExceeded, match=f"^modulus {n} has a factor {2**89 - 1} above "):
        solve_linear([[1, 0], [0, 1]], [3, 4], n, budget=n**2 - 1)


@pytest.mark.parametrize("n", [360, 1009, 1024])
def test_solution_count_matches_sympy_smith_form(n):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(n)
    planted_rng = random.Random(-n)  # a stream of its own, so drawing x* leaves the systems as drawn
    for trial in range(12):
        d = rng.randint(1, 9)
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d + rng.randint(0, 2))]
        if trial % 3 == 0 and d > 1:
            # a dependent column, so the rank drops below d
            for row in rows:
                row[-1] = 2 * row[0] - row[1]
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        invariants = [int(snf[i, i]) for i in range(min(snf.shape))]
        rank = sum(1 for s in invariants if s)
        expected = math.prod(math.gcd(s, n) for s in invariants if s) * n ** (d - rank)
        sols = solve_linear(rows, [0] * len(rows), n, budget=n**d)
        assert len(sols) == expected, (rows, invariants)
        assert all(
            sum(a * x for a, x in zip(row, sol)) % n == 0 for row in rows for sol in sols[:50]
        )
        # a planted rhs = A x* is solved by the coset x* + kernel, of the same size
        planted = tuple(planted_rng.randrange(n) for _ in range(d))
        rhs = [sum(a * x for a, x in zip(row, planted)) for row in rows]
        sols = solve_linear(rows, rhs, n, budget=n**d)
        assert len(sols) == expected, (rows, rhs, invariants)
        assert planted in sols
        assert all(a < b for a, b in zip(sols, sols[1:]))
        residuals = {(sum(a * x for a, x in zip(row, sol)) - c) % n for row, c in zip(rows, rhs) for sol in sols}
        assert residuals == {0}


@pytest.mark.parametrize("n", [4, 6, 7, 9, 12])
def test_three_unknown_systems_match_single_modulus_enumeration(n):
    import itertools
    import random

    rng = random.Random(n)
    candidates = list(itertools.product(range(n), repeat=3))
    for _ in range(40):
        rows = [[rng.randrange(n) for _ in range(3)] for _ in range(rng.choice((1, 2)))]
        expected = sorted(
            cand
            for cand in candidates
            if all(sum(r * x for r, x in zip(row, cand)) % n == 0 for row in rows)
        )
        assert solve_linear(rows, [0] * len(rows), n) == expected
