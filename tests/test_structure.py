import ast
import dataclasses
import itertools
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import voicegroup.modring as modring
import voicegroup.structure as structure
from voicegroup.modring import BudgetExceeded, Modulus, solve_linear
from voicegroup.linalg import (
    ALL_PERMS,
    AffineMap,
    Mat3,
    Vec3,
    determinant,
    is_invertible,
    mat_vec,
    scalar_affine,
    _det_int,
)
from voicegroup.voicing import Generator, JElement, enumerate_J, generator_matrix, sigma_conjugate_generator
from voicegroup.structure import (
    Ambient,
    DualityReport,
    center_of_J,
    centralizer_in_Aff,
    centralizer_in_GL3,
    centralizer_in_M3,
    check_duality,
    count_GL3,
    count_SL3,
    gl3_order_closed_form,
    index_of_J,
    monoid_centralizer_closed_form,
    orbit_restriction_table,
    restrict_to_orbit,
    sl3_order_closed_form,
    ti_group,
    ti_orbit,
)

M12 = Modulus(12)


def test_center_mod_12():
    got = {e.sort_key() for e in center_of_J(12)}
    assert got == {(0, 0, 0), (0, 6, 0), (0, 0, 6), (0, 6, 6)}


def test_center_mod_7_is_trivial():
    assert [e.sort_key() for e in center_of_J(7)] == [(0, 0, 0)]


@pytest.mark.parametrize("n", [3, 4, 6, 7, 12, 15])
def test_center_matches_bruteforce_commutation(n):
    elements = enumerate_J(n)
    central = [a for a in elements if all(a * b == b * a for b in elements)]
    assert center_of_J(n) == central


def test_center_contained_in_gl_centralizer():
    cent = set(centralizer_in_GL3(12).elements)
    for e in center_of_J(12):
        assert e.matrix() in cent


# The full matrix commutant over Z/12 has 48 elements. The diag(u)-product
# family accounts for only 30 of them; the other 18 are the rank-one shifts
# diag(a) + 6*ones*w^T with a even, e.g. rows ((0,6,6),(0,6,6),(0,6,6)),
# which are easy to miss but commute with every generator (hand-checkable).
def test_monoid_centralizer_true_size_and_closed_form(diagonal_products12):
    report = centralizer_in_M3(12)
    assert report.ambient is Ambient.M3
    assert report.size == 48
    assert set(report.elements) == monoid_centralizer_closed_form(12)
    witness = Mat3([[0, 6, 6], [0, 6, 6], [0, 6, 6]], M12)
    assert witness in report.elements
    assert witness not in diagonal_products12
    assert len(diagonal_products12) == 30
    assert diagonal_products12 < set(report.elements)


def test_monoid_centralizer_membership_example():
    assert Mat3([[7, 0, 6], [6, 1, 6], [6, 0, 7]], M12) in centralizer_in_M3(12).elements


def commutator_rows(n):
    """Rows of the linear system 'A commutes with U, V and W' in the 9 entries of A.

    Unknowns are A's entries in row-major order; each generator G contributes
    the 9 linear forms (A G - G A)[p][q].
    """
    rows = []
    for g in Generator:
        gm = generator_matrix(g, n).rows
        for p in range(3):
            for q in range(3):
                row = [0] * 9
                for u in range(3):
                    for v in range(3):
                        coeff = 0
                        if u == p:
                            coeff += gm[v][q]
                        if v == q:
                            coeff -= gm[p][u]
                        row[3 * u + v] = coeff % n
                rows.append(row)
    return rows


def _solved_centralizer(n):
    """The monoid centralizer as the exact solutions of the commutator equations, sorted by rows."""
    rows = commutator_rows(n)
    solutions = solve_linear(rows, [0] * len(rows), n, budget=n**9)
    return tuple(Mat3((s[0:3], s[3:6], s[6:9]), n) for s in solutions)


@pytest.mark.parametrize("n", [4, 6, 12])
def test_monoid_centralizer_closed_form_matches_solver(n):
    report = centralizer_in_M3(n)
    assert report.elements == _solved_centralizer(n)
    assert set(report.elements) == monoid_centralizer_closed_form(n)


# the answer is a closed form, so a budget of n^9 only lifts the q^9 bound
@pytest.mark.parametrize("n", [*range(3, 41), 48, 60, 72, 100])
def test_monoid_centralizer_matches_closed_form_with_lifted_budget(n):
    report = centralizer_in_M3(n, budget=n**9)
    assert report.elements == _solved_centralizer(n)
    assert report.size == (4 * n if n % 2 == 0 else n)


def test_monoid_centralizer_mod_7_is_scalars():
    report = centralizer_in_M3(7, budget=7**9)
    assert report.size == 7
    assert report.elements == _solved_centralizer(7)
    assert all(a.rows == ((u, 0, 0), (0, u, 0), (0, 0, u)) for u, a in enumerate(report.elements))
    assert centralizer_in_GL3(7, budget=7**9).size == 6


def test_monoid_centralizer_default_budget_rejects_mod_7():
    with pytest.raises(BudgetExceeded):
        centralizer_in_M3(7)


def test_monoid_centralizer_commutes_with_whole_group(j12):
    cent = centralizer_in_M3(12).elements
    group_mats = [j.matrix() for j in j12]
    for c in cent:
        for g in group_mats:
            assert c @ g == g @ c


def test_monoid_centralizer_closed_under_multiplication():
    cent = set(centralizer_in_M3(12).elements)
    for a in cent:
        for b in cent:
            assert a @ b in cent


def test_gl_centralizer(diagonal_products12):
    report = centralizer_in_GL3(12)
    assert report.ambient is Ambient.GL3
    assert report.size == 16
    assert set(report.elements) == {c for c in diagonal_products12 if is_invertible(c)}
    assert Mat3([[11, 0, 6], [6, 5, 6], [6, 0, 11]], M12) in report.elements
    assert all(is_invertible(c) for c in report.elements)
    monoid = set(centralizer_in_M3(12).elements)
    assert set(report.elements) == {c for c in monoid if is_invertible(c)}


# every listed member is diag(a) + (n/2)*ones*w^T; its determinant is a^3, so
# the group centralizer is the members with a unit scalar a
@pytest.mark.parametrize("n", range(2, 61))
def test_centralizer_family_determinant_is_the_cube_of_its_scalar(n):
    family = centralizer_in_M3(n, budget=n**9).elements
    assert len(set(family)) == (4 * n if n % 2 == 0 else n)
    for c in family:
        a = (c.rows[0][0] - c.rows[1][0]) % n  # row 0 is a e_0 + (n/2) w, row 1 is (n/2) w off its diagonal
        assert _det_int(c.rows) % n == a**3 % n


# the route before the closed form: the monoid listing filtered by determinant
@pytest.mark.parametrize("n", range(3, 61))
def test_gl_centralizer_is_the_invertible_part_of_the_monoid_listing(n):
    monoid = centralizer_in_M3(n, budget=n**9)
    report = centralizer_in_GL3(n, budget=n**9)
    assert report.elements == tuple(a for a in monoid.elements if is_invertible(a))
    assert report.size == len(report.elements)


def test_centralizer_determinants_are_cubes():
    # every member is diag(a) plus a rank-one shift whose column pattern
    # leaves at least one shift-free column; the determinant is a^3 for the
    # scalar a sitting there
    for c in centralizer_in_M3(12).elements:
        shift_free = [
            j for j in range(3) if all(c.rows[i][j] == 0 for i in range(3) if i != j)
        ]
        assert shift_free
        a = c.rows[shift_free[0]][shift_free[0]]
        assert determinant(c).value == (a**3) % 12


def test_affine_centralizers():
    monoid = centralizer_in_Aff(12)
    assert monoid.ambient is Ambient.AFF_MONOID
    assert monoid.size == 48 * 12  # matrix commutant times diagonal translations
    group = centralizer_in_Aff(12, invertible_only=True)
    assert group.ambient is Ambient.AFF_GROUP
    assert group.size == 192
    members = set(monoid.elements)
    for t in range(12):
        assert scalar_affine(1, t, M12) in members
        assert scalar_affine(11, t, M12) in members
    assert AffineMap(Mat3.identity(M12), Vec3.of(1, 0, 0, M12)) not in members


# The CLI prints the reports and the center in the order they come in, so
# these pin that order: the keys the CLI once re-sorted by.
@pytest.mark.parametrize("n", range(2, 17))
def test_reports_come_sorted_by_the_cli_keys(n):
    for report in (centralizer_in_M3(n, budget=10**12), centralizer_in_GL3(n, budget=10**12)):
        assert list(report.elements) == sorted(report.elements, key=lambda a: a.rows)
    for invertible_only in (False, True):
        maps = list(centralizer_in_Aff(n, invertible_only, budget=10**12).elements)
        assert maps == sorted(maps, key=lambda f: (f.linear.rows, f.translation.entries))
    if n >= 3:
        assert center_of_J(n) == sorted(center_of_J(n), key=JElement.sort_key)


def test_count_gl3_prime_power_factors():
    assert count_GL3(3) == 11_232
    assert count_GL3(4) == 86_016


def test_count_gl3_and_sl3_mod_12():
    assert count_GL3(12) == 11_232 * 86_016
    assert count_SL3(12) == 241_532_928


def _count_dets(q, want_det_one):
    """Count 3x3 matrices over Z/q (q = p^a) with unit (or = 1) determinant.

    Only the first two rows are enumerated. The determinant is c . r3 with
    c = r1 x r2: if c has an entry prime to p, r3 -> c . r3 maps (Z/q)^3 onto
    Z/q and hits every residue q^2 times; otherwise every determinant is
    divisible by p.
    """
    p = min(d for d in range(2, q + 1) if q % d == 0)
    rows = list(itertools.product(range(q), repeat=3))
    primitive = 0
    for a0, a1, a2 in rows:
        for b0, b1, b2 in rows:
            if (a1 * b2 - a2 * b1) % p or (a2 * b0 - a0 * b2) % p or (a0 * b1 - a1 * b0) % p:
                primitive += 1
    return primitive * q**2 * (1 if want_det_one else q - q // p)


def _row_pair_counts(n):
    """(|GL(3, Z/n)|, |SL(3, Z/n)|) as products of _count_dets over the prime-power factors."""
    factors = Modulus(n).prime_powers()
    return (
        math.prod(_count_dets(q, False) for q in factors),
        math.prod(_count_dets(q, True) for q in factors),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 12])
def test_counts_match_closed_form(n):
    assert count_GL3(n) == gl3_order_closed_form(n)
    assert count_SL3(n) == sl3_order_closed_form(n)
    assert (count_GL3(n), count_SL3(n)) == _row_pair_counts(n)


def _det_counts_oracle(q):
    """(#unit determinants, #determinant one) over all q^9 matrices mod q = p^a.

    A numpy scan in chunks that calls nothing from the library.
    """
    np = pytest.importorskip("numpy")
    p = min(d for d in range(2, q + 1) if q % d == 0)
    powers = q ** np.arange(9, dtype=np.int64)
    chunk, units, ones = 1 << 17, 0, 0
    for start in range(0, q**9, chunk):
        idx = np.arange(start, min(start + chunk, q**9), dtype=np.int64)
        e = (idx[:, None] // powers) % q
        det = (
            e[:, 0] * (e[:, 4] * e[:, 8] - e[:, 5] * e[:, 7])
            - e[:, 1] * (e[:, 3] * e[:, 8] - e[:, 5] * e[:, 6])
            + e[:, 2] * (e[:, 3] * e[:, 7] - e[:, 4] * e[:, 6])
        ) % q
        units += int(np.count_nonzero(det % p != 0))
        ones += int(np.count_nonzero(det == 1))
    return units, ones


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_counts_match_full_scan_oracle(q):
    assert (count_GL3(q), count_SL3(q)) == _det_counts_oracle(q) == _row_pair_counts(q)


# the counts are closed forms, so n^9 only lifts the bound on the matrices counted
@pytest.mark.parametrize("n", [5, 7, 8, 9, 36, 60])
def test_counts_match_closed_form_with_lifted_budget(n):
    assert count_GL3(n, budget=n**9) == gl3_order_closed_form(n)
    assert count_SL3(n, budget=n**9) == sl3_order_closed_form(n)
    assert (count_GL3(n, budget=n**9), count_SL3(n, budget=n**9)) == _row_pair_counts(n)


def test_order_formulas_at_a_large_prime():
    # the product formula over F_p, for the prime p = 10000000019
    p = 10000000019
    gl = (p**3 - 1) * (p**3 - p) * (p**3 - p**2)
    assert gl3_order_closed_form(p) == gl
    assert sl3_order_closed_form(p) == gl // (p - 1)


def test_count_budget():
    with pytest.raises(BudgetExceeded):
        count_GL3(7)


def test_indices(monkeypatch):
    assert index_of_J(12, "GL3") == 3_354_624
    assert index_of_J(12, "SL3") == 838_656
    with pytest.raises(ValueError):
        index_of_J(12, "PSL3")
    # the self-check: an order that 2n^2 does not divide is refused
    monkeypatch.setattr(structure, "count_GL3", lambda m, budget: 289)
    with pytest.raises(ArithmeticError, match=r"^\|ambient\| = 289 is not divisible by 2n\^2 = 288; counting bug upstream$"):
        index_of_J(12, "GL3")


@pytest.mark.parametrize("n", [6, 12, 20])
@pytest.mark.parametrize("lift", [0, -1])
def test_each_count_factors_its_modulus_once(monkeypatch, n, lift):
    # at budget n^9 the gate needs no primes and at n^9 - 1 it reads them;
    # either way the order formula takes the one factorization
    calls = []
    factor = modring._prime_powers
    for module in (modring, structure):
        monkeypatch.setattr(module, "_prime_powers", lambda m: calls.append(m) or factor(m))
    budget = n**9 + lift
    for count in (
        lambda: count_GL3(n, budget),
        lambda: count_SL3(n, budget),
        lambda: index_of_J(n, "GL3", budget),
        lambda: index_of_J(n, "SL3", budget),
    ):
        calls.clear()
        count()
        assert calls == [n]


@pytest.mark.parametrize("ambient", ["GL3", "SL3"])
def test_index_refuses_modulus_2(ambient):
    # over Z/2 the voicing group has 4 elements, not 2n^2 = 8, so there is no 2n^2 index to give
    with pytest.raises(ValueError, match=r"^voicing-group normal forms need modulus >= 3 "):
        index_of_J(2, ambient)
    assert gl3_order_closed_form(2) == 168


def test_ti_group_size():
    assert len(ti_group(12)) == 24
    assert len({(f.linear.rows, f.translation.entries) for f in ti_group(12)}) == 24


def test_duality_dual_pairs():
    for seed in ((0, 4, 7), (0, 4, 1)):
        report = check_duality(Vec3.of(*seed, M12))
        assert report.orbit_size == 24
        assert report.simply_transitive_contextual
        assert report.simply_transitive_TI
        assert report.mutually_commuting
        assert report.is_dual_pair


# each translation-like generator (UV)^a (UW)^b by name, with its shift of (x, y, z)
_GENERATORS = {
    "UV": (1, 0, lambda x, y, z: z - x),
    "UW": (0, 1, lambda x, y, z: z - y),
    "(UV)(UW)^-1": (1, -1, lambda x, y, z: y - x),
}


def _contextual_elements(which, m):
    """The 2n elements U^k T^t, t = 0 .. n-1 for k = 0 and then k = 1."""
    a, b, _ = _GENERATORS[which]
    return [JElement(k, a * t, b * t, m) for k in (0, 1) for t in range(m.n)]


def _duality_oracle(seed):
    """The report from restricting all 2n contextual elements and all 2n T/I maps."""
    m = seed.modulus
    n = m.n
    # the first generator whose shift of the seed is a unit, else UV
    units = [name for name, (_, _, shift) in _GENERATORS.items() if math.gcd(shift(*seed.entries), n) == 1]
    which = units[0] if units else "UV"
    orbit = ti_orbit(seed)
    orbit_set = set(orbit)
    contextual = _contextual_elements(which, m)
    ctx_restrictions = [restrict_to_orbit(g.apply, orbit) for g in contextual]
    ctx_transitive = {g.apply(seed) for g in contextual} == orbit_set
    ctx_simply = ctx_transitive and len(set(ctx_restrictions)) == len(orbit)
    ti = ti_group(m)
    ti_restrictions = [restrict_to_orbit(f.apply, orbit) for f in ti]
    ti_transitive = {f.apply(seed) for f in ti} == orbit_set
    ti_simply = ti_transitive and len(set(ti_restrictions)) == len(orbit)
    # generators sit at positions 1 and n of both lists: the translation-like one and U, x+1 and -x
    commuting = all(
        tuple(c[i] for i in t) == tuple(t[i] for i in c)
        for c in (ctx_restrictions[1], ctx_restrictions[n])
        for t in (ti_restrictions[1], ti_restrictions[n])
    )
    return DualityReport(
        seed=seed,
        orbit_size=len(orbit),
        contextual_generator=which,
        simply_transitive_contextual=ctx_simply,
        simply_transitive_TI=ti_simply,
        mutually_commuting=commuting,
        is_dual_pair=len(orbit) == 2 * n and ctx_simply and ti_simply and commuting,
    )


@pytest.mark.parametrize("n", range(3, 17))
def test_duality_matches_oracle_on_every_seed(n):
    # seeds with z = 0 cover all: a shift by (c, c, c) changes only the seed field
    m = Modulus(n)
    for x in range(n):
        for y in range(n):
            seed = Vec3.of(x, y, 0, m)
            assert check_duality(seed) == _duality_oracle(seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 60), st.data())
def test_duality_property(n, data):
    residue = st.integers(0, n - 1)
    seed = Vec3((data.draw(residue), data.draw(residue), data.draw(residue)), Modulus(n))
    report = check_duality(seed)
    if n <= 24:
        assert report == _duality_oracle(seed)
    shifted = seed.shift(data.draw(residue))
    assert check_duality(shifted) == dataclasses.replace(report, seed=shifted)
    assert report.orbit_size == len(ti_orbit(seed))
    # T/I is transitive on its own orbit and has 2n elements
    assert report.simply_transitive_TI == (report.orbit_size == 2 * n)
    assert report.is_dual_pair == (
        report.orbit_size == 2 * n
        and report.simply_transitive_contextual
        and report.simply_transitive_TI
        and report.mutually_commuting
    )


@pytest.mark.parametrize("entries", [(0, 0, 0), (0, 6, 0)])
def test_duality_degenerate_seeds(entries):
    # orbits of 12 < 2n tuples: both groups act, but neither simply transitively
    seed = Vec3.of(*entries, M12)
    report = check_duality(seed)
    assert report == _duality_oracle(seed)
    assert report.orbit_size == 12
    assert report.contextual_generator == "UV"
    assert not report.simply_transitive_contextual
    assert not report.simply_transitive_TI
    assert report.mutually_commuting
    assert not report.is_dual_pair


def _commute_elementwise(seed, which):
    """Every restricted contextual element against every restricted T/I map."""
    m = seed.modulus
    orbit = ti_orbit(seed)
    ctx = {restrict_to_orbit(g.apply, orbit) for g in _contextual_elements(which, m)}
    ti = {restrict_to_orbit(f.apply, orbit) for f in ti_group(m)}
    return all(
        tuple(c[t[i]] for i in range(len(orbit))) == tuple(t[c[i]] for i in range(len(orbit)))
        for c in ctx
        for t in ti
    )


@pytest.mark.parametrize("n", range(3, 11))
def test_duality_commutation_matches_all_pairs(n):
    m = Modulus(n)
    for x in range(n):
        for y in range(n):
            report = check_duality(Vec3.of(x, y, 0, m))
            commuting = _commute_elementwise(report.seed, report.contextual_generator)
            assert report.mutually_commuting == commuting
            assert report.is_dual_pair == (
                report.orbit_size == 2 * n
                and report.simply_transitive_contextual
                and report.simply_transitive_TI
                and commuting
            )


def test_duality_counterexample():
    report = check_duality(Vec3.of(0, 4, 10, M12))
    assert report.orbit_size == 24
    assert not report.simply_transitive_contextual
    assert report.simply_transitive_TI
    assert report.mutually_commuting
    assert not report.is_dual_pair
    orbit = ti_orbit(Vec3.of(0, 4, 10, M12))
    uv = JElement(0, 1, 0, M12)
    uv7 = JElement(0, 7, 0, M12)
    assert restrict_to_orbit(uv.apply, orbit) == restrict_to_orbit(uv7.apply, orbit)
    # a matrix acts as its element does; an orbit the action leaves is refused
    assert restrict_to_orbit(uv.matrix().__matmul__, orbit) == restrict_to_orbit(uv.apply, orbit)
    with pytest.raises(ValueError, match=r"^orbit is not closed under the action: \(0,4,10\) -> \(1,5,11\)$"):
        restrict_to_orbit(scalar_affine(1, 1, M12).apply, orbit[:1])


def test_duality_uses_other_generator_when_z_minus_y_generates():
    # (0,10,4): z-x = 4 is not a generator but z-y = 6 is not either; (0,10,1):
    # z-x = 1 generates so UV is used; (0,5,4): z-x = 4, z-y = 11 -> UW
    report = check_duality(Vec3.of(0, 5, 4, M12))
    assert report.contextual_generator == "UW"
    assert report.is_dual_pair


@pytest.mark.parametrize("n", [7, 8, 10, 12])
def test_duality_census_of_trichords(n):
    # (0, a, b) is dual exactly when one of its intervals a, b, b - a is a unit
    # mod n: the contextual generator with that shift is then simply transitive
    m = Modulus(n)
    dual = []
    for a in range(1, n):
        for b in range(a + 1, n):
            report = check_duality(Vec3.of(0, a, b, m))
            assert report.is_dual_pair == any(math.gcd(i, n) == 1 for i in (a, b, b - a)), (a, b)
            dual.append(report.is_dual_pair)
    if n == 12:
        assert (sum(dual), len(dual)) == (42, 55)
        # the eight trichords whose only unit interval is b - a
        for a, b in ((1, 3), (1, 4), (1, 9), (1, 10), (5, 8), (5, 9), (7, 9), (7, 10)):
            report = check_duality(Vec3.of(0, a, b, m))
            assert report.contextual_generator == "(UV)(UW)^-1"
            assert report.is_dual_pair


def test_restriction_kernel_size(j12):
    # the 288 elements restrict to exactly 24 distinct permutations of the
    # dualistic root-position orbit, so the kernel has 12 elements
    orbit = ti_orbit(Vec3.of(0, 4, 7, M12))
    assert len(orbit) == 24
    restrictions = {restrict_to_orbit(j.apply, orbit) for j in j12}
    assert len(restrictions) == 24
    assert len(j12) // len(restrictions) == 12


EXPECTED_TABLE = {
    (0, 4, 7): {"U": "R", "V": "L", "W": "P"},
    (4, 7, 0): {"U": "L", "V": "P", "W": "R"},
    (7, 0, 4): {"U": "P", "V": "R", "W": "L"},
    (0, 7, 4): {"U": "P", "V": "L", "W": "R"},
    (4, 0, 7): {"U": "R", "V": "P", "W": "L"},
    (7, 4, 0): {"U": "L", "V": "R", "W": "P"},
}


def test_orbit_restriction_table_raises_on_an_ambiguous_match():
    # refused input is a ValueError, as in every other group function
    with pytest.raises(ValueError, match=r"matches \['L', 'R'\] on orbit of \(0,4,0\)"):
        orbit_restriction_table(7)
    with pytest.raises(ValueError, match=r"^generator U matches \['P', 'R'\] on orbit of \(0,1,1\); expected exactly one$"):
        orbit_restriction_table(3)
    with pytest.raises(ValueError, match=r"^generator V matches \['P', 'L'\] on orbit of \(0,0,3\); expected exactly one$"):
        orbit_restriction_table(4)


def test_orbit_restriction_table_refuses_modulus_2():
    with pytest.raises(ValueError, match=r"^voicing-group normal forms need modulus >= 3 "):
        orbit_restriction_table(2)


def _restriction_table_oracle(n):
    """The table by comparing every generator with every candidate pairwise, through matrices."""
    m = Modulus(n)
    contextual = {"P": Generator.W, "L": Generator.V, "R": Generator.U}
    table = {}
    for tau in ALL_PERMS:
        rep = tau.apply(Vec3.of(0, 4, 7, m))
        orbit = ti_orbit(rep)
        column = {}
        for g in Generator:
            matches = [
                name
                for name, x in contextual.items()
                if all(
                    mat_vec(generator_matrix(g, m), w)
                    == mat_vec(generator_matrix(sigma_conjugate_generator(tau, x), m), w)
                    for w in orbit
                )
            ]
            if len(matches) != 1:
                raise ValueError(f"generator {g} matches {matches!r} on orbit of {rep}; expected exactly one")
            column[g.name] = matches[0]
        table[rep.entries] = column
    return table


@pytest.mark.parametrize("n", range(3, 61))
def test_orbit_restriction_table_matches_pairwise_oracle(n):
    try:
        expected = _restriction_table_oracle(n)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
            orbit_restriction_table(n)
    else:
        assert orbit_restriction_table(n) == expected


def _count_kernel_calls(monkeypatch):
    """Wrap the action kernels of voicing and linalg in counters: the J action
    behind every group element, the T/I maps, the permutations and mat_vec."""
    import voicegroup.linalg as linalg
    import voicegroup.voicing as voicing

    calls = {}
    for owner, name in (
        (voicing, "_act"),
        (linalg, "mat_vec"),
        (linalg.AffineMap, "apply"),
        (linalg.Perm3, "apply"),
    ):
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        calls[key] = 0
        kernel = getattr(owner, name)

        def counted(*args, key=key, kernel=kernel):
            calls[key] += 1
            return kernel(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("entries, n", [((0, 4, 7), 12), ((0, 3, 11), 15)])
def test_duality_evaluates_each_generator_once_per_orbit_point(monkeypatch, entries, n):
    # the old walk ran T and U once per orbit point and x+1, -x and the seed's
    # T/I images once each; the closed form runs no generator at any point
    calls = _count_kernel_calls(monkeypatch)
    report = check_duality(Vec3.of(*entries, Modulus(n)))
    assert report.is_dual_pair
    assert report.orbit_size == 2 * n
    assert calls == dict.fromkeys(calls, 0)


def test_orbit_restriction_table_evaluates_each_generator_once_per_orbit_point(monkeypatch):
    # six orbits of 24 points, three generators each, were walked once per point;
    # the table is now read off the six representatives with no action at all
    calls = _count_kernel_calls(monkeypatch)
    assert orbit_restriction_table(12) == EXPECTED_TABLE
    assert calls == dict.fromkeys(calls, 0)


def test_duality_and_restriction_table_walk_no_orbit():
    # both answers are closed forms in the seed's intervals: a walk over the 2n
    # points of an orbit mod a 13-digit prime would not finish
    p = 1_000_000_000_039
    m = Modulus(p)
    assert m.prime_powers() == (p,)
    report = check_duality(Vec3.of(0, 4, 7, m))
    assert (report.orbit_size, report.contextual_generator, report.is_dual_pair) == (2 * p, "UV", True)
    report = check_duality(Vec3.of(5, 5, 5, m))
    assert (report.orbit_size, report.simply_transitive_TI, report.is_dual_pair) == (p, False, False)
    # and structure names no action kernel: no group element or T/I map is applied
    tree = ast.parse(Path(structure.__file__).read_text(encoding="utf-8"))
    kernels = {"_act", "_ti_image", "_ti_images", "apply", "mat_vec", "_GENERATOR_EXPONENTS"}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name in kernels)
        or (isinstance(node, ast.Name) and node.id in kernels)
        or (isinstance(node, ast.Attribute) and node.attr in kernels)
    ]
    assert lines == [], f"structure.py: action kernel at lines {lines}"


def test_orbit_restriction_table():
    table = orbit_restriction_table(12)
    assert table == EXPECTED_TABLE
    for letter in ("U", "V", "W"):
        row = [column[letter] for column in table.values()]
        assert sorted(row) == ["L", "L", "P", "P", "R", "R"]


def test_centralizer_report_serialization():
    report = centralizer_in_GL3(12)
    payload = report.to_jsonable()
    assert payload["ambient"] == "gl3"
    assert payload["size"] == 16
    assert len(payload["matrices"]) == 16
    aff = centralizer_in_Aff(12, invertible_only=True)
    payload = aff.to_jsonable()
    assert len(payload["maps"]) == 192
    assert {"matrix", "translation"} <= set(payload["maps"][0])
