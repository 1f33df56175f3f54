"""Acceptance gate: one test per criterion, every value exact (no tolerances).

Each test prints a `criterion N: PASS` line on success (run with -s or -rA
to see them). Criterion 4 is split into the group-level clause (4a) and the
monoid-level clause (4b). The monoid sizes once stated for 4b, 30 matrices
and 360 affine maps, are false: the commutant of the voicing group in
M(3, Z/12) has 48 matrices and the affine-monoid centralizer 576 maps. 4b
asserts these proven values against an enumeration oracle that does not go
through the library's solver; see its docstring and the README section
"Criterion 4b: the monoid centralizer".
"""

import random
from itertools import product

import pytest

from voicegroup.modring import Modulus, solve_linear
from voicegroup.linalg import (
    Mat3,
    Perm3,
    TRANSPOSITION_13,
    Vec3,
    scalar_affine,
)
from voicegroup.voicing import (
    Generator,
    JElement,
    decode,
    generator_matrix,
    word_to_element,
)
from voicegroup.extension import ExtElement, conjugacy_class
from voicegroup.structure import (
    center_of_J,
    centralizer_in_Aff,
    centralizer_in_GL3,
    centralizer_in_M3,
    check_duality,
    count_GL3,
    count_SL3,
    diagonal_product_family,
    index_of_J,
    monoid_centralizer_closed_form,
    orbit_restriction_table,
    restrict_to_orbit,
    ti_orbit,
)
from voicegroup.triadic import (
    all_triads,
    all_utts,
    hook_from_normal_form_B,
    hook_normal_form_B,
    orbit,
    rho,
    root_position_tuple,
    stabilizer_of_set,
    wreath_generators,
)
from voicegroup.analysis import (
    find_affine_morphisms,
    orbit_of_element,
    rich_element,
    solve_step,
    solve_uniform,
    verify_morphism_commutation,
)
from voicegroup.datasets import FALLING_FIFTHS, GRAIL, WEBERN_ROW_1, WEBERN_ROW_2

M12 = Modulus(12)


def test_criterion_01_group_order_and_normal_form_bijection(j12, matrix_closure):
    gens = [generator_matrix(g, M12) for g in Generator]
    closure = matrix_closure(gens + [Mat3.identity(M12)])
    assert len(closure) == 288
    encoded = {e.matrix() for e in j12}
    assert encoded == closure
    assert len(j12) == 288
    for e in j12:
        assert decode(e.matrix()) == e
    print("criterion 1: PASS - group has 288 elements, normal forms biject onto it")


def test_criterion_02_generator_relations():
    u, v, w = (word_to_element(c, M12) for c in "UVW")
    for g in (u, v, w):
        assert (g * g).is_identity()
    uvw = u * v * w
    assert (uvw * uvw).is_identity()
    uv, uw = u * v, u * w
    assert (uv**12).is_identity() and not any((uv**t).is_identity() for t in range(1, 12))
    assert (uw**12).is_identity() and not any((uw**t).is_identity() for t in range(1, 12))
    assert uv * uw == uw * uv
    for m in range(12):
        assert u.inverse() * (uv**m) * u == uv ** (-m)
        assert u.inverse() * (uw**m) * u == uw ** (-m)
    print("criterion 2: PASS - involution, order-12, commutation and conjugation relations hold")


def test_criterion_03_center():
    got = {e.sort_key() for e in center_of_J(12)}
    assert got == {(0, 0, 0), (0, 6, 0), (0, 0, 6), (0, 6, 6)}
    print("criterion 3: PASS - center is the Klein 4-group {Id,(UV)^6,(UW)^6,(UV)^6(UW)^6}")


def test_criterion_04a_group_level_centralizers():
    gl = centralizer_in_GL3(12)
    assert gl.size == 16
    assert set(gl.elements) == diagonal_product_family(12, invertible_only=True)
    affx = centralizer_in_Aff(12, invertible_only=True)
    assert affx.size == 192
    print("criterion 4a: PASS - group centralizers: 16 matrices, 192 affine maps")


# The voicing reflections U, V, W as plain integer rows acting on column
# vectors, written out here so that the criterion 4b oracle shares no code
# with the library's matrices or solver.
_UVW_ROWS = (
    ((0, 1, 0), (1, 0, 0), (1, 1, -1)),
    ((-1, 1, 1), (0, 0, 1), (0, 1, 0)),
    ((0, 0, 1), (1, -1, 1), (1, 0, 0)),
)


def _commutant_by_enumeration(q):
    """Every 3x3 matrix mod q commuting with U, V and W, scanning all q^9."""
    np = pytest.importorskip("numpy")
    mats = np.indices((q,) * 9).reshape(9, -1).T.reshape(-1, 3, 3)
    keep = np.ones(len(mats), dtype=bool)
    for rows in _UVW_ROWS:
        g = np.array(rows)
        keep &= ((mats @ g - g @ mats) % q == 0).all(axis=(1, 2))
    return mats[keep]


def test_criterion_04b_monoid_centralizer_stated_sizes():
    """Monoid-level clause of criterion 4: 48 matrices and 576 affine maps.

    The sizes first stated for this clause, 30 matrices (the diag(u)
    products with the central involutions) and 360 affine maps, are
    refuted by the enumeration oracle below. The commutant of U, V, W in
    M(3, Z/12) is diag(a) + 6*ones*w^T, a in Z/12, w of even weight: 48
    matrices. The 30-element family is a proper subset; the other 18 are
    the rank-one shifts with even a and nonzero w, such as the matrix
    whose every row is (0,6,6). Only the constant vectors are fixed by all
    three generators, so the affine monoid has 48 * 12 = 576 maps.

    Oracle: all 4^9 matrices mod 4 and all 3^9 mod 3 are checked against
    the integer rows of U, V, W (16 and 3 commute). Since Z/12 = Z/4 x Z/3
    entrywise and commutation is linear in the entries, their CRT product
    is the commutant mod 12. The fixed translations come from scanning all
    of (Z/12)^3.
    """
    np = pytest.importorskip("numpy")
    assert [generator_matrix(g, M12) for g in Generator] == [
        Mat3.of(rows, M12) for rows in _UVW_ROWS
    ]

    mod4 = _commutant_by_enumeration(4)
    mod3 = _commutant_by_enumeration(3)
    assert (len(mod4), len(mod3)) == (16, 3)
    # x = 9*x4 + 4*x3 is x4 mod 4 and x3 mod 3.
    oracle = {Mat3.of(((9 * a + 4 * b) % 12).tolist(), M12) for a in mod4 for b in mod3}
    assert len(oracle) == 48

    monoid = centralizer_in_M3(12)
    got = set(monoid.elements)
    assert monoid.size == len(monoid.elements) == 48
    assert got == oracle
    assert got == monoid_centralizer_closed_form(12)

    family = diagonal_product_family(12)
    assert len(family) == 30 and family < got
    shifts = {
        Mat3.of([[a * (i == j) + 6 * w[j] for j in range(3)] for i in range(3)], M12)
        for a in range(0, 12, 2)
        for w in ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    }
    assert len(shifts) == 18
    assert got - family == shifts

    witness = np.full((3, 3), 6) * np.array([0, 1, 1])
    for rows in _UVW_ROWS:
        g = np.array(rows)
        assert ((witness @ g - g @ witness) % 12 == 0).all()
    assert Mat3.of(witness.tolist(), M12) in shifts

    vecs = np.indices((12,) * 3).reshape(3, -1).T
    is_fixed = np.ones(len(vecs), dtype=bool)
    for rows in _UVW_ROWS:
        is_fixed &= ((vecs @ np.array(rows).T - vecs) % 12 == 0).all(axis=1)
    fixed = [tuple(v) for v in vecs[is_fixed].tolist()]
    assert sorted(fixed) == [(q, q, q) for q in range(12)]

    aff = centralizer_in_Aff(12)
    assert aff.size == len(aff.elements) == 48 * 12 == 576
    assert {(f.linear, f.translation.entries) for f in aff.elements} == {
        (a, t) for a in oracle for t in fixed
    }
    print(
        "criterion 4b: PASS - monoid centralizers: 48 matrices, 576 affine maps "
        "(the 30 diag(u) products plus 18 rank-one shifts)"
    )


def test_criterion_05_brute_force_counts_and_indices():
    assert count_GL3(3) == 11_232
    assert count_GL3(4) == 86_016
    assert count_SL3(12) == 241_532_928
    assert index_of_J(12, "GL3") == 3_354_624
    assert index_of_J(12, "SL3") == 838_656
    print("criterion 5: PASS - GL/SL brute-force counts and indices match")


def test_criterion_06_trace_table_and_conjugacy_classes(ext12):
    expected = {
        ("identity", 0): 3,
        ("identity", 1): 11,
        ("three_cycle", 0): 0,
        ("three_cycle", 1): 2,
        ("transposition", 0): 1,
        ("transposition", 1): 1,
    }
    for a in ext12:
        assert a.trace().value == expected[(a.sigma.cycle_type(), a.j.k)]
    u = ExtElement.from_j(JElement(1, 0, 0, M12))
    assert len(conjugacy_class(u, within="J")) == 36
    assert len(conjugacy_class(u, within="extension")) == 108
    print("criterion 6: PASS - trace table over all 1728 elements; class of U has 36/108 elements")


def test_criterion_07_orbits_and_restriction_table():
    seed = Vec3.of(0, 4, 7, M12)
    minor_seed = Vec3.of(0, 3, 7, M12)
    ext_gens = [ExtElement.from_j(JElement.from_generator(g, M12)) for g in Generator] + [
        ExtElement.from_sigma(s, M12) for s in (Perm3.from_cycle("(12)"), Perm3.from_cycle("(13)"))
    ]
    plus_gens = [
        ExtElement.from_j(JElement(0, 1, 0, M12)),
        ExtElement.from_j(JElement(0, 0, 1, M12)),
        ExtElement.from_sigma(Perm3.from_cycle("(12)"), M12),
        ExtElement.from_sigma(Perm3.from_cycle("(123)"), M12),
    ]
    j_gens = [ExtElement.from_j(JElement.from_generator(g, M12)) for g in Generator]
    hook_gens = [
        ExtElement(TRANSPOSITION_13, JElement(1, 0, 0, M12)),
        ExtElement(TRANSPOSITION_13, JElement(1, 0, 1, M12)),
    ]
    assert len(orbit(ext_gens, seed)) == 144
    assert len(orbit(plus_gens, seed)) == 72
    assert len(orbit(plus_gens, minor_seed)) == 72
    assert len(orbit(j_gens, seed)) == 24
    assert orbit(hook_gens, seed) == {root_position_tuple(t) for t in all_triads()}
    table = orbit_restriction_table(12)
    assert table == {
        (0, 4, 7): {"U": "R", "V": "L", "W": "P"},
        (4, 7, 0): {"U": "L", "V": "P", "W": "R"},
        (7, 0, 4): {"U": "P", "V": "R", "W": "L"},
        (0, 7, 4): {"U": "P", "V": "L", "W": "R"},
        (4, 0, 7): {"U": "R", "V": "P", "W": "L"},
        (7, 4, 0): {"U": "L", "V": "R", "W": "P"},
    }
    print("criterion 7: PASS - orbit sizes 144/72/72/24/24 and the 6x3 restriction table")


def test_criterion_08_triadic_representation(ext12, hooks):
    utts = all_utts()
    images = {u: rho(u) for u in utts}
    assert len(set(images.values())) == 288
    for a in utts:
        ra = images[a]
        for b in utts:
            assert images[a * b] == ra * images[b]
    rootpos = {root_position_tuple(t) for t in all_triads()}
    stab = set(stabilizer_of_set(ext12, rootpos))
    assert stab == set(images.values()) == set(hooks)
    from voicegroup.triadic import UTT

    assert str(rho(UTT("+", 1, 0)).matrix()) == "[[9,1,3],[8,2,3],[8,1,4]]"
    assert str(rho(UTT("+", 0, 1)).matrix()) == "[[10,11,4],[9,0,4],[9,11,5]]"
    assert str(rho(UTT("-", 0, 0)).matrix()) == "[[1,0,0],[1,11,1],[0,0,1]]"
    e13w = rho(UTT("-", 0, 0))
    assert e13w == ExtElement(TRANSPOSITION_13, JElement(1, 0, 1, M12))
    for m in range(12):
        for n in range(12):
            inner = ExtElement.from_j(JElement(0, m, n, M12))
            assert e13w * inner * e13w.inverse() == ExtElement.from_j(JElement(0, m + n, -n, M12))
    forms = {hook_normal_form_B(h) for h in hooks}
    assert len(forms) == 288
    for h in hooks:
        p, n = hook_normal_form_B(h)
        assert hook_from_normal_form_B(p, n) == h
        assert (p % 2 == 1) == h.is_mode_reversing()
    e, f, g = wreath_generators()
    assert e * f * e.inverse() == g
    print(
        "criterion 8: PASS - triadic representation: homomorphism, image = stabilizer,"
        " generator matrices, conjugation rule, second normal form"
    )


def test_criterion_09_progression_solvers():
    sols = solve_uniform(GRAIL, Perm3.from_cycle("(12)"), 1)
    assert sorted((s.m, s.n) for s in sols) == [(2, 7), (5, 4), (8, 1), (11, 10)]
    displayed = {
        (2, 7): "[[11,5,9],[10,6,9],[11,6,8]]",
        (5, 4): "[[8,8,9],[7,9,9],[8,9,8]]",
        (8, 1): "[[5,11,9],[4,0,9],[5,0,8]]",
        (11, 10): "[[2,2,9],[1,3,9],[2,3,8]]",
    }
    assert {(s.m, s.n): str(s.matrix) for s in sols} == displayed
    fsols = solve_uniform(FALLING_FIFTHS, Perm3.from_cycle("(12)"), 1)
    assert [(s.m, s.n) for s in fsols] == [(3, 0)]
    assert str(fsols[0].matrix) == "[[5,0,3],[4,1,3],[5,1,2]]"
    print("criterion 9: PASS - hexatonic cycle solver (4 solutions) and mod-7 fifths (unique)")


def test_criterion_10_rich_and_webern():
    e = rich_element(12)
    cycle = orbit_of_element(e, Vec3.of(8, 4, 5, M12))
    assert len(cycle) == 8
    assert cycle[:6] == list(WEBERN_ROW_1.tuples)
    assert set().union(*(v.entries for v in cycle)) == {1, 2, 4, 5, 7, 8, 10, 11}
    down_two = scalar_affine(1, -2, M12)
    for src, dst in zip(WEBERN_ROW_1.tuples, WEBERN_ROW_2.tuples):
        assert down_two(src) == dst
    assert verify_morphism_commutation(down_two, [e])
    assert down_two in find_affine_morphisms(WEBERN_ROW_1, WEBERN_ROW_2)
    print("criterion 10: PASS - RICH reproduces the enchained rows, octatonic closure, x-2 morphism")


def test_criterion_11_duality():
    for seed in ((0, 4, 7), (0, 4, 1)):
        report = check_duality(Vec3.of(*seed, M12))
        assert report.is_dual_pair and report.orbit_size == 24
    report = check_duality(Vec3.of(0, 4, 10, M12))
    assert not report.is_dual_pair
    assert not report.simply_transitive_contextual
    orbit_ = ti_orbit(Vec3.of(0, 4, 10, M12))
    assert restrict_to_orbit(JElement(0, 1, 0, M12), orbit_) == restrict_to_orbit(
        JElement(0, 7, 0, M12), orbit_
    )
    print("criterion 11: PASS - dual pairs at (0,4,7) and (0,4,1); (0,4,10) fails with witness")


def test_criterion_12_oracle_equivalence(j12, ext12):
    np = pytest.importorskip("numpy")
    # normal-form multiplication vs matrix multiplication, all 288 x 288 pairs
    mats = np.array([e.matrix().rows for e in j12], dtype=np.int64)
    products = [
        [tuple(map(tuple, p)) for p in row]
        for row in (np.einsum("aij,bjk->abik", mats, mats) % 12).tolist()
    ]
    for a, row in zip(j12, products):
        for b, want in zip(j12, row):
            assert (a * b).matrix().rows == want

    # linear solve_step vs scanning all 1728 element matrices, 200 random instances
    ext_mats = np.array([a.matrix().rows for a in ext12], dtype=np.int64)
    rng = random.Random(12)
    for _ in range(200):
        src = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
        dst = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
        hits = ((ext_mats @ np.array(src.entries)) % 12 == np.array(dst.entries)).all(axis=1)
        scan = sorted((ext12[i] for i in np.flatnonzero(hits)), key=ExtElement.sort_key)
        assert solve_step(src, dst) == scan

    # CRT-per-factor solving vs direct mod-12 enumeration, homogeneous
    # systems: every 1- and 2-row system in 1 and 2 unknowns
    candidates = {d: np.array(list(product(range(12), repeat=d)), dtype=np.int64) for d in (1, 2)}

    def direct(rows, d):
        # product() lists the candidates in sorted order, and the mask keeps it
        ok = ((candidates[d] @ np.array(rows, dtype=np.int64).T) % 12 == 0).all(axis=1)
        return list(map(tuple, candidates[d][ok].tolist()))

    for a in range(12):
        assert solve_linear([[a]], [0], 12) == direct([[a]], 1)
        for b in range(12):
            assert solve_linear([[a], [b]], [0, 0], 12) == direct([[a], [b]], 1)
            assert solve_linear([[a, b]], [0], 12) == direct([[a, b]], 2)
    for a in range(12):
        for b in range(12):
            for c in range(12):
                for d in range(12):
                    rows = [[a, b], [c, d]]
                    assert solve_linear(rows, [0, 0], 12) == direct(rows, 2)
    print("criterion 12: PASS - dual-route checks: multiplication, step solving, linear solving")
