import random

import pytest
from hypothesis import given, strategies as st

from voicegroup.modring import Modulus
from voicegroup.linalg import (
    ALL_PERMS,
    AffineMap,
    Mat3,
    Perm3,
    Vec3,
    determinant,
    is_invertible,
    mat_mul,
    mat_vec,
    perm_matrix,
    scalar_affine,
)
from voicegroup.voicing import Generator, generator_matrix


def rand_mat(rng, n):
    return Mat3.of([[rng.randrange(n) for _ in range(3)] for _ in range(3)], Modulus(n))


def test_vec_normalization_and_display():
    v = Vec3.of(-3, 14, 7, 12)
    assert v.entries == (9, 2, 7)
    assert str(v) == "(9,2,7)"


def test_matrix_display_format():
    u = generator_matrix(Generator.U, Modulus(12))
    assert str(u) == "[[0,1,0],[1,0,0],[1,1,11]]"


def test_identity_is_neutral():
    m = Modulus(12)
    e = Mat3.identity(m)
    for g in Generator:
        gm = generator_matrix(g, m)
        assert mat_mul(e, gm) == gm == mat_mul(gm, e)
    v = Vec3.of(3, 7, 10, m)
    assert mat_vec(e, v) == v


def test_mat_vec_example():
    m = Modulus(12)
    u = generator_matrix(Generator.U, m)
    assert mat_mul(u, u) == Mat3.identity(m)
    assert mat_vec(u, Vec3.of(0, 4, 7, m)) == Vec3.of(4, 0, 9, m)


@given(st.integers(0, 10**6), st.sampled_from([7, 12]))
def test_mat_mul_associative(seed, n):
    rng = random.Random(seed)
    a, b, c = (rand_mat(rng, n) for _ in range(3))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@pytest.mark.parametrize("n", [7, 12])
def test_det_multiplicative_on_random_pairs(n):
    rng = random.Random(n)
    for _ in range(1000):
        a = rand_mat(rng, n)
        b = rand_mat(rng, n)
        assert determinant(mat_mul(a, b)).value == (determinant(a) * determinant(b)).value


def test_generator_determinants():
    for n in (7, 12):
        for g in Generator:
            assert determinant(generator_matrix(g, Modulus(n))).value == 1
    assert determinant(Mat3.identity(Modulus(12))).value == 1


def test_non_invertible_scalar():
    d6 = Mat3.of([[6, 0, 0], [0, 6, 0], [0, 0, 6]], Modulus(12))
    assert determinant(d6).value == 0
    assert not is_invertible(d6)


@pytest.mark.parametrize("n", range(2, 31))
def test_is_invertible_matches_unit_determinant(n):
    rng = random.Random(n)
    mats = [rand_mat(rng, n) for _ in range(200)]
    got = [is_invertible(a) for a in mats]
    assert got == [determinant(a).is_unit() for a in mats]
    # both answers occur: a unimodular and a singular matrix at every n
    assert is_invertible(Mat3.of([[1, 5, 0], [0, 1, 0], [-2, 3, 1]], Modulus(n)))
    assert not is_invertible(Mat3.of([[1, 2, 3], [2, 4, 6], [0, 1, 1]], Modulus(n)))


def test_group_inverses_found_by_search(j12):
    # no general matrix inverse: for group elements, search the group itself
    e = Mat3.identity(Modulus(12))
    mats = {j: j.matrix() for j in j12[:40]}
    for j, mat in mats.items():
        inverses = [other for other in j12 if mat_mul(mat, other.matrix()) == e]
        assert inverses == [j.inverse()]


def test_perm_composition_and_inverse():
    s = Perm3.from_cycle("(123)")
    t = Perm3.from_cycle("(12)")
    assert (s * t).apply((1, 2, 3)) == s.apply(t.apply((1, 2, 3)))
    for p in ALL_PERMS:
        assert (p * p.inverse()).is_identity()


def test_perm_apply_example():
    assert Perm3.from_cycle("(123)").apply((10, 20, 30)) == (30, 10, 20)
    assert Perm3.identity().apply((1, 2, 3)) == (1, 2, 3)


def test_perm_matrix_examples():
    m = Modulus(12)
    assert str(perm_matrix(Perm3.from_cycle("(123)"), m)) == "[[0,0,1],[1,0,0],[0,1,0]]"
    assert perm_matrix(Perm3.identity(), m) == Mat3.identity(m)


def test_perm_matrix_is_homomorphism():
    m = Modulus(12)
    for a in ALL_PERMS:
        for b in ALL_PERMS:
            assert mat_mul(perm_matrix(a, m), perm_matrix(b, m)) == perm_matrix(a * b, m)


def test_perm_matrix_implements_apply():
    m = Modulus(12)
    v = Vec3.of(3, 7, 10, m)
    for p in ALL_PERMS:
        assert mat_vec(perm_matrix(p, m), v) == p.apply(v)


def test_perm_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Perm3.from_cycle("(14)")
    with pytest.raises(ValueError):
        Perm3((1, 1, 2))


def test_scalar_affine_examples():
    m = Modulus(12)
    assert scalar_affine(7, 7, m)(Vec3.of(1, 6, 10, m)) == Vec3.of(2, 1, 5, m)
    assert scalar_affine(1, 10, m)(Vec3.of(8, 4, 5, m)) == Vec3.of(6, 2, 3, m)
    ident = scalar_affine(1, 0, m)
    v = Vec3.of(5, 9, 2, m)
    assert ident(v) == v


def test_affine_compose_applies_right_first():
    m = Modulus(12)
    rng = random.Random(3)
    for _ in range(50):
        f = AffineMap(rand_mat(rng, 12), Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), m))
        g = AffineMap(rand_mat(rng, 12), Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), m))
        v = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), m)
        # f after g is x -> F(Gx + g) + f = FG x + (F g + f)
        composite = AffineMap(f.linear @ g.linear, f.linear @ g.translation + f.translation)
        assert composite(v) == f(g(v))


def test_modulus_mismatch_is_hard_error():
    a = generator_matrix(Generator.U, Modulus(12))
    b = generator_matrix(Generator.U, Modulus(7))
    with pytest.raises(ValueError):
        mat_mul(a, b)
    with pytest.raises(ValueError):
        mat_vec(a, Vec3.of(0, 0, 0, 7))
    with pytest.raises(ValueError):
        AffineMap(a, Vec3.of(0, 0, 0, 7))
