import itertools
import math
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
    _mat_vec_ints,
    _permute,
    determinant,
    mat_vec,
    perm_matrix,
    scalar_affine,
)
from voicegroup.voicing import Generator, JElement, generator_matrix
from voicegroup.extension import ExtElement


def rand_mat(rng, n):
    return Mat3([[rng.randrange(n) for _ in range(3)] for _ in range(3)], Modulus(n))


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
        assert e @ gm == gm == gm @ e
    v = Vec3.of(3, 7, 10, m)
    assert mat_vec(e, v) == v


def test_mat_vec_example():
    m = Modulus(12)
    u = generator_matrix(Generator.U, m)
    assert u @ u == Mat3.identity(m)
    assert mat_vec(u, Vec3.of(0, 4, 7, m)) == Vec3.of(4, 0, 9, m)


@given(st.integers(0, 10**6), st.sampled_from([7, 12]))
def test_mat_mul_associative(seed, n):
    rng = random.Random(seed)
    a, b, c = (rand_mat(rng, n) for _ in range(3))
    assert (a @ b) @ c == a @ (b @ c)


@pytest.mark.parametrize("n", [7, 12])
def test_det_multiplicative_on_random_pairs(n):
    rng = random.Random(n)
    for _ in range(1000):
        a = rand_mat(rng, n)
        b = rand_mat(rng, n)
        assert determinant(a @ b) == determinant(a) * determinant(b) % n


def test_generator_determinants():
    for n in (7, 12):
        for g in Generator:
            assert determinant(generator_matrix(g, Modulus(n))) == 1
    assert determinant(Mat3.identity(Modulus(12))) == 1


def test_non_invertible_scalar():
    d6 = Mat3([[6, 0, 0], [0, 6, 0], [0, 0, 6]], Modulus(12))
    assert determinant(d6) == 0
    assert math.gcd(determinant(d6), 12) == 12


def _leibniz(rows, n):
    """The determinant as the signed sum over the six permutations, mod n."""
    total = 0
    for p in itertools.permutations(range(3)):
        inversions = sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        total += (-1) ** inversions * math.prod(rows[i][p[i]] for i in range(3))
    return total % n


@pytest.mark.parametrize("n", [2, 3, 7, 12, 13, 24, 1009])
def test_trace_and_determinant_are_ints_in_range(n):
    rng = random.Random(n)
    for _ in range(300):
        rows = [[rng.randrange(-2 * n, 2 * n) for _ in range(3)] for _ in range(3)]
        a = Mat3(rows, n)
        t, d = a.trace(), determinant(a)
        assert type(t) is int and 0 <= t < n
        assert type(d) is int and 0 <= d < n
        # the oracles read the unreduced rows, not the matrix
        assert t == (rows[0][0] + rows[1][1] + rows[2][2]) % n
        assert d == _leibniz(rows, n)


def _adjugate(rows):
    """The transposed cofactors of integer rows: a @ adj(a) == det(a) I."""
    r = lambda i, j: rows[i % 3][j % 3]
    return [[r(j + 1, i + 1) * r(j + 2, i + 2) - r(j + 1, i + 2) * r(j + 2, i + 1) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("n", range(2, 31))
def test_is_invertible_matches_unit_determinant(n):
    # gcd(det, n) == 1 is the test for invertibility: a unit determinant gives the
    # inverse adj / det, and a prime p dividing both det and n a nonzero kernel
    # vector (n/p) v, with v found by search mod p
    rng = random.Random(n)
    unimodular = Mat3([[1, 5, 0], [0, 1, 0], [-2, 3, 1]], Modulus(n))
    singular = Mat3([[1, 2, 3], [2, 4, 6], [0, 1, 1]], Modulus(n))
    zero = Vec3.of(0, 0, 0, n)
    verdicts = []
    for a in [rand_mat(rng, n) for _ in range(200)] + [unimodular, singular]:
        d = determinant(a)
        g = math.gcd(d, n)
        if g == 1:
            inverse = Mat3([[pow(d, -1, n) * x for x in row] for row in _adjugate(a.rows)], n)
            assert a @ inverse == inverse @ a == Mat3.identity(n)
        else:
            p = next(q for q in range(2, g + 1) if g % q == 0)
            cube = itertools.product(range(p), repeat=3)
            v = next(v for v in cube if any(v) and all(sum(r * x for r, x in zip(row, v)) % p == 0 for row in a.rows))
            w = Vec3.of(*(n // p * x for x in v), n)
            assert w != zero and a @ w == zero
        verdicts.append(g == 1)
    # both answers occur: a unimodular and a singular matrix at every n
    assert verdicts[-2:] == [True, False]


def test_group_inverses_found_by_search(j12):
    # no general matrix inverse: for group elements, search the group itself
    e = Mat3.identity(Modulus(12))
    mats = {j: j.matrix() for j in j12[:40]}
    for j, mat in mats.items():
        inverses = [other for other in j12 if mat @ other.matrix() == e]
        assert inverses == [j.inverse()]


def test_perm_composition_and_inverse():
    s = Perm3.from_cycle("(123)")
    t = Perm3.from_cycle("(12)")
    v = Vec3.of(1, 2, 3, 12)
    assert (s * t).apply(v) == s.apply(t.apply(v))
    for p in ALL_PERMS:
        assert (p * p.inverse()).is_identity()


def test_perm_apply_example():
    assert Perm3.from_cycle("(123)").apply(Vec3.of(10, 20, 30, 31)) == Vec3.of(30, 10, 20, 31)
    assert Perm3.identity().apply(Vec3.of(1, 2, 3, 12)) == Vec3.of(1, 2, 3, 12)
    # the bare-triple form, which permutes the rows of a matrix
    assert _permute(Perm3.from_cycle("(123)"), (10, 20, 30)) == (30, 10, 20)
    assert _permute(Perm3.identity(), ("a", "b", "c")) == ("a", "b", "c")


def test_perm_matrix_examples():
    m = Modulus(12)
    assert str(perm_matrix(Perm3.from_cycle("(123)"), m)) == "[[0,0,1],[1,0,0],[0,1,0]]"
    assert perm_matrix(Perm3.identity(), m) == Mat3.identity(m)


def test_perm_matrix_is_homomorphism():
    m = Modulus(12)
    for a in ALL_PERMS:
        for b in ALL_PERMS:
            assert perm_matrix(a, m) @ perm_matrix(b, m) == perm_matrix(a * b, m)


def test_perm_matrix_implements_apply():
    m = Modulus(12)
    v = Vec3.of(3, 7, 10, m)
    for p in ALL_PERMS:
        assert mat_vec(perm_matrix(p, m), v) == p.apply(v)


@pytest.mark.parametrize("i", [0, 4, -1])
def test_perm_is_defined_on_one_two_three_only(i):
    with pytest.raises(ValueError, match=rf"^a permutation of {{1,2,3}} is defined at 1, 2 and 3, got {i}$"):
        Perm3((2, 1, 3))(i)
    assert [Perm3((2, 1, 3))(j) for j in (1, 2, 3)] == [2, 1, 3]


def test_perm_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Perm3.from_cycle("(14)")
    with pytest.raises(ValueError):
        Perm3((1, 1, 2))


def test_scalar_affine_examples():
    m = Modulus(12)
    assert scalar_affine(7, 7, m).apply(Vec3.of(1, 6, 10, m)) == Vec3.of(2, 1, 5, m)
    assert scalar_affine(1, 10, m).apply(Vec3.of(8, 4, 5, m)) == Vec3.of(6, 2, 3, m)
    ident = scalar_affine(1, 0, m)
    v = Vec3.of(5, 9, 2, m)
    assert ident.apply(v) == v


def test_affine_compose_applies_right_first():
    m = Modulus(12)
    rng = random.Random(3)
    for _ in range(50):
        f = AffineMap(rand_mat(rng, 12), Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), m))
        g = AffineMap(rand_mat(rng, 12), Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), m))
        v = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), m)
        # f after g is x -> F(Gx + g) + f = FG x + (F g + f)
        composite = AffineMap(f.linear @ g.linear, f.linear @ g.translation + f.translation)
        assert composite.apply(v) == f.apply(g.apply(v))


def test_modulus_mismatch_is_hard_error():
    a = generator_matrix(Generator.U, Modulus(12))
    b = generator_matrix(Generator.U, Modulus(7))
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        mat_vec(a, Vec3.of(0, 0, 0, 7))
    with pytest.raises(ValueError):
        AffineMap(a, Vec3.of(0, 0, 0, 7))


def _product_ints(a, b, n):
    """The row-by-column product of two integer 3x3 row tuples mod n."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) % n for j in range(3)) for i in range(3))


@given(st.integers(3, 60), st.data())
def test_every_action_is_the_matrix_kernel_on_its_matrix(n, data):
    # one spelling per operation: .apply(v) for every value that acts, @ for
    # matrices; each agrees with _mat_vec_ints on the rows of its matrix
    residue = st.integers(0, n - 1)
    triple = st.tuples(residue, residue, residue)
    m = Modulus(n)
    j = JElement(data.draw(st.integers(0, 1)), data.draw(residue), data.draw(residue), m)
    g = ExtElement(data.draw(st.sampled_from(ALL_PERMS)), j)
    f = AffineMap(Mat3(data.draw(st.tuples(triple, triple, triple)), m), Vec3(data.draw(triple), m))
    sigma = data.draw(st.sampled_from(ALL_PERMS))
    a, b = (Mat3(data.draw(st.tuples(triple, triple, triple)), m) for _ in range(2))
    v = Vec3(data.draw(triple), m)
    x = v.entries
    assert g.apply(v).entries == _mat_vec_ints(g.matrix().rows, x, n)
    assert j.apply(v).entries == _mat_vec_ints(j.matrix().rows, x, n)
    linear = _mat_vec_ints(f.linear.rows, x, n)
    assert f.apply(v).entries == tuple((y + t) % n for y, t in zip(linear, f.translation.entries))
    assert sigma.apply(v).entries == _mat_vec_ints(perm_matrix(sigma, m).rows, x, n)
    assert (a @ v).entries == _mat_vec_ints(a.rows, x, n)
    assert (a @ b).rows == _product_ints(a.rows, b.rows, n)
