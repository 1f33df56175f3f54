import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from voicegroup.modring import Modulus
from voicegroup.linalg import ALL_PERMS, Mat3, Vec3, mat_mul, mat_vec, perm_matrix, Perm3
from voicegroup.voicing import (
    _MOD2_FIXED_COVECTORS,
    Generator,
    JElement,
    NotInJ,
    decode,
    enumerate_J,
    generator_for_pair,
    generator_matrix,
    j_reflection,
    word_to_element,
    _centralizer_covectors,
)
from voicegroup.extension import ExtElement

M12 = Modulus(12)
M7 = Modulus(7)


def test_generator_matrix_displays():
    assert str(generator_matrix(Generator.U, M12)) == "[[0,1,0],[1,0,0],[1,1,11]]"
    assert str(generator_matrix(Generator.V, M12)) == "[[11,1,1],[0,0,1],[0,1,0]]"
    assert str(generator_matrix(Generator.W, M7)) == "[[0,0,1],[1,6,1],[1,0,0]]"


def test_generators_are_reflections():
    # each generator equals the reflection in its entry pair, on random input
    rng = random.Random(0)
    for g in Generator:
        r, s = g.pair
        for _ in range(25):
            v = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
            assert mat_vec(generator_matrix(g, M12), v) == j_reflection(r, s, v)


def test_j_reflection_examples():
    assert j_reflection(3, 1, Vec3.of(0, 4, 7, M12)) == Vec3.of(7, 3, 0, M12)
    assert j_reflection(3, 1, Vec3.of(4, 7, 0, M12)) == Vec3.of(0, 9, 4, M12)
    assert j_reflection(3, 1, Vec3.of(3, 10, 7, M12)) == Vec3.of(7, 0, 3, M12)


def test_j_reflection_rejects_bad_indices():
    v = Vec3.of(0, 4, 7, M12)
    with pytest.raises(ValueError):
        j_reflection(2, 2, v)
    with pytest.raises(ValueError):
        j_reflection(0, 1, v)
    with pytest.raises(ValueError):
        generator_for_pair(1, 1)


def test_normal_form_matrix_examples():
    assert str(JElement(0, 6, 0, M12).matrix()) == "[[7,0,6],[6,1,6],[6,0,7]]"
    assert JElement(0, 0, 0, M12).matrix() == Mat3.identity(M12)
    assert str(JElement(0, 1, 0, M12).matrix()) == "[[0,0,1],[11,1,1],[11,0,2]]"


def test_decode_examples():
    assert decode(Mat3.identity(M12)) == JElement(0, 0, 0, M12)
    assert decode(JElement(0, 6, 0, M12).matrix()) == JElement(0, 6, 0, M12)
    with pytest.raises(NotInJ):
        decode(perm_matrix(Perm3.from_cycle("(123)"), M12))


@pytest.mark.parametrize("n", [7, 12])
def test_decode_is_a_bijection(n):
    m = Modulus(n)
    seen = set()
    for e in enumerate_J(m):
        mat = e.matrix()
        assert mat not in seen
        seen.add(mat)
        assert decode(mat) == e
    assert len(seen) == 2 * n * n


def test_constructor_accepts_an_int_modulus():
    # like JElement.identity, Vec3.of and Mat3.of, the constructor takes n as an int
    assert JElement(0, 1, 2, 12) == JElement(0, 1, 2, M12)
    assert JElement(1, 13, -1, 7) == JElement(1, 6, 6, M7)
    # an int subclass is read as a plain int
    assert JElement(0, 1, 2, _Int(12)) == JElement(0, 1, 2, M12)
    assert type(Modulus(_Int(12)).n) is int
    with pytest.raises(ValueError):
        JElement(0, 0, 0, 2)


class _Int(int):
    """An int subclass, as numpy-style integer types are."""


@pytest.mark.parametrize(
    "m, n",
    [(0, 11), (5, 0), (-1, 13), (-25, 24), (12, 36), (True, False), (_Int(-3), _Int(14))],
)
def test_normalisation_of_m_and_n(m, n):
    # m and n are stored as plain ints in [0, n), whatever they arrive as
    for k in (0, 1):
        e = JElement(k, m, n, M12)
        assert (e.m, e.n) == (int(m) % 12, int(n) % 12)
        assert type(e.m) is int and type(e.n) is int
        assert e == JElement(k, int(m) % 12, int(n) % 12, M12)
        assert hash(e) == hash(JElement(k, int(m) % 12, int(n) % 12, M12))
    assert JElement(0, -1, 13, 12) == JElement(0, 11, 1, 12)
    assert str(JElement(1, True, -1, 12)) == "U (UV)^1 (UW)^11"


def test_multiplication_examples():
    u = JElement(1, 0, 0, M12)
    assert (u * u).is_identity()
    # conjugating the commuting block by U inverts it
    for m in range(12):
        for n in range(12):
            a = JElement(0, m, n, M12)
            assert u * a * u == a.inverse()
    assert word_to_element("UV", M12) == JElement(0, 1, 0, M12)


def test_multiplication_matches_matrix_oracle_sample(j12):
    rng = random.Random(11)
    for _ in range(2000):
        a, b = rng.choice(j12), rng.choice(j12)
        assert (a * b).matrix() == mat_mul(a.matrix(), b.matrix())


def test_inverse_and_order_examples():
    assert word_to_element("UV", M12).order() == 12
    assert word_to_element("UVW", M12).order() == 2
    assert word_to_element("VW", M12).order() == 12
    assert word_to_element("UV", M7).order() == 7
    for e in enumerate_J(M7):
        assert (e * e.inverse()).is_identity()


def test_word_to_element_examples():
    assert word_to_element("V", M12) == JElement(1, 1, 0, M12)
    assert word_to_element("W", M12) == JElement(1, 0, 1, M12)
    assert word_to_element("VW", M12) == JElement(0, 11, 1, M12)
    assert word_to_element("", M12).is_identity()
    assert word_to_element([Generator.U, Generator.V], M12) == JElement(0, 1, 0, M12)


def _rewrite_pairs_oracle(word, modulus):
    """Right-to-left pairwise rewriting into U^k (UV)^m (UW)^n exponents."""
    n = modulus.n
    pair_exponents = {
        ("U", "V"): (1, 0),
        ("U", "W"): (0, 1),
        ("V", "U"): (n - 1, 0),
        ("W", "U"): (0, n - 1),
        ("V", "W"): (n - 1, 1),
        ("W", "V"): (1, n - 1),
    }
    letters = list(word)
    k = 0
    m = nn = 0
    while len(letters) >= 2:
        pair = (letters[-2], letters[-1])
        dm, dn = pair_exponents[pair]
        m += dm
        nn += dn
        letters = letters[:-2]
    if letters:
        head = letters[0]
        k = 1
        if head == "V":
            m += 1
        elif head == "W":
            nn += 1
    return JElement(k, m, nn, modulus)


def test_word_folding_matches_pairwise_rewriting():
    # replay the right-to-left two-letter rewriting on every short word
    # without immediate repeats and compare with normal-form folding
    for length in range(1, 6):
        for word in product("UVW", repeat=length):
            if any(a == b for a, b in zip(word, word[1:])):
                continue
            assert word_to_element("".join(word), M12) == _rewrite_pairs_oracle(word, M12)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.lists(st.sampled_from(["U", "V", "W", *Generator]), max_size=40))
def test_word_to_element_matches_product_of_generator_matrices(n, letters):
    mod = Modulus(n)
    want = Mat3.identity(mod)
    for letter in letters:
        want = mat_mul(want, generator_matrix(Generator[letter] if isinstance(letter, str) else letter, mod))
    assert word_to_element(letters, mod).matrix() == want
    if all(isinstance(letter, str) for letter in letters):
        assert word_to_element("".join(letters), mod).matrix() == want


@pytest.mark.parametrize("word, bad", [("uv", "'u'"), (["U", 3], "3"), ("UVx", "'x'"), ([Generator.U, "UV"], "'UV'")])
def test_word_to_element_rejects_unknown_letters(word, bad):
    with pytest.raises(ValueError, match=rf"^word letters must be U, V or W, got {bad}$"):
        word_to_element(word, M12)


def test_apply_examples():
    assert JElement(0, 6, 0, M12).apply(Vec3.of(0, 0, 1, M12)) == Vec3.of(6, 6, 7, M12)
    assert JElement(1, 0, 0, M12).apply(Vec3.of(0, 0, 1, M12)) == Vec3.of(0, 0, 11, M12)
    assert JElement(0, 1, 0, M12).apply(Vec3.of(0, 4, 7, M12)) == Vec3.of(7, 11, 2, M12)


def test_apply_matches_matrix_action(j12):
    rng = random.Random(5)
    for _ in range(300):
        e = rng.choice(j12)
        v = Vec3.of(rng.randrange(12), rng.randrange(12), rng.randrange(12), M12)
        assert e.apply(v) == mat_vec(e.matrix(), v)


def test_vw_powers_add_difference_of_first_two():
    # (VW)^j shifts every component by j(x - y)
    vw = word_to_element("VW", M12)
    rng = random.Random(9)
    for j in range(12):
        e = vw**j
        assert e == JElement(0, -j, j, M12)
        for _ in range(100):
            x, y, z = rng.randrange(12), rng.randrange(12), rng.randrange(12)
            got = e.apply(Vec3.of(x, y, z, M12))
            c = (j * (x - y)) % 12
            assert got == Vec3.of(x + c, y + c, z + c, M12)


@pytest.mark.parametrize("n,size", [(12, 288), (7, 98), (3, 18)])
def test_enumerate_sizes(n, size):
    assert len(enumerate_J(n)) == size


@pytest.mark.parametrize("n", [7, 12])
def test_enumeration_equals_bfs_closure(n, matrix_closure):
    m = Modulus(n)
    gens = [generator_matrix(g, m) for g in Generator]
    closure = matrix_closure(gens + [Mat3.identity(m)])
    assert closure == {e.matrix() for e in enumerate_J(m)}


def test_cyclic_subgroups_intersect_trivially(j12):
    uv = {JElement(0, m, 0, M12) for m in range(12)}
    uw = {JElement(0, 0, n, M12) for n in range(12)}
    assert uv & uw == {JElement(0, 0, 0, M12)}
    commuting_block = {JElement(0, m, n, M12) for m in range(12) for n in range(12)}
    assert JElement(1, 0, 0, M12) not in commuting_block


def test_presentation_relations_hold():
    u = word_to_element("U", M12)
    v = word_to_element("V", M12)
    w = word_to_element("W", M12)
    for g in (u, v, w):
        assert (g * g).is_identity()
    uvw = u * v * w
    assert (uvw * uvw).is_identity()
    assert (word_to_element("UV", M12) ** 12).is_identity()
    assert (word_to_element("UW", M12) ** 12).is_identity()
    uv, uw = word_to_element("UV", M12), word_to_element("UW", M12)
    assert uv * uw == uw * uv


def test_modulus_two_is_rejected():
    with pytest.raises(ValueError):
        JElement(0, 0, 0, Modulus(2))
    with pytest.raises(ValueError):
        enumerate_J(2)


def test_mod2_fixed_covectors_are_the_covectors_every_generator_fixes():
    # w.J == w (mod 2) for U, V and W: the covectors of the centralizer family
    generators = [generator_matrix(g, 2).rows for g in Generator]
    fixed = [
        w
        for w in product((0, 1), repeat=3)
        if all(tuple(sum(w[i] * rows[i][j] for i in range(3)) % 2 for j in range(3)) == w for rows in generators)
    ]
    assert fixed == list(_MOD2_FIXED_COVECTORS)
    assert _centralizer_covectors(12) == _MOD2_FIXED_COVECTORS
    assert _centralizer_covectors(7) == ((0, 0, 0),)


def test_text_form():
    assert str(JElement(0, 0, 0, M12)) == "Id"
    assert str(JElement(1, 0, 0, M12)) == "U"
    assert str(JElement(0, 11, 1, M12)) == "(UV)^11 (UW)^1"
    assert str(JElement(1, 1, 0, M12)) == "U (UV)^1"


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 60), st.data())
def test_one_normal_form_reached_by_every_route(n, data):
    # constructor, decode, a word, the j view of an extension element and a
    # product all give one value, equal and equally hashed
    mod, residue = Modulus(n), st.integers(0, n - 1)
    k, m, nn = data.draw(st.integers(0, 1)), data.draw(residue), data.draw(residue)
    x = JElement(k, m, nn, mod)
    y = JElement(data.draw(st.integers(0, 1)), data.draw(residue), data.draw(residue), mod)
    routes = (
        decode(x.matrix()),
        word_to_element("U" * k + "UV" * m + "UW" * nn, mod),
        ExtElement(data.draw(st.sampled_from(ALL_PERMS)), x).j,
        (x * y) * y.inverse(),
    )
    for route in routes:
        assert type(route) is JElement
        assert route == x and hash(route) == hash(x)
        assert (route.k, route.m, route.n, route.modulus) == (k, m, nn, mod)
