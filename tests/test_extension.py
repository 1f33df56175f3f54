import itertools
import random
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from voicegroup.modring import Modulus
from voicegroup.linalg import ALL_PERMS, Mat3, Perm3, Vec3, mat_mul, mat_vec, perm_matrix
from voicegroup.voicing import (
    Generator,
    JElement,
    NotInJ,
    _PRODUCTS,
    _act,
    decode,
    enumerate_J,
    generator_matrix,
    sigma_conjugate_generator,
    word_to_element,
)
from voicegroup.extension import (
    ExtElement,
    NotInExtension,
    conjugacy_class,
    enumerate_extension,
    ext_decode,
    parse_element,
)
from voicegroup.structure import centralizer_in_GL3
from voicegroup.analysis import solve_step

M12 = Modulus(12)
M7 = Modulus(7)


def test_sigma_conjugate_generator_examples():
    assert sigma_conjugate_generator(Perm3.from_cycle("(13)"), Generator.U) is Generator.V
    assert sigma_conjugate_generator(Perm3.from_cycle("(123)"), Generator.W) is Generator.U
    for g in Generator:
        assert sigma_conjugate_generator(Perm3.identity(), g) is g


def test_sigma_conjugate_generator_matches_matrix_conjugation():
    for sigma in ALL_PERMS:
        p = perm_matrix(sigma, M12)
        p_inv = perm_matrix(sigma.inverse(), M12)
        for g in Generator:
            conjugated = mat_mul(mat_mul(p, generator_matrix(g, M12)), p_inv)
            assert conjugated == generator_matrix(sigma_conjugate_generator(sigma, g), M12)


def _conjugation_oracle(sigma, j):
    """P_sigma M_j P_sigma^-1 as a matrix product."""
    p = perm_matrix(sigma, j.modulus)
    p_inv = perm_matrix(sigma.inverse(), j.modulus)
    return mat_mul(mat_mul(p, j.matrix()), p_inv)


def _conjugate_j(sigma, j):
    """sigma j sigma^-1 in J, decoded from the matrix product: no product or conjugation table."""
    return decode(_conjugation_oracle(sigma, j))


def _sigma_conjugate(sigma, j):
    """sigma j sigma^-1 as a product of extension elements."""
    s = ExtElement.from_sigma(sigma, j.modulus)
    return s * ExtElement.from_j(j) * s.inverse()


@pytest.mark.parametrize("n", [3, 7, 12])
def test_conjugate_j_matches_matrix_oracle(n):
    for sigma in ALL_PERMS:
        for j in enumerate_J(n):
            assert _sigma_conjugate(sigma, j) == ExtElement.from_j(_conjugate_j(sigma, j))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 60),
    st.sampled_from(ALL_PERMS),
    st.integers(0, 1),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_conjugate_j_matches_matrix_oracle_property(n, sigma, k, m, nn):
    j = JElement(k, m, nn, Modulus(n))
    assert _sigma_conjugate(sigma, j) == ExtElement.from_j(_conjugate_j(sigma, j))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.data())
def test_action_kernel_matches_matrix_action(n, data):
    # every (sigma, k) case, against the matrix of the element acting on the vector
    m, nn = data.draw(st.integers(-2 * n, 2 * n)), data.draw(st.integers(-2 * n, 2 * n))
    v = tuple(data.draw(st.integers(0, n - 1)) for _ in range(3))
    for sigma in ALL_PERMS:
        for k in (0, 1):
            g = ExtElement(sigma, JElement(k, m, nn, n))
            want = mat_vec(g.matrix(), Vec3(v, Modulus(n)))
            assert _act(g.point, m, nn, v, n) == want.entries
            assert g.apply(Vec3(v, Modulus(n))) == want
            if sigma.is_identity():
                assert g.j.apply(Vec3(v, Modulus(n))) == want


def test_multiply_examples():
    t13 = Perm3.from_cycle("(13)")
    u = ExtElement(t13, word_to_element([Generator.U], M12))
    squared = u * u
    assert squared.sigma.is_identity()
    assert squared.j == JElement(0, 11, 0, M12)  # (UV)^-1
    w = ExtElement(t13, word_to_element([Generator.W], M12))
    prod = w * u
    assert prod.sigma.is_identity()
    assert prod.j == JElement(0, 0, 11, M12)  # (UW)^-1
    sq = ExtElement.from_sigma(t13, M12) * ExtElement.from_sigma(t13, M12)
    assert sq.is_identity()


def test_multiply_matches_matrix_oracle_randomized(ext12):
    rng = random.Random(2)
    for _ in range(10_000):
        a, b = rng.choice(ext12), rng.choice(ext12)
        assert (a * b).matrix() == mat_mul(a.matrix(), b.matrix())


def test_multiply_matches_matrix_oracle_on_generating_closure():
    gens = [ExtElement.from_j(word_to_element([g], M12)) for g in Generator]
    gens += [ExtElement.from_sigma(Perm3.from_cycle(c), M12) for c in ("(12)", "(13)")]
    closure = list(gens)
    seen = set(gens)
    while len(closure) < 50:
        for a in list(closure):
            for g in gens:
                c = a * g
                if c not in seen:
                    seen.add(c)
                    closure.append(c)
                if len(closure) >= 50:
                    break
            if len(closure) >= 50:
                break
    for a in closure:
        for b in closure:
            assert (a * b).matrix() == mat_mul(a.matrix(), b.matrix())


def _element_product_matrix(a):
    return _product_matrix(a.sigma, a.j.k, a.j.m, a.j.n, a.modulus)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 60), st.data())
def test_multiply_and_inverse_match_generator_matrix_products(n, data):
    mod, residue = Modulus(n), st.integers(0, n - 1)
    a, b = (
        ExtElement(
            data.draw(st.sampled_from(ALL_PERMS)),
            JElement(data.draw(st.integers(0, 1)), data.draw(residue), data.draw(residue), mod),
        )
        for _ in range(2)
    )
    ma = _element_product_matrix(a)
    assert _element_product_matrix(a * b) == mat_mul(ma, _element_product_matrix(b))
    assert mat_mul(ma, _element_product_matrix(a.inverse())) == Mat3.identity(mod)


def test_inverses(ext12):
    rng = random.Random(4)
    for _ in range(500):
        a = rng.choice(ext12)
        assert (a * a.inverse()).is_identity()
        assert (a.inverse() * a).is_identity()


def _j_product(x, y):
    """The plain-group product written out: (k1,m1,n1)(k2,m2,n2) =
    (k1 xor k2, m2 + (-1)^k2 m1, n2 + (-1)^k2 n1)."""
    sign = -1 if y.k else 1
    return JElement(x.k ^ y.k, y.m + sign * x.m, y.n + sign * x.n, x.modulus)


def _old_product(a, b):
    """(sa, ja) * (sb, jb) = (sa*sb, (sb^-1 ja sb) * jb), conjugating through the matrix oracle."""
    return ExtElement(a.sigma * b.sigma, _j_product(_conjugate_j(b.sigma.inverse(), a.j), b.j))


@pytest.mark.parametrize("n", [3, 7, 12])
def test_product_table_matches_conjugation_route(n):
    # the product is affine in each factor's translation, so 0, e1, e2 and one
    # more point on each side pin every row down
    rng = random.Random(n)
    ts = [(0, 0), (1, 0), (0, 1), (rng.randrange(n), rng.randrange(n))]
    for p in range(12):
        sp, kp = ALL_PERMS[p // 2], p % 2
        for q in range(12):
            sq, kq = ALL_PERMS[q // 2], q % 2
            assert _PRODUCTS[p][q][0] == 2 * ALL_PERMS.index(sp * sq) + (kp ^ kq)
            for t in ts:
                a = ExtElement(sp, JElement(kp, *t, n))
                for s in ts:
                    b = ExtElement(sq, JElement(kq, *s, n))
                    assert a * b == _old_product(a, b)
    assert [len(row) for row in _PRODUCTS] == [12] * 12


@pytest.mark.parametrize("n", [3, 7, 12])
def test_inverse_matches_conjugation_route(n):
    for a in enumerate_extension(n):
        j = a.j
        # a mode-reversing element of J is an involution; a translation inverts by negation
        j_inv = j if j.k else JElement(0, -j.m, -j.n, a.modulus)
        want = ExtElement(a.sigma.inverse(), _conjugate_j(a.sigma, j_inv))
        assert a.inverse() == want
        assert any(a.inverse().sigma is sigma for sigma in ALL_PERMS)


def _mat_power(mat, t):
    """mat**t for t >= 0 by repeated matrix multiplication."""
    acc = Mat3.identity(mat.modulus)
    for _ in range(t):
        acc = mat_mul(acc, mat)
    return acc


@settings(max_examples=200, deadline=None)
@given(
    st.integers(3, 60),
    st.sampled_from(ALL_PERMS),
    st.integers(0, 1),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(-60, 60),
)
def test_power_matches_repeated_matrix_product(n, sigma, k, m, nn, t):
    a = ExtElement(sigma, JElement(k, m, nn, Modulus(n)))
    ma = _element_product_matrix(a)
    power = _element_product_matrix(a**t)
    if t >= 0:
        assert power == _mat_power(ma, t)
    else:
        assert mat_mul(power, _mat_power(ma, -t)) == Mat3.identity(Modulus(n))


def test_huge_powers_reduce_by_the_order():
    rng = random.Random(1009)
    for sigma in ALL_PERMS:
        for k in (0, 1):
            a = ExtElement(sigma, JElement(k, rng.randrange(1009), rng.randrange(1009), Modulus(1009)))
            assert a ** 10**18 == a ** (10**18 % a.order())
            assert a ** -(10**18) == (a ** (10**18 % a.order())).inverse()


def test_sort_key_reads_the_permutation_index():
    for i, sigma in enumerate(ALL_PERMS):
        for k in (0, 1):
            a = ExtElement(sigma, JElement(k, 5, 2, M7))
            assert a.sort_key() == (ALL_PERMS.index(a.sigma), k, 5, 2) == (i, k, 5, 2)
            # an equal permutation that is not the shared ALL_PERMS member
            assert ExtElement(Perm3(sigma.image), a.j).sort_key()[0] == i


def test_decode_examples():
    d = ext_decode(Mat3([[5, 0, 3], [4, 1, 3], [5, 1, 2]], M7))
    assert d == ExtElement(Perm3.from_cycle("(12)"), JElement(1, 3, 0, M7))
    d2 = ext_decode(Mat3([[0, 1, 0], [0, 0, 1], [6, 1, 1]], M7))
    assert d2 == ExtElement(Perm3.from_cycle("(13)"), JElement(1, 1, 0, M7))
    assert ext_decode(Mat3.identity(M12)).is_identity()
    with pytest.raises(NotInExtension):
        ext_decode(Mat3([[1, 1, 1], [1, 1, 1], [1, 1, 1]], M12))
    # residues n - 1 lift to -1: the decoded element equals and hashes as the parsed one
    a = parse_element("(132) U (UV)^1008 (UW)^3", 1009)
    d3 = ext_decode(a.matrix())
    assert d3 == a and hash(d3) == hash(a)


def test_decode_round_trip_all_elements(ext12):
    for a in ext12:
        assert ext_decode(a.matrix()) == a


def _product_matrix(sigma, k, m, n, modulus):
    """P_sigma U^k (UV)^m (UW)^n as a product of permutation and generator matrices."""
    u, v, w = (generator_matrix(g, modulus) for g in Generator)
    acc = perm_matrix(sigma, modulus)
    for factor in [u] * k + [mat_mul(u, v)] * m + [mat_mul(u, w)] * n:
        acc = mat_mul(acc, factor)
    return acc


def _six_sigma_oracle(a):
    """The (sigma, j) with P_sigma M_j == a, or None, found by trial: strip each
    sigma, read (m, n) off the first row for both k, and compare the normal-form
    matrix written out entrywise."""
    nn = a.modulus.n
    for sigma in ALL_PERMS:
        rows = Mat3(sigma.inverse().apply(a.rows), a.modulus)
        for k in (0, 1):
            m, n = (1 - k - rows.rows[0][0]) % nn, (k - rows.rows[0][1]) % nn
            if k == 0:
                want = ((1 - m, -n, m + n), (-m, 1 - n, m + n), (-m, -n, 1 + m + n))
            else:
                want = ((-m, 1 - n, m + n), (1 - m, -n, m + n), (1 - m, 1 - n, -1 + m + n))
            if Mat3(want, a.modulus) == rows:
                return ExtElement(sigma, JElement(k, m, n, a.modulus))
    return None


def _assert_decoders_agree_with_oracle(a):
    want = _six_sigma_oracle(a)
    if want is None:
        with pytest.raises(NotInExtension):
            ext_decode(a)
    else:
        assert ext_decode(a) == want
    if want is not None and want.sigma.is_identity():
        assert decode(a) == want.j
    else:
        with pytest.raises(NotInJ):
            decode(a)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.sampled_from(ALL_PERMS), st.integers(0, 1), st.data())
def test_decode_round_trips_against_matrix_products(n, sigma, k, data):
    m, nn = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    element = ExtElement(sigma, JElement(k, m, nn, Modulus(n)))
    mat = _product_matrix(sigma, k, m, nn, Modulus(n))
    assert element.matrix() == mat
    assert ext_decode(mat) == element
    if sigma.is_identity():
        assert decode(mat) == element.j
    else:
        with pytest.raises(NotInJ):
            decode(mat)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.sampled_from(ALL_PERMS), st.integers(0, 1), st.data())
def test_decode_verdict_on_perturbed_members_matches_oracle(n, sigma, k, data):
    m, nn = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows = [list(r) for r in ExtElement(sigma, JElement(k, m, nn, Modulus(n))).matrix().rows]
    i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    delta = data.draw(st.integers(1, n - 1))
    if data.draw(st.booleans()):
        rows[i][j] += delta
    else:
        # shifting a whole column keeps the row differences, so only the
        # membership check on the rebuilt matrix can reject it
        for row in rows:
            row[j] += delta
    _assert_decoders_agree_with_oracle(Mat3(rows, Modulus(n)))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.data())
def test_decode_verdict_on_random_matrices_matches_oracle(n, data):
    rows = [[data.draw(st.integers(0, n - 1)) for _ in range(3)] for _ in range(3)]
    _assert_decoders_agree_with_oracle(Mat3(rows, Modulus(n)))


def test_row_difference_patterns_are_distinct_mod_every_n():
    # the decoder names (sigma, k) by rows 2 and 3 minus row 1 of P_sigma M_{U^k}
    for n in range(3, 61):
        patterns = set()
        for sigma in ALL_PERMS:
            for k in (0, 1):
                rows = _product_matrix(sigma, k, 0, 0, Modulus(n)).rows
                patterns.add(tuple((b - a) % n for row in rows[1:] for a, b in zip(rows[0], row)))
        assert len(patterns) == 12, n


def test_enumeration_sizes(ext12):
    assert len(ext12) == 1728
    assert len(set(ext12)) == 1728
    # the mode-preserving (k = 0) and mode-reversing (k = 1) halves, of J and of the extension
    for k in (0, 1):
        assert len([e for e in ext12 if e.point == k]) == 144
        assert len([e for e in ext12 if e.point % 2 == k]) == 864


def test_enumeration_equals_bfs_closure(ext12, matrix_closure):
    gens = [generator_matrix(g, M12) for g in Generator]
    gens += [perm_matrix(Perm3.from_cycle(c), M12) for c in ("(12)", "(13)")]
    closure = matrix_closure(gens + [Mat3.identity(M12)])
    assert closure == {a.matrix() for a in ext12}


def test_permutations_meet_plain_group_trivially():
    for n in (7, 12):
        m = Modulus(n)
        for sigma in ALL_PERMS:
            decoded = ext_decode(perm_matrix(sigma, m))
            assert decoded.sigma == sigma and decoded.j.is_identity()


def test_trace_table(ext12):
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


@pytest.mark.parametrize("n", [3, 7, 12])
def test_trace_table_matches_matrix_trace(n):
    for a in enumerate_extension(n):
        assert a.trace() == a.matrix().trace()


def _group(within, modulus):
    if within == "J":
        return [ExtElement.from_j(j) for j in enumerate_J(modulus)]
    return enumerate_extension(modulus)


def _conjugacy_class_oracle(a, within):
    """{g a g^-1} by exhaustive conjugation over the chosen group."""
    return {g * a * g.inverse() for g in _group(within, a.modulus)}


@pytest.mark.parametrize("within", ["J", "extension"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_conjugacy_class_matches_scan_on_every_element(n, within):
    # one scan per class: every member of a scanned class has that class
    classes = {}
    for a in enumerate_extension(n):
        if a not in classes:
            cls = frozenset(_conjugacy_class_oracle(a, within))
            classes.update(dict.fromkeys(cls, cls))
        assert conjugacy_class(a, within) == classes[a]


def _conjugators(within, modulus):
    gens = [ExtElement.from_j(word_to_element([g], modulus)) for g in Generator]
    if within == "extension":
        gens += [ExtElement.from_sigma(Perm3.from_cycle(c), modulus) for c in ("(12)", "(13)")]
    return gens


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 60),
    st.sampled_from(["J", "extension"]),
    st.sampled_from(ALL_PERMS),
    st.integers(0, 1),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_conjugacy_class_property(n, within, sigma, k, m, nn):
    a = ExtElement(sigma, JElement(k, m, nn, Modulus(n)))
    cls = conjugacy_class(a, within)
    assert a in cls
    for g in _conjugators(within, a.modulus):
        g_inv = g.inverse()
        assert {g * c * g_inv for c in cls} == cls
    assert (12 if within == "extension" else 2) * n * n % len(cls) == 0
    if n <= 24:
        assert cls == _conjugacy_class_oracle(a, within)


@pytest.mark.parametrize("n", range(3, 13))
def test_class_equation(n):
    for within, order in (("J", 2 * n * n), ("extension", 12 * n * n)):
        group = _group(within, n)
        seen = set()
        for a in group:
            if a not in seen:
                cls = conjugacy_class(a, within)
                assert seen.isdisjoint(cls)
                seen |= cls
        assert seen == set(group)
        assert len(seen) == order


def test_conjugacy_classes_of_u():
    u = ExtElement.from_j(JElement(1, 0, 0, M12))
    assert len(conjugacy_class(u, within="J")) == 36
    assert len(conjugacy_class(u, within="extension")) == 108
    e = ExtElement.identity(M12)
    assert conjugacy_class(e, within="J") == {e}
    assert conjugacy_class(e, within="extension") == {e}
    with pytest.raises(ValueError):
        conjugacy_class(u, within="nonsense")
    # the Hook group has a name in voicing's table, but no class is taken within it
    with pytest.raises(ValueError, match=r"^within must be 'J' or 'extension', got 'hook'$"):
        conjugacy_class(u, within="hook")


def test_gl_centralizer_is_stable_under_permutation_conjugation():
    report = centralizer_in_GL3(12)
    cent = set(report.elements)
    for c in cent:
        for sigma in ALL_PERMS:
            p = perm_matrix(sigma, M12)
            p_inv = perm_matrix(sigma.inverse(), M12)
            assert mat_mul(mat_mul(p, c), p_inv) in cent


def test_order_examples():
    t13 = Perm3.from_cycle("(13)")
    assert ExtElement(t13, JElement(1, 0, 0, M12)).order() == 24
    assert ExtElement(t13, JElement(1, 0, 1, M12)).order() == 2
    assert ExtElement.identity(M12).order() == 1


def _order_by_powers(mat):
    """Least t >= 1 with mat**t == identity, by repeated matrix multiplication."""
    ident = Mat3.identity(mat.modulus)
    acc, t = mat, 1
    while acc != ident:
        acc = mat_mul(acc, mat)
        t += 1
    return t


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_orders_match_power_loop_on_every_element(n):
    for j in enumerate_J(n):
        assert j.order() == _order_by_powers(j.matrix())
    for a in enumerate_extension(n):
        assert a.order() == _order_by_powers(a.matrix())


def test_orders_match_power_loop_mod_1009():
    m = Modulus(1009)
    rng = random.Random(1009)
    for _ in range(12):
        j = JElement(rng.randrange(2), rng.randrange(1009), rng.randrange(1009), m)
        a = ExtElement(rng.choice(ALL_PERMS), j)
        assert j.order() == _order_by_powers(j.matrix())
        assert a.order() == _order_by_powers(a.matrix())


def test_parse_examples():
    assert parse_element("VW", M12) == ExtElement.from_j(word_to_element("VW", M12))
    assert parse_element("(12)U(UV)^3", M7) == ExtElement(
        Perm3.from_cycle("(12)"), JElement(1, 3, 0, M7)
    )
    assert parse_element("Id", M12).is_identity()
    assert parse_element("(UV)^-1", M12) == ExtElement.from_j(JElement(0, 11, 0, M12))
    a = parse_element("(123) U (UV)^5 (UW)^700", 1009)
    assert a == ExtElement(Perm3.from_cycle("(123)"), JElement(1, 5, 700, 1009))
    assert parse_element(str(a), 1009) == a
    # a lone cycle folds whitespace as element text does
    for text in ("(1\t3)", "(1\xa03)", " (13)\n"):
        assert Perm3.from_cycle(text) == Perm3.from_cycle("(13)")
        assert parse_element(text, M12) == parse_element("(13)", M12)
    with pytest.raises(ValueError, match=r"^cannot parse element '\(13\) Q' at position 5$"):
        parse_element("(13) Q", M12)
    # exponents are ASCII digits, as str writes them; another script's 3 is not an exponent
    with pytest.raises(ValueError, match=r"^cannot parse element '\(UV\)\^\u0663' at position 4$"):
        parse_element("(UV)^\u0663", M12)
    # a rotated cycle names the same permutation; digits that name none are refused
    assert parse_element("U (3 1)", M12) == parse_element("U (13)", M12)
    with pytest.raises(ValueError, match=r"^cannot parse permutation '\(33\)'$"):
        parse_element("U (3 3)", M12)
    # a run of mixed whitespace ends a factor; a bad token is reported where it starts
    with pytest.raises(ValueError, match=r"^cannot parse element 'U \\t x' at position 4$"):
        parse_element("U \t x", M12)
    with pytest.raises(ValueError, match=r"^cannot parse element '\(13\)\\xa0\\n\(UV\)\^2\\t Q' at position 14$"):
        parse_element("(13)\xa0\n(UV)^2\t Q", M12)
    assert parse_element("U\t\u2003( 2\t1 )", M12) == parse_element("U (12)", M12)
    with pytest.raises(ValueError, match=r"^cannot parse permutation '\(22\)'$"):
        parse_element("U\t\u2003( 2\t2 )", M12)


def _cycle_image(text):
    """(sigma(1), sigma(2), sigma(3)) for a cycle '(abc)': a -> b -> c -> a."""
    digits = [int(d) for d in text[1:-1]]
    image = [1, 2, 3]
    for a, b in zip(digits, digits[1:] + digits[:1]):
        image[a - 1] = b
    return tuple(image)


@pytest.mark.parametrize(
    "text", ["(" + "".join(d) + ")" for r in (2, 3) for d in itertools.permutations("123", r)]
)
def test_every_rotation_of_a_cycle_names_its_permutation(text):
    sigma = Perm3.from_cycle(text)
    assert sigma.image == _cycle_image(text)
    canonical = sigma.cycle_notation()
    assert canonical in ("(12)", "(13)", "(23)", "(123)", "(132)")
    assert sigma == Perm3.from_cycle(canonical)
    assert str(parse_element(f"{text} U", M12)) == str(parse_element(f"{canonical} U", M12)) == f"{canonical} U"


@pytest.mark.parametrize("text", ["(11)", "(1234)", "(12)(13)"])
def test_from_cycle_refuses_what_names_no_single_cycle(text):
    with pytest.raises(ValueError, match=rf"^cannot parse permutation '{re.escape(text)}'$"):
        Perm3.from_cycle(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x", r"cannot parse element 'x' at position 0"),
        ("Id x", r"cannot parse element 'Id x' at position 3"),
        ("Id \t\n x", r"cannot parse element 'Id \\t\\n x' at position 6"),
        ("\t x", r"cannot parse element '\\t x' at position 2"),
        ("\xa0(1\t1)", r"cannot parse permutation '\(11\)'"),
        ("(11)", r"cannot parse permutation '\(11\)'"),
        ("(11) U", r"cannot parse permutation '\(11\)'"),
        ("U x", r"voicing-group normal forms need modulus >= 3 .*"),
        ("U \t x", r"voicing-group normal forms need modulus >= 3 .*"),
        ("U (11)", r"voicing-group normal forms need modulus >= 3 .*"),
        ("(UV)^3", r"voicing-group normal forms need modulus >= 3 .*"),
        ("", r"voicing-group normal forms need modulus >= 3 .*"),
        ("Id", r"voicing-group normal forms need modulus >= 3 .*"),
    ],
)
def test_parse_errors_in_text_order_before_the_modulus(text, message):
    # a factor's own text is read before the first factor rejects the modulus
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_element(text, 2)


@pytest.mark.parametrize("text", ["", "   ", "Id", " Id  Id "])
def test_parse_identity(text):
    assert parse_element(text, M7) == ExtElement.identity(M7)


_CYCLES = ["(12)", "(13)", "(23)", "(123)", "(132)"]


# ASCII and Unicode whitespace, for separators and for padding inside cycles
_SPACES = " \t\n\u00a0\u2003"


def _spaced_cycle(cycle, pads):
    """A cycle with runs of whitespace after '(', between its digits and before ')'."""
    digits = cycle[1:-1]
    return "(" + "".join(w + d for w, d in zip(pads, digits)) + pads[-1] + ")"


_token = st.one_of(
    st.tuples(
        st.just("cycle"), st.sampled_from(_CYCLES), st.lists(st.text(_SPACES, max_size=2), min_size=4, max_size=4)
    ),
    st.tuples(st.just("letter"), st.sampled_from("UVW")),
    st.tuples(
        st.just("power"),
        st.text("UVW", min_size=1, max_size=6),
        st.one_of(st.integers(-15, 15), st.integers(-(10**12), 10**12)),
        st.booleans(),
    ),
    st.tuples(st.just("id")),
)


def _token_text_and_matrix(token, mod):
    """The token's text and its matrix, built from permutation and generator matrices."""
    kind = token[0]
    if kind == "cycle":
        return _spaced_cycle(token[1], token[2]), perm_matrix(Perm3.from_cycle(token[1]), mod)
    if kind == "letter":
        return token[1], generator_matrix(Generator[token[1]], mod)
    if kind == "power":
        word, e, spelled = token[1], token[2], token[3]
        # the inverse of a word is the reversed word, since every generator is an
        # involution; every J element's order divides 2n, so the exponent is read mod 2n
        base = Mat3.identity(mod)
        for c in word if e >= 0 else reversed(word):
            base = mat_mul(base, generator_matrix(Generator[c], mod))
        text = f"({word})^{e}" if spelled or e != 1 else f"({word})"
        return text, _mat_power(base, abs(e) % (2 * mod.n))
    return "Id", Mat3.identity(mod)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 60), st.lists(st.tuples(_token, st.text(_SPACES, max_size=3)), max_size=8))
def test_parse_matches_product_of_factor_matrices(n, tokens):
    mod = Modulus(n)
    text, want = "", Mat3.identity(mod)
    for token, spaces in tokens:
        piece, mat = _token_text_and_matrix(token, mod)
        text += piece + spaces
        want = mat_mul(want, mat)
    assert parse_element(text, mod).matrix() == want


def test_str_parse_round_trip():
    for n in range(3, 14):
        for a in enumerate_extension(n):
            assert parse_element(str(a), n) == a


def test_modulus_mismatch():
    with pytest.raises(ValueError):
        ExtElement.from_j(JElement(0, 0, 0, M12)) * ExtElement.from_j(JElement(0, 0, 0, M7))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 60), st.data())
def test_one_element_reached_by_five_routes(n, data):
    # constructor, decode, parse, a product and the solver all give one value,
    # equal and equally hashed
    mod, residue = Modulus(n), st.integers(0, n - 1)
    x, y = (
        ExtElement(
            data.draw(st.sampled_from(ALL_PERMS)),
            JElement(data.draw(st.integers(0, 1)), data.draw(residue), data.draw(residue), mod),
        )
        for _ in range(2)
    )
    v = Vec3(tuple(data.draw(residue) for _ in range(3)), mod)
    solved = [g for g in solve_step(v, x.apply(v)) if g.sort_key() == x.sort_key()]
    assert len(solved) == 1
    for route in (ext_decode(x.matrix()), parse_element(str(x), n), (x * y) * y.inverse(), solved[0]):
        assert type(route) is ExtElement
        assert route == x and hash(route) == hash(x)
        assert (route.sigma, route.j) == (x.sigma, x.j)


def test_plain_and_extension_elements_stay_distinct_types():
    j = JElement(1, 2, 3, M12)
    e = ExtElement.from_j(j)
    assert j != e and e != j
    assert e.j == j and type(e.j) is JElement
    with pytest.raises(TypeError):
        j * e
    with pytest.raises(TypeError):
        e * j
    for value, field in ((j, "k"), (j, "m"), (j, "modulus"), (e, "sigma"), (e, "j"), (e, "n")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, 0)


def test_constructor_error_texts():
    with pytest.raises(ValueError, match=r"^k must be 0 or 1, got 2$"):
        JElement(2, 0, 0, 12)
    with pytest.raises(ValueError, match=r"^voicing-group normal forms need modulus >= 3 "):
        JElement(0, 0, 0, 2)
    with pytest.raises(ValueError, match=r"^modulus must be an integer >= 2, got 1$"):
        JElement(0, 0, 0, 1)
    with pytest.raises(ValueError, match=r"^voicing-group normal forms need modulus >= 3 "):
        ExtElement.from_sigma(Perm3.from_cycle("(13)"), 2)
