import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import voicegroup.triadic as triadic
from voicegroup.cli import _ORBIT_GENERATORS, _orbit_generators, main
from voicegroup.modring import Modulus
from voicegroup.linalg import ALL_PERMS, Mat3, Perm3, Vec3, TRANSPOSITION_13, mat_vec
from voicegroup.voicing import JElement
from voicegroup.extension import ExtElement, parse_element
from voicegroup.triadic import (
    Mode,
    NotInHook,
    TriadId,
    UTT,
    all_triads,
    all_utts,
    classify,
    dualistic_tuple,
    hook_from_normal_form_B,
    hook_normal_form_B,
    is_in_hook,
    orbit,
    rho,
    rho_from_wreath,
    rho_inverse,
    root_position_tuple,
    stabilizer_of_set,
    wreath_generators,
)

M12 = Modulus(12)
E13U = parse_element("(13) U", 12)
E13W = parse_element("(13) W", 12)


def ext_gens():
    from voicegroup.voicing import Generator, word_to_element

    gens = [ExtElement.from_j(word_to_element([g], M12)) for g in Generator]
    gens += [ExtElement.from_sigma(Perm3.from_cycle(c), M12) for c in ("(12)", "(13)")]
    return gens


def mode_preserving_gens():
    return [
        ExtElement.from_j(JElement(0, 1, 0, M12)),
        ExtElement.from_j(JElement(0, 0, 1, M12)),
        ExtElement.from_sigma(Perm3.from_cycle("(12)"), M12),
        ExtElement.from_sigma(Perm3.from_cycle("(123)"), M12),
    ]


def j_gens():
    from voicegroup.voicing import Generator, word_to_element

    return [ExtElement.from_j(word_to_element([g], M12)) for g in Generator]


def hook_gens():
    return [E13U, E13W]


def test_root_position_tuples():
    assert root_position_tuple(TriadId(0, Mode.MAJOR)) == Vec3.of(0, 4, 7, M12)
    assert root_position_tuple(TriadId(0, Mode.MINOR)) == Vec3.of(0, 3, 7, M12)
    assert dualistic_tuple(TriadId(0, Mode.MINOR)) == Vec3.of(7, 3, 0, M12)
    assert dualistic_tuple(TriadId(5, Mode.MAJOR)) == root_position_tuple(TriadId(5, Mode.MAJOR))


def test_triad_names():
    assert TriadId(0, Mode.MAJOR).name() == "C"
    assert TriadId(3, Mode.MINOR).name() == "d#"
    assert TriadId(10, Mode.MAJOR).name() == "A#"


def test_classify_examples():
    got = classify(Vec3.of(10, 6, 3, M12))
    assert got.id == TriadId(3, Mode.MINOR)
    assert got.voicing == TRANSPOSITION_13
    got = classify(Vec3.of(0, 4, 7, M12))
    assert got.id == TriadId(0, Mode.MAJOR) and got.voicing.is_identity()
    assert classify(Vec3.of(8, 4, 5, M12)) is None
    assert classify(Vec3.of(0, 0, 7, M12)) is None
    with pytest.raises(ValueError, match="^triad classification is defined over Z/12$"):
        classify(Vec3.of(0, 4, 7, 7))


def test_classify_inverts_root_position():
    for t in all_triads():
        got = classify(root_position_tuple(t))
        assert got.id == t and got.voicing.is_identity()


def test_classify_voicing_reconstructs_input():
    rng = random.Random(0)
    for _ in range(100):
        t = TriadId(rng.randrange(12), rng.choice(list(Mode)))
        perm = rng.choice(
            [Perm3.identity(), Perm3.from_cycle("(12)"), Perm3.from_cycle("(123)"), TRANSPOSITION_13]
        )
        v = perm.apply(root_position_tuple(t))
        got = classify(v)
        assert got.id == t
        assert got.voicing.apply(root_position_tuple(t)) == v



def test_classify_on_every_tuple_mod_12():
    # the 144 voiced consonant triads, each a reordering of a root-position tuple,
    # give their (triad, reordering); the other 1584 tuples are no triad
    voiced = {
        perm.apply(root_position_tuple(t)).entries: (t, perm) for t in all_triads() for perm in ALL_PERMS
    }
    assert len(voiced) == 144
    m = Modulus(12)
    for entries in itertools.product(range(12), repeat=3):
        got = classify(Vec3(entries, m))
        if entries in voiced:
            assert (got.id, got.voicing) == voiced[entries], entries
        else:
            assert got is None, entries

def test_orbit_sizes():
    seed = Vec3.of(0, 4, 7, M12)
    assert len(orbit(ext_gens(), seed)) == 144
    assert len(orbit(mode_preserving_gens(), seed)) == 72
    assert len(orbit(mode_preserving_gens(), Vec3.of(0, 3, 7, M12))) == 72
    assert len(orbit(j_gens(), seed)) == 24
    assert len(orbit(hook_gens(), seed)) == 24


def _orbit_oracle(generators, seed):
    """BFS over Vec3, each step through the group element's own apply."""
    gens = list(generators)
    gens += [g.inverse() for g in gens]
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = g.apply(v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _tuple_orbit_oracle(generators, seed):
    """BFS over every tuple, each generator acting through the integer rows of its matrix."""
    n = seed.modulus.n
    actions = [g.matrix().rows for g in generators]
    seen = {seed.entries}
    frontier = [seed.entries]
    while frontier:
        nxt = []
        for v in frontier:
            for rows in actions:
                w = tuple(sum(a * b for a, b in zip(row, v)) % n for row in rows)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@pytest.mark.parametrize("n", range(3, 31))
def test_orbit_matches_tuple_oracle_on_random_generators(n):
    rng = random.Random(n)
    mod = Modulus(n)
    for _ in range(12):
        gens = [
            ExtElement(rng.choice(ALL_PERMS), JElement(rng.randrange(2), rng.randrange(n), rng.randrange(n), mod))
            for _ in range(rng.randint(1, 4))
        ]
        a, b, c = (rng.randrange(n) for _ in range(3))
        # generic, diagonal, and with a repeated entry in each place
        for entries in ((a, b, c), (c, c, c), (a, a, b), (a, b, a), (b, a, a)):
            seed = Vec3(entries, mod)
            got = {v.entries for v in orbit(gens, seed)}
            assert got == _tuple_orbit_oracle(gens, seed)
            # the orbit meets at most 12 diagonal lines
            assert len({((x - z) % n, (y - z) % n) for x, y, z in got}) <= 12


@pytest.mark.parametrize(
    "seed, group, n, size",
    [
        ("5,5,5", "extension", 5040, 1),
        ("0,0,6", "extension", 12, 6),
        ("0,2,4", "j", 12, 12),
        ("0,1,3", "j+", 1009, 1009),
        ("0,6,9", "sigma-j+", 12, 24),
    ],
)
def test_cli_orbit_sizes(capsys, seed, group, n, size):
    assert main(["orbit", "--seed", seed, "--group", group, "--mod", str(n), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == len(payload["orbit"]) == size


@pytest.mark.parametrize("group", sorted(_ORBIT_GENERATORS))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_orbit_matches_oracle_on_every_seed(group, n):
    # orbits partition the seeds, so one oracle orbit serves every seed in it
    mod = Modulus(n)
    gens = _orbit_generators(group, mod)
    oracles = {}
    for entries in itertools.product(range(n), repeat=3):
        seed = Vec3(entries, mod)
        if seed not in oracles:
            want = _orbit_oracle(gens, seed)
            oracles.update(dict.fromkeys(want, want))
        assert orbit(gens, seed) == oracles[seed]


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 60), st.data())
def test_orbit_property(n, data):
    mod, residue = Modulus(n), st.integers(0, n - 1)
    gens = [
        ExtElement(
            data.draw(st.sampled_from(ALL_PERMS)),
            JElement(data.draw(st.integers(0, 1)), data.draw(residue), data.draw(residue), mod),
        )
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    seed = Vec3((data.draw(residue), data.draw(residue), data.draw(residue)), mod)
    got = orbit(gens, seed)
    assert got == _orbit_oracle(gens, seed)
    assert seed in got
    assert all(g.apply(v) in got for g in gens for v in got)
    # the translations move a tuple only along (1, 1, 1)
    assert len(got) <= 12 * n


def test_orbit_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        orbit(ext_gens(), Vec3.of(0, 4, 7, 7))


def test_orbits_have_expected_contents():
    maj = orbit(mode_preserving_gens(), Vec3.of(0, 4, 7, M12))
    assert all(classify(v) is not None and classify(v).id.mode is Mode.MAJOR for v in maj)
    dual = orbit(j_gens(), Vec3.of(0, 4, 7, M12))
    assert dual == {dualistic_tuple(t) for t in all_triads()}
    rootpos = orbit(hook_gens(), Vec3.of(0, 4, 7, M12))
    assert rootpos == {root_position_tuple(t) for t in all_triads()}


def test_stabilizer_of_root_position_is_hook(ext12, hooks):
    rootpos = {root_position_tuple(t) for t in all_triads()}
    stab = stabilizer_of_set(ext12, rootpos)
    assert len(stab) == 288
    assert set(stab) == set(hooks)


def test_utt_apply_examples():
    pl = UTT("-", 0, 8)
    assert pl.apply(TriadId(3, Mode.MAJOR)) == TriadId(3, Mode.MINOR)
    assert pl.apply(TriadId(3, Mode.MINOR)) == TriadId(11, Mode.MAJOR)
    rl = UTT("+", 7, -7)
    t = TriadId(0, Mode.MAJOR)
    for _ in range(12):
        t = rl.apply(t)
    assert t == TriadId(0, Mode.MAJOR)
    acc = UTT.identity()
    for _ in range(12):
        acc = rl * acc
    assert acc == UTT.identity()


def test_utt_compose_matches_pointwise_action():
    rng = random.Random(1)
    triads = all_triads()
    for _ in range(300):
        a = UTT(rng.choice("+-"), rng.randrange(12), rng.randrange(12))
        b = UTT(rng.choice("+-"), rng.randrange(12), rng.randrange(12))
        composed = a * b
        for t in triads:
            assert composed.apply(t) == a.apply(b.apply(t))


def test_utt_inverse_and_parse():
    rng = random.Random(2)
    for _ in range(50):
        u = UTT(rng.choice("+-"), rng.randrange(12), rng.randrange(12))
        assert u * u.inverse() == UTT.identity()
        assert UTT.parse(str(u)) == u
    with pytest.raises(ValueError):
        UTT.parse("<*,1,2>")


@pytest.mark.parametrize("text", ["<+,1,0>", "+,1,0", "  < + , 1 , 0 >  ", "<+,13,-12>"])
def test_utt_parse_takes_one_pair_of_brackets_or_none(text):
    assert UTT.parse(text) == UTT("+", 1, 0)


@pytest.mark.parametrize("text", ["<<+,1,0>>", "<+,1,0", "+,1,0>", "+,1,0>>>", "<+,1,0>>", "<+,<1,0>", "<>"])
def test_utt_parse_rejects_unbalanced_or_doubled_brackets(text):
    with pytest.raises(ValueError, match="cannot parse triadic transformation"):
        UTT.parse(text)


@pytest.mark.parametrize("text", ["<+,٣,10>", "<+,3,1_0>", "<-,0,٠>", "<+,3,>", "<+,x,0>"])
def test_utt_parse_takes_ascii_digits_only(text):
    # str writes ASCII digits only; int() alone would take '٣' and '1_0'
    with pytest.raises(ValueError, match="invalid literal for int"):
        UTT.parse(text)


def test_rho_displayed_matrices():
    assert str(rho(UTT("+", 1, 0)).matrix()) == "[[9,1,3],[8,2,3],[8,1,4]]"
    assert str(rho(UTT("+", 0, 1)).matrix()) == "[[10,11,4],[9,0,4],[9,11,5]]"
    assert str(rho(UTT("-", 0, 0)).matrix()) == "[[1,0,0],[1,11,1],[0,0,1]]"
    assert rho(UTT("-", 0, 0)) == ExtElement(TRANSPOSITION_13, JElement(1, 0, 1, M12)) == E13W


def test_rho_action_on_all_root_position_triads():
    # <s,m,n> shifts major roots by m, minor roots by n, and s flips mode:
    # exhaustive over all 288 transformations and all 24 root-position triads
    for u in all_utts():
        mat = rho(u).matrix()
        for r in range(12):
            maj = mat_vec(mat, root_position_tuple(TriadId(r, Mode.MAJOR)))
            mnr = mat_vec(mat, root_position_tuple(TriadId(r, Mode.MINOR)))
            assert maj == root_position_tuple(u.apply(TriadId(r, Mode.MAJOR)))
            assert mnr == root_position_tuple(u.apply(TriadId(r, Mode.MINOR)))


def test_rho_matrix_matches_basis_inversion_route():
    # independent derivation: the images of the root-position basis
    # (0,4,7), (0,3,7), (1,5,8) determine the matrix via the inverse basis
    basis_inverse = Mat3([[7, 1, 3], [9, 11, 4], [1, 0, 0]], M12)
    basis = Mat3([[0, 0, 1], [4, 3, 5], [7, 7, 8]], M12)
    assert basis @ basis_inverse == Mat3.identity(M12)
    for u in all_utts():
        images = [
            u.apply(TriadId(0, Mode.MAJOR)),
            u.apply(TriadId(0, Mode.MINOR)),
            u.apply(TriadId(1, Mode.MAJOR)),
        ]
        cols = [root_position_tuple(t).entries for t in images]
        image_matrix = Mat3(tuple(zip(*cols)), M12)
        assert image_matrix @ basis_inverse == rho(u).matrix()


def test_rho_is_injective_homomorphism_sampled():
    rng = random.Random(3)
    for _ in range(300):
        a = UTT(rng.choice("+-"), rng.randrange(12), rng.randrange(12))
        b = UTT(rng.choice("+-"), rng.randrange(12), rng.randrange(12))
        assert rho(a * b) == rho(a) * rho(b)


def test_rho_inverse_round_trip(monkeypatch):
    for u in all_utts():
        assert rho_inverse(rho(u)) == u
    # the self-check: a reading that rho does not map back to e is refused
    monkeypatch.setattr(triadic, "rho", lambda u: E13W)
    with pytest.raises(RuntimeError, match=r"^rho\(<-,9,8>\) = \(13\) U \(UW\)\^1 does not equal \(13\) U$"):
        rho_inverse(E13U)


def test_rho_inverse_and_normal_form_B_check_hook_membership(ext12):
    # every element of the extension: the 1440 outside the Hook group are refused
    # by both readers, and the 288 inside it round-trip through rho
    inside = outside = 0
    for e in ext12:
        if is_in_hook(e):
            assert rho(rho_inverse(e)) == e
            inside += 1
            continue
        for read in (rho_inverse, hook_normal_form_B):
            with pytest.raises(NotInHook, match=f"^{re.escape(str(e))} does not preserve root-position triads$"):
                read(e)
        outside += 1
    assert (inside, outside) == (288, 1440)
    # the Hook group is defined over Z/12 only: a Hook-shaped element mod 7 is refused
    e = ExtElement.from_j(JElement(0, 1, 2, Modulus(7)))
    for read in (rho_inverse, hook_normal_form_B):
        with pytest.raises(NotInHook, match="does not preserve root-position triads"):
            read(e)


def test_hook_membership_characterization(ext12, hooks):
    hook_set = set(hooks)
    for e in ext12:
        expected = (e.j.k == 0 and e.sigma.is_identity()) or (
            e.j.k == 1 and e.sigma == TRANSPOSITION_13
        )
        assert (e in hook_set) == expected == is_in_hook(e)


def test_hook_halves(hooks):
    plus = [h for h in hooks if h.k == 0]
    minus = [h for h in hooks if h.k == 1]
    assert len(plus) == len(minus) == 144
    assert all(h.sigma.is_identity() for h in plus)
    assert all(h.sigma == TRANSPOSITION_13 for h in minus)


def test_normal_form_A(hooks):
    for h in hooks:
        sigma = Perm3.identity() if h.k == 0 else TRANSPOSITION_13
        assert h == ExtElement(sigma, JElement(h.k, h.m, h.n, M12))


def test_generator_orders():
    assert E13U == ExtElement(TRANSPOSITION_13, JElement(1, 0, 0, M12))
    assert E13W == ExtElement(TRANSPOSITION_13, JElement(1, 0, 1, M12))
    assert E13U.order() == 24
    assert E13W.order() == 2
    prod = E13W * E13U
    assert prod == ExtElement.from_j(JElement(0, 0, 11, M12))
    assert prod.order() == 12


def test_normal_form_B_unique_and_parity(hooks):
    seen = {}
    for h in hooks:
        p, n = hook_normal_form_B(h)
        assert 0 <= p < 24 and 0 <= n < 12
        assert (p, n) not in seen
        seen[(p, n)] = h
        assert hook_from_normal_form_B(p, n) == h
        assert p % 2 == h.k
    assert len(seen) == 288
    assert hook_normal_form_B(E13U) == (1, 0)
    assert hook_normal_form_B(E13W) == (1, 1)


def test_two_generators_generate_hook(hooks):
    gens = hook_gens()
    gens += [g.inverse() for g in gens]
    seen = {ExtElement.identity(M12)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    assert seen == set(hooks)


def test_semidirect_decomposition(hooks):
    w_cyclic = {ExtElement.identity(M12), E13W}
    j_plus = {ExtElement.from_j(JElement(0, m, n, M12)) for m in range(12) for n in range(12)}
    assert w_cyclic & j_plus == {ExtElement.identity(M12)}
    products = {a * b for a in w_cyclic for b in j_plus}
    assert products == set(hooks)


def test_conjugation_formula_for_all_pairs():
    for m in range(12):
        for n in range(12):
            inner = ExtElement.from_j(JElement(0, m, n, M12))
            got = E13W * inner * E13W.inverse()
            assert got == ExtElement.from_j(JElement(0, m + n, -n, M12))


def test_wreath_generators():
    E, F, G = wreath_generators()
    assert rho(UTT("+", 1, 0)) == F
    assert rho(UTT("+", 0, 1)) == G
    assert rho(UTT("-", 0, 0)) == E == E13W
    assert E * F * E.inverse() == G
    assert (F * G).j == JElement(0, 7, 0, M12)
    # F translates root-position majors by 1 and fixes minors; G conversely
    f, g = rho_inverse(F), rho_inverse(G)
    for r in range(12):
        assert f.apply(TriadId(r, Mode.MAJOR)) == TriadId(r + 1, Mode.MAJOR)
        assert f.apply(TriadId(r, Mode.MINOR)) == TriadId(r, Mode.MINOR)
        assert g.apply(TriadId(r, Mode.MAJOR)) == TriadId(r, Mode.MAJOR)
        assert g.apply(TriadId(r, Mode.MINOR)) == TriadId(r + 1, Mode.MINOR)
        for t in (TriadId(r, Mode.MAJOR), TriadId(r, Mode.MINOR)):
            assert F.apply(root_position_tuple(t)) == root_position_tuple(f.apply(t))
            assert G.apply(root_position_tuple(t)) == root_position_tuple(g.apply(t))


def test_wreath_generators_span_mode_preserving_half():
    E, F, G = wreath_generators()
    gens = [F, G, F.inverse(), G.inverse()]
    seen = {ExtElement.identity(M12)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    assert seen == {ExtElement.from_j(JElement(0, m, n, M12)) for m in range(12) for n in range(12)}


def test_wreath_product_law():
    # E^t F^p G^q * E^s F^m G^n twists (m,n) past E^s exactly when s = 1
    E, F, G = wreath_generators()
    rng = random.Random(8)
    for _ in range(100):
        t, s = rng.randrange(2), rng.randrange(2)
        p, q, m, n = (rng.randrange(12) for _ in range(4))
        lhs = (E**t * F**p * G**q) * (E**s * F**m * G**n)
        if s == 0:
            rhs = E**t * F ** (m + p) * G ** (n + q)
        else:
            rhs = E ** (t + 1) * F ** (m + q) * G ** (n + p)
        assert lhs == rhs


def test_rho_from_wreath_agrees():
    for u in all_utts():
        assert rho_from_wreath(u) == rho(u)
