"""The value contract shared by the slotted immutable classes.

Modulus, Vec3, Mat3, Perm3, AffineMap, the group elements, the
triad records, the triadic transformations and progressions share one storage (modring._Value): a validating public
constructor, and, derived from the declared slots, one
trusted constructor for the library's own producers, frozen fields, equality,
and pickle and copy through the trusted constructor. A group element has one
slot, its coordinate tuple _c = (point, m, n, modulus), so its trusted
constructor takes that tuple, and point, m, n and modulus are read-only views
of it.
"""

import copy
import dataclasses
import pickle
import re
from dataclasses import FrozenInstanceError

import pytest

import voicegroup
from voicegroup.analysis import Progression, find_affine_morphisms, rich_element, solve_step
from voicegroup.extension import ExtElement, enumerate_extension, ext_decode, parse_element
from voicegroup.linalg import (
    ALL_PERMS,
    AffineMap,
    Mat3,
    Perm3,
    Vec3,
    mat_vec,
    perm_matrix,
    scalar_affine,
)
from voicegroup.modring import Modulus, _Value, solve_linear, units
from voicegroup.structure import centralizer_in_Aff, centralizer_in_M3, check_duality, ti_orbit
from voicegroup.triadic import UTT, Mode, TriadClass, TriadId, all_triads, all_utts, classify
from voicegroup.triadic import hook_elements, hook_from_normal_form_B, orbit, rho, rho_inverse
from voicegroup.triadic import hook_normal_form_B, is_in_hook
from voicegroup.voicing import JElement, decode, generator_matrix, j_reflection, word_to_element


def _values(modulus):
    """One value of each class over the given modulus (12, or a Modulus(12))."""
    m = Modulus(modulus) if isinstance(modulus, int) else modulus
    e = ExtElement(Perm3((3, 2, 1)), JElement(1, 2, 5, m))
    return [
        JElement(1, 2, 3, m),
        e,
        Vec3((0, 4, 7), m),
        Mat3(((0, 1, 0), (1, 0, 0), (1, 1, 11)), m),
        Perm3((2, 3, 1)),
        AffineMap(Mat3(((5, 0, 0), (0, 5, 0), (0, 0, 5)), m), Vec3((3, 3, 3), m)),
        m,
        TriadId(13, Mode.MINOR),
        TriadClass(TriadId(0, Mode.MAJOR), Perm3((3, 2, 1))),
        UTT("-", 13, -1),
        Progression.of([(0, 4, 7), (2, 5, 9)], m, cyclic=True),
    ]


@pytest.mark.parametrize("value", _values(12), ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "route",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
)
def test_values_pickle_and_copy(value, route):
    again = route(value)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert repr(again) == repr(value)


def test_parsed_element_pickles():
    a = parse_element("(13) U (UV)^2", 12)
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a


_FIELDS = {
    JElement: ("_c",),
    ExtElement: ("_c",),
    Vec3: ("entries", "modulus"),
    Mat3: ("rows", "modulus"),
    Perm3: ("image",),
    AffineMap: ("linear", "translation"),
    Modulus: ("n",),
    TriadId: ("root", "mode"),
    TriadClass: ("id", "voicing"),
    UTT: ("sign", "t_major", "t_minor"),
    Progression: ("modulus", "tuples", "cyclic"),
}
# the coordinates of a group element, in the order of its one slot _c
_COORDINATES = {JElement: ("point", "m", "n", "modulus"), ExtElement: ("point", "m", "n", "modulus")}


@pytest.mark.parametrize("value", _values(12), ids=lambda v: type(v).__name__)
def test_values_are_frozen(value):
    for name in _FIELDS[type(value)] + _COORDINATES.get(type(value), ()):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    with pytest.raises(FrozenInstanceError):
        value.other = 0


def test_values_equal_across_distinct_moduli():
    a, b = Modulus(12), Modulus(12)
    assert a is not b
    for x, y in zip(_values(a), _values(b)):
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1


def test_same_entries_over_different_moduli_differ():
    for x, y in ((Vec3.of(0, 4, 7, 12), Vec3.of(0, 4, 7, 13)), (Mat3.identity(12), Mat3.identity(13))):
        assert x != y and len({x, y}) == 2
        assert {x: 0}.get(y) is None


def test_values_of_different_kinds_differ():
    v = Vec3.of(0, 4, 7, 12)
    assert v != (0, 4, 7) and (0, 4, 7) != v
    assert v != Mat3.identity(12) and Mat3.identity(12) != v
    assert Perm3((1, 2, 3)) != (1, 2, 3)
    assert Vec3.of(0, 4, 7, 12) != Vec3.of(0, 4, 7, 13)
    m = Modulus(12)
    assert m != 12 and m != Modulus(13)
    assert UTT("+", 0, 0) != ("+", 0, 0) and TriadId(0, Mode.MAJOR) != TriadId(0, Mode.MINOR)


@pytest.mark.parametrize(
    "operation",
    [
        lambda: Perm3((2, 1, 3)) * 2,
        lambda: UTT("+", 1, 2) * 3,
        lambda: Vec3.of(1, 2, 3, 12) + 1,
        lambda: Vec3.of(1, 2, 3, 12) - (1, 2, 3),
    ],
    ids=[
        "Perm3-mul-int",
        "UTT-mul-int",
        "Vec3-add-int",
        "Vec3-sub-tuple",
    ],
)
def test_operators_refuse_a_foreign_operand_with_type_error(operation):
    # the operator returns NotImplemented, so Python raises its own TypeError
    with pytest.raises(TypeError, match="unsupported operand type"):
        operation()


@pytest.mark.parametrize(
    "action, expected",
    [
        (lambda: Perm3((2, 1, 3)).apply((1, 2, 3)), "Perm3.apply expects a Vec3, got tuple"),
        (lambda: JElement(0, 1, 0, 12).apply((1, 2, 3)), "JElement.apply expects a Vec3, got tuple"),
        (lambda: parse_element("(12) U", 12).apply((1, 2, 3)), "ExtElement.apply expects a Vec3, got tuple"),
        (lambda: UTT("+", 1, 2).apply(3), "UTT.apply expects a TriadId, got int"),
        (lambda: UTT("+", 1, 2).apply(Vec3.of(0, 4, 7, 12)), "UTT.apply expects a TriadId, got Vec3"),
        (lambda: AffineMap(Mat3.identity(12), Vec3.of(0, 0, 0, 12)).apply((1, 2, 3)), "unsupported operand type"),
    ],
    ids=["Perm3", "JElement", "ExtElement", "UTT-int", "UTT-Vec3", "AffineMap"],
)
def test_apply_on_what_a_value_does_not_act_on_raises_type_error(action, expected):
    with pytest.raises(TypeError, match=re.escape(expected)):
        action()



# the functions that read a Vec3 argument's entries or modulus refuse anything
# else with TypeError, as .apply does, not with an AttributeError from inside
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda t, v: check_duality(t), "check_duality expects a Vec3, got tuple"),
        (lambda t, v: ti_orbit(t), "ti_orbit expects a Vec3, got tuple"),
        (lambda t, v: orbit([word_to_element("U", 12)], t), "orbit expects a Vec3 seed, got tuple"),
        (lambda t, v: orbit([t], v), "orbit expects group elements as generators, got tuple"),
        (lambda t, v: classify(t), "classify expects a Vec3, got tuple"),
        (lambda t, v: solve_step(t, v), "solve_step expects a Vec3 src, got tuple"),
        (lambda t, v: solve_step(v, t), "solve_step expects a Vec3 dst, got tuple"),
        (lambda t, v: j_reflection(1, 2, t), "j_reflection expects a Vec3, got tuple"),
        (lambda t, v: Progression(12, [t]), "Progression expects Vec3 tuples, got tuple"),
    ],
    ids=[
        "check_duality", "ti_orbit", "orbit", "orbit-generator", "classify", "solve_step-src", "solve_step-dst",
        "j_reflection", "Progression",
    ],
)
def test_functions_of_a_vec3_refuse_a_tuple_with_type_error(call, expected):
    with pytest.raises(TypeError, match=f"^{re.escape(expected)}$"):
        call((0, 4, 7), Vec3.of(0, 4, 7, 12))


# the group's membership functions refuse a wrong-typed argument with TypeError,
# naming the function called, not with a KeyError or AttributeError from inside
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda x: generator_matrix(x, 12), "generator_matrix expects a Generator, got NoneType"),
        (decode, "decode expects a Mat3, got NoneType"),
        (ext_decode, "ext_decode expects a Mat3, got NoneType"),
        (rho, "rho expects a UTT, got NoneType"),
        (rho_inverse, "rho_inverse expects an ExtElement, got NoneType"),
        (hook_normal_form_B, "hook_normal_form_B expects an ExtElement, got NoneType"),
        (is_in_hook, "is_in_hook expects an ExtElement, got NoneType"),
    ],
    ids=["generator_matrix", "decode", "ext_decode", "rho", "rho_inverse", "hook_normal_form_B", "is_in_hook"],
)
def test_group_membership_functions_refuse_none_with_type_error(call, expected):
    with pytest.raises(TypeError, match=f"^{re.escape(expected)}$"):
        call(None)

def test_reprs_are_pinned():
    assert [repr(v) for v in _values(12)] == [
        "JElement('U (UV)^2 (UW)^3', mod 12)",
        "ExtElement('(13) U (UV)^2 (UW)^5', mod 12)",
        "Vec3(entries=(0, 4, 7), modulus=Modulus(n=12))",
        "Mat3(rows=((0, 1, 0), (1, 0, 0), (1, 1, 11)), modulus=Modulus(n=12))",
        "Perm3(image=(2, 3, 1))",
        "AffineMap(linear=Mat3(rows=((5, 0, 0), (0, 5, 0), (0, 0, 5)), modulus=Modulus(n=12)), "
        "translation=Vec3(entries=(3, 3, 3), modulus=Modulus(n=12)))",
        "Modulus(n=12)",
        "TriadId(root=1, mode=<Mode.MINOR: 'minor'>)",
        "TriadClass(id=TriadId(root=0, mode=<Mode.MAJOR: 'major'>), voicing=Perm3(image=(3, 2, 1)))",
        "UTT(sign='-', t_major=1, t_minor=11)",
        "Progression(modulus=Modulus(n=12), tuples=(Vec3(entries=(0, 4, 7), modulus=Modulus(n=12)), "
        "Vec3(entries=(2, 5, 9), modulus=Modulus(n=12))), cyclic=True)",
    ]


def test_public_constructors_take_keywords():
    m = Modulus(n=12)
    assert m == Modulus(12) and m.n == 12
    assert TriadId(root=13, mode=Mode.MAJOR) == TriadId(1, Mode.MAJOR)
    assert TriadClass(id=TriadId(0, Mode.MINOR), voicing=Perm3((1, 2, 3))).id.mode is Mode.MINOR
    assert UTT(sign="+", t_major=13, t_minor=-1) == UTT("+", 1, 11)
    v = Vec3.of(0, 4, 7, m)
    assert Progression(modulus=m, tuples=(v,), cyclic=True) == Progression(m, (v,), True)
    assert Progression(m, (v,)) == Progression(m, (v,), cyclic=False) == Progression.of([(0, 4, 7)], m)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Modulus(1), "modulus must be an integer >= 2, got 1"),
        (lambda: Modulus(n=12.0), "modulus must be an integer >= 2, got 12.0"),
        (lambda: Modulus(True), "modulus must be an integer >= 2, got True"),
        (lambda: Modulus("12"), "modulus must be an integer >= 2, got '12'"),
        # a float or a string modulus is refused wherever a modulus is taken, not truncated or parsed
        (lambda: Vec3((1, 2, 3), 12.7), "modulus must be an integer >= 2, got 12.7"),
        (lambda: JElement(0, 1, 1, "13"), "modulus must be an integer >= 2, got '13'"),
        (lambda: word_to_element("VW", "7"), "modulus must be an integer >= 2, got '7'"),
        (lambda: solve_linear([[1, 1]], [0], 7.5), "modulus must be an integer >= 2, got 7.5"),
        # a float or a string entry of a system is refused, not truncated or parsed
        (lambda: solve_linear([[1.5, 1]], [0], 7), "rows[0][0] must be an integer, got 1.5"),
        (lambda: solve_linear([[1, 1], [2, "3"]], [0, 1], 7), "rows[1][1] must be an integer, got '3'"),
        (lambda: solve_linear([[1, 1]], [0.0], 7), "rhs[0] must be an integer, got 0.0"),
        (lambda: UTT("*", 0, 0), "sign must be '+' or '-', got '*'"),
        (lambda: UTT(sign="", t_major=0, t_minor=0), "sign must be '+' or '-', got ''"),
        (lambda: TriadId(0, "major"), "mode must be a Mode, got 'major'"),
        (lambda: TriadId(root=4, mode=None), "mode must be a Mode, got None"),
        # a float or a string is refused wherever a triad-level integer is taken, not truncated or parsed
        (lambda: TriadId(2.7, Mode.MAJOR), "root must be an integer, got 2.7"),
        (lambda: TriadId("3", Mode.MAJOR), "root must be an integer, got '3'"),
        (lambda: UTT("+", 1.5, 2.9), "t_major must be an integer, got 1.5"),
        (lambda: UTT("+", "7", " 5"), "t_major must be an integer, got '7'"),
        (lambda: UTT("+", 7, " 5"), "t_minor must be an integer, got ' 5'"),
        (lambda: hook_from_normal_form_B(3, 2.5), "n must be an integer, got 2.5"),
        (lambda: hook_from_normal_form_B(3.5, 2), "p must be an integer, got 3.5"),
        # the same holds for elements, vectors, matrices and affine maps
        (lambda: JElement(0, 1.5, 2, 12), "m must be an integer, got 1.5"),
        (lambda: JElement(0, 1, "2", 12), "n must be an integer, got '2'"),
        (lambda: JElement(1.0, 0, 0, 12), "k must be an integer, got 1.0"),
        (lambda: Vec3((1.9, 2, 3), 12), "entries[0] must be an integer, got 1.9"),
        (lambda: Vec3.of(1, 2, "3", 12), "entries[2] must be an integer, got '3'"),
        # the entries are read once, so every iterable names the entry at fault, a one-shot iterator too
        (lambda: Vec3([1, "2", 3], 12), "entries[1] must be an integer, got '2'"),
        (lambda: Vec3([1, 2, None], 12), "entries[2] must be an integer, got None"),
        (lambda: Vec3("123", 12), "entries[0] must be an integer, got '1'"),
        # an entry that is not an integer is named before the length is checked
        (lambda: Vec3([1, 2, 3, "x"], 12), "entries[3] must be an integer, got 'x'"),
        (lambda: Vec3(["a", 2], 12), "entries[0] must be an integer, got 'a'"),
        (lambda: Vec3([1, 2], 12), "expected 3 entries, got 2"),
        (lambda: Vec3([1, 2, 3, 4], 12), "expected 3 entries, got 4"),
        (lambda: Vec3((v for v in (1, 2)), 12), "expected 3 entries, got 2"),
        (lambda: Vec3((v for v in (1, 2.5, 3)), 12), "entries[1] must be an integer, got 2.5"),
        (lambda: Vec3(iter([1, "2", 3, 4]), 12), "entries[1] must be an integer, got '2'"),
        (lambda: Vec3.of(1, 2, 3, 12).shift(1.9), "c must be an integer, got 1.9"),
        (lambda: Mat3(((1, 0, 0), (0, 1.5, 0), (0, 0, 1)), 12), "rows[1][1] must be an integer, got 1.5"),
        (lambda: scalar_affine(1.5, 2.9, 12), "u must be an integer, got 1.5"),
        (lambda: scalar_affine(1, 2.9, 12), "q must be an integer, got 2.9"),
        # a matrix that is not a sequence of three rows of three is refused by Mat3 itself
        (lambda: Mat3(5, 12), "expected a 3x3 matrix"),
        (lambda: Mat3([[1, 2, 3], [4, 5, 6], 7], 12), "expected a 3x3 matrix"),
        (lambda: Mat3((r for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))), 12), "expected a 3x3 matrix"),
        (lambda: Progression(Modulus(12), ()), "progression must contain at least one tuple"),
        (lambda: Progression(Modulus(12), (Vec3.of(0, 4, 7, 13),)), "mixed moduli: 12 vs 13"),
    ],
)
def test_public_constructor_error_texts(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_triad_level_integers_take_any_integer_type():
    np = pytest.importorskip("numpy")
    t = TriadId(np.int64(14), Mode.MAJOR)
    assert t == TriadId(2, Mode.MAJOR) and type(t.root) is int
    u = UTT("-", np.uint8(13), np.int32(-1))
    assert u == UTT("-", 1, 11) and type(u.t_major) is type(u.t_minor) is int
    assert hook_from_normal_form_B(np.int64(-3), np.int16(25)) == hook_from_normal_form_B(-3, 25)


def test_value_integers_take_any_integer_type():
    np = pytest.importorskip("numpy")
    v = Vec3((np.int64(13), np.uint8(2), np.int32(-1)), 12)
    assert v == Vec3.of(1, 2, 11, 12) and {type(x) for x in v.entries} == {int}
    assert v.shift(np.int64(13)) == Vec3.of(2, 3, 0, 12)
    a = Mat3([[np.int64(13), 0, 0], [0, np.int8(-1), 0], [0, 0, 1]], 12)
    assert a.rows == ((1, 0, 0), (0, 11, 0), (0, 0, 1)) and type(a.rows[0][0]) is int
    assert units(np.int64(12)) == [1, 5, 7, 11] and {type(x) for x in units(np.uint8(12))} == {int}
    e = JElement(np.int64(1), np.int64(14), np.int16(-1), 12)
    assert e == JElement(1, 2, 11, 12) and {type(x) for x in (e.point, e.m, e.n)} == {int}
    assert scalar_affine(np.int64(5), np.uint8(15), 12) == scalar_affine(5, 3, 12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Vec3((1, 2), Modulus(12)),
        lambda: Vec3((1, 2, 3, 4), Modulus(12)),
        lambda: Vec3([1, 2], 12),
        lambda: Vec3([1, 2, 3, 4], 12),
        lambda: Vec3((v for v in (1, 2, 3, 4)), 12),
        lambda: Vec3([1, "2", 3], 12),
        lambda: Vec3("123", 12),
        lambda: Mat3(((1, 0, 0), (0, 1, 0)), Modulus(12)),
        lambda: Mat3(((1, 0), (0, 1), (0, 0)), Modulus(12)),
        lambda: Mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]], 12),
        lambda: Perm3((1, 1, 2)),
        lambda: Perm3((1, 2, 3, 4)),
        lambda: AffineMap(Mat3.identity(12), Vec3.of(0, 0, 0, 7)),
    ],
    ids=[
        "vec-2",
        "vec-4",
        "vec-list-2",
        "vec-list-4",
        "vec-generator-4",
        "vec-list-string",
        "vec-string-3",
        "mat-2-rows",
        "mat-2-columns",
        "mat-ragged",
        "perm-repeat",
        "perm-4",
        "affine-moduli",
    ],
)
def test_public_constructors_reject_malformed_input(build):
    with pytest.raises(ValueError):
        build()


def test_public_constructors_take_an_int_modulus():
    m = Modulus(12)
    assert Vec3((1, 2, 15), 12) == Vec3((1, 2, 3), m)
    assert Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 13)), 12) == Mat3.identity(m)
    v = Vec3.of(0, 4, 7, m)
    assert Progression(12, [v]) == Progression(m, [v]) and Progression(12, [v]).modulus == m
    with pytest.raises(ValueError, match=r"^mixed moduli: 13 vs 12$"):
        Progression(13, [v])
    with pytest.raises(ValueError, match=r"^modulus must be an integer >= 2, got 1$"):
        Vec3((1, 2, 3), 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TriadClass(0, Perm3((1, 2, 3))), "id must be a TriadId, got 0"),
        (lambda: TriadClass(TriadId(0, Mode.MAJOR), "id"), "voicing must be a Perm3, got 'id'"),
        (lambda: TriadClass(id=TriadId(0, Mode.MAJOR), voicing=(3, 2, 1)), "voicing must be a Perm3, got (3, 2, 1)"),
    ],
)
def test_triad_class_checks_its_fields(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_public_constructors_reduce_entries():
    assert Vec3((-1, 12, 25), Modulus(12)).entries == (11, 0, 1)
    # a tuple, a list or any other iterable of three entries gives the same value
    assert Vec3([-1, 12, 25], 12) == Vec3((v for v in (-1, 12, 25)), 12) == Vec3(range(-1, 26, 13), 12)
    v = Vec3([True, False, 14], 12)
    assert v.entries == (1, 0, 2) and {type(x) for x in v.entries} == {int}
    assert Mat3([[-1, 0, 0], [0, 13, 0], [0, 0, 1]], Modulus(12)).rows == ((11, 0, 0), (0, 1, 0), (0, 0, 1))
    assert Perm3([2, 1, 3]).image == (2, 1, 3)


def _others(modulus):
    """A second value of each class, in the order of _values, that differs
    from the first in every field; each field can replace the first's one."""
    m = Modulus(modulus) if isinstance(modulus, int) else modulus
    return [
        JElement(0, 5, 7, 13),
        ExtElement(Perm3((2, 3, 1)), JElement(0, 4, 8, 13)),
        Vec3((1, 2, 3), Modulus(13)),
        Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), Modulus(13)),
        Perm3((1, 2, 3)),
        AffineMap(Mat3.identity(m), Vec3((1, 1, 1), m)),
        Modulus(13),
        TriadId(2, Mode.MAJOR),
        TriadClass(TriadId(5, Mode.MINOR), Perm3((1, 2, 3))),
        UTT("+", 2, 3),
        Progression.of([(1, 2, 3)], Modulus(13)),
    ]


def _slots_along_mro(cls):
    return tuple(name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ()))


@pytest.mark.parametrize("value", _values(12), ids=lambda v: type(v).__name__)
def test_trusted_constructor_is_derived_from_the_slots(value):
    cls = type(value)
    fields = tuple(getattr(value, name) for name in _FIELDS[cls])
    assert cls._TRUSTED == (cls._make, _FIELDS[cls])
    assert _FIELDS[cls] == _slots_along_mro(cls)
    again = cls._make(*fields)
    assert type(again) is cls and again == value and hash(again) == hash(value)
    assert cls._make.__qualname__ == f"{cls.__qualname__}._make"
    if cls in _COORDINATES:  # the one slot holds the coordinates that the views read
        assert value._c == tuple(getattr(value, name) for name in _COORDINATES[cls])
        assert again._c is value._c


@pytest.mark.parametrize("value, other", zip(_values(12), _others(12)), ids=lambda v: type(v).__name__)
def test_every_field_takes_part_in_equality(value, other):
    cls = type(value)
    assert type(other) is cls
    fields = [getattr(value, name) for name in _FIELDS[cls]]
    for i, name in enumerate(_FIELDS[cls]):
        assert getattr(other, name) != fields[i], name
        changed = cls._make(*fields[:i], getattr(other, name), *fields[i + 1 :])
        assert changed != value and value != changed, name
    for i, name in enumerate(_COORDINATES.get(cls, ())):  # each coordinate of an element's one slot
        c = value._c
        assert other._c[i] != c[i], name
        changed = cls._make(c[:i] + other._c[i : i + 1] + c[i + 1 :])
        assert changed != value and value != changed, name


def test_value_class_takes_one_to_three_fields():
    class Two(_Value):
        __slots__ = ("a", "b")

    class Three(Two):
        __slots__ = ("c",)

    x = Three._make(1, 2, 3)
    assert Three._TRUSTED[1] == ("a", "b", "c") and (x.a, x.b, x.c) == (1, 2, 3)
    with pytest.raises(TypeError, match=r"^Four has 4 fields; a value class takes 1 to 3$"):

        class Four(_Value):
            __slots__ = ("a", "b", "c", "d")

    with pytest.raises(TypeError):

        class FourAlongTheMro(Three):
            __slots__ = ("d",)


def test_progression_is_a_value_not_a_dataclass():
    assert issubclass(Progression, _Value) and not dataclasses.is_dataclass(Progression)


def test_no_trusted_constructor_is_public():
    assert not [name for name in voicegroup.__all__ if name.startswith("_")]
    for cls in (JElement, ExtElement, Vec3, Mat3, Perm3, AffineMap, Modulus, TriadId, TriadClass, UTT, Progression):
        assert cls._TRUSTED[0].__name__ not in voicegroup.__all__


def _ints(entries, n: int) -> bool:
    return type(entries) is tuple and len(entries) == 3 and all(type(x) is int and 0 <= x < n for x in entries)


def _reduced(value) -> bool:
    """Whether the value holds what its public constructor would store."""
    if isinstance(value, Vec3):
        return _ints(value.entries, value.modulus.n)
    if isinstance(value, Mat3):
        return type(value.rows) is tuple and len(value.rows) == 3 and all(_ints(r, value.modulus.n) for r in value.rows)
    if isinstance(value, Perm3):
        return type(value.image) is tuple and Perm3(value.image) == value
    if isinstance(value, AffineMap):
        return _reduced(value.linear) and _reduced(value.translation) and value.translation.modulus == value.linear.modulus
    if isinstance(value, ExtElement):
        return value.point in range(12) and _ints((value.m, value.n, 0), value.modulus.n)
    if isinstance(value, TriadId):
        return value.root in range(12) and type(value.root) is int and isinstance(value.mode, Mode)
    if isinstance(value, TriadClass):
        return _reduced(value.id) and _reduced(value.voicing)
    if isinstance(value, UTT):
        return value.sign in ("+", "-") and _ints((value.t_major, value.t_minor, 0), 12)
    raise TypeError(type(value))


def test_trusted_producers_store_what_the_public_constructors_would():
    m = Modulus(12)
    v, w = Vec3.of(11, 4, 7, m), Vec3.of(5, 9, 1, m)
    a = Mat3([[11, 2, 7], [3, 0, 5], [10, 10, 1]], m)
    elements = enumerate_extension(m)[::37]
    produced = [a @ a, mat_vec(a, v), v.shift(-13), v + w, v - w, Mat3.identity(m), j_reflection(1, 2, v)]
    produced += [rich_element(m).apply(v), scalar_affine(-1, -5, m)]
    produced += [p * q for p in ALL_PERMS for q in ALL_PERMS] + [p.inverse() for p in ALL_PERMS]
    produced += [p.apply(v) for p in ALL_PERMS] + [perm_matrix(p, m) for p in ALL_PERMS]
    produced += [g.matrix() for g in elements] + [g.apply(v) for g in elements]
    produced += sorted(orbit(elements[:3], v), key=lambda x: x.entries) + ti_orbit(v)
    hooks = [rho(UTT(sign, x, y)) for sign in "+-" for x in (0, 5, 11) for y in (0, 7)]
    produced += hooks + [h * k for h in hooks for k in hooks[:3]] + [h.inverse() for h in hooks] + [h**-5 for h in hooks]
    produced += hook_elements()[::17] + [hook_from_normal_form_B(-3, 25)]
    produced += list(centralizer_in_M3(m).elements) + list(centralizer_in_Aff(Modulus(6)).elements)
    prog = Progression.of([(0, 4, 7), (2, 5, 9)], m)
    image = Progression.of([(1, 9, 0), (11, 2, 10)], m)  # x -> 5x + 1
    morphisms = find_affine_morphisms(prog, image, restrict_to_centralizer=True)
    assert scalar_affine(5, 1, m) in morphisms
    produced += morphisms
    produced += all_triads() + all_utts() + [rho_inverse(h) for h in hooks]
    produced += [classify(x) for x in ti_orbit(Vec3.of(0, 4, 7, m))] + [u * v for u in all_utts()[::29] for v in all_utts()[::31]]
    assert [x for x in produced if not _reduced(x)] == []
