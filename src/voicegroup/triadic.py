"""Consonant triads, uniform triadic transformations, and their linear model.

Abstract triads are pairs (root, mode) over Z/12. A uniform triadic
transformation <s, m, n> shifts major roots by m, minor roots by n, and
preserves or reverses mode according to the sign s. The map rho realizes
each such transformation as an invertible linear map on voicing space that
treats root-position triads exactly like the abstract transformation does;
its image is the stabilizer of the 24 root-position triads inside the
extended voicing group, here called the Hook group.

Root position writes minor triads as (r, r+3, r+7); dualistic root position
writes them reversed, (r+7, r+3, r). Majors are (r, r+4, r+7) in both.

Every element fixes the diagonal (1, 1, 1), so an orbit of voicings is a
union of cosets on at most 12 diagonal lines: the search closes over lines,
not tuples, and then fills in each line's coset.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

from .modring import Modulus, _Value, _ascii_int, _integer, check_same_modulus
from .linalg import Perm3, Vec3, TRANSPOSITION_13, _perm3, _vec3
from .voicing import _GROUP_POINTS, JElement, NotInGroup, _act, _enumerate
from .extension import ExtElement


class Mode(enum.Enum):
    MAJOR = "major"
    MINOR = "minor"


_NOTE_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

_TWELVE = Modulus(12)

# (UV)^m (UW)^n shifts (x, y, z) by m(z-x) + n(z-y), and (13)U sends a major root r
# to the minor root r - MINOR_THIRD and a minor root r to the major root r - MAJOR_THIRD.
# So (13)^k U^k (UV)^m (UW)^n moves major roots by FIFTH m + MINOR_THIRD (n - k)
# and minor roots by FIFTH m + MAJOR_THIRD (n - k); rho solves this for (m, n).
_FIFTH = 7
_MAJOR_THIRD = 4
_MINOR_THIRD = _FIFTH - _MAJOR_THIRD
_FIFTH_INVERSE = pow(_FIFTH, -1, _TWELVE.n)
_THIRDS_GAP_INVERSE = pow(_MAJOR_THIRD - _MINOR_THIRD, -1, _TWELVE.n)


class TriadId(_Value):
    """An abstract consonant triad: root pitch class and mode, over Z/12."""

    __slots__ = ("root", "mode")

    def __new__(cls, root: int, mode: Mode) -> "TriadId":
        if not isinstance(mode, Mode):
            raise ValueError(f"mode must be a Mode, got {mode!r}")
        return _triad_id(_integer(root, "root") % 12, mode)

    def name(self) -> str:
        base = _NOTE_NAMES[self.root]
        return base if self.mode is Mode.MAJOR else base.lower()

    def __str__(self) -> str:
        return self.name()


_triad_id = TriadId._make  # a root already in [0, 12) and a Mode


class TriadClass(_Value):
    """A classified voicing: which triad it is, and the reordering from root position."""

    __slots__ = ("id", "voicing")

    def __new__(cls, id: TriadId, voicing: Perm3) -> "TriadClass":
        if not isinstance(id, TriadId):
            raise ValueError(f"id must be a TriadId, got {id!r}")
        if not isinstance(voicing, Perm3):
            raise ValueError(f"voicing must be a Perm3, got {voicing!r}")
        return _triad_class(id, voicing)


_triad_class = TriadClass._make  # a TriadId and a Perm3


def all_triads() -> list[TriadId]:
    return [_triad_id(r, mode) for mode in Mode for r in range(12)]


def root_position_tuple(id: TriadId) -> Vec3:
    """(r, r+4, r+7) for major, (r, r+3, r+7) for minor."""
    r = id.root
    third = _MAJOR_THIRD if id.mode is Mode.MAJOR else _MINOR_THIRD
    return Vec3.of(r, r + third, r + _FIFTH, _TWELVE)


def dualistic_tuple(id: TriadId) -> Vec3:
    """(r, r+4, r+7) for major, (r+7, r+3, r) for minor."""
    if id.mode is Mode.MAJOR:
        return root_position_tuple(id)
    return _vec3(root_position_tuple(id).entries[::-1], _TWELVE)


def classify(v: Vec3) -> TriadClass | None:
    """Identify a tuple as a voiced consonant triad, or None.

    The returned voicing is the unique permutation carrying the triad's
    root-position tuple to v (consonant triads have three distinct pitch
    classes, so the permutation is unique): its image holds the 1-based
    slots of v where the root, third and fifth sit. Those three pitch classes
    are distinct, so all three are found only in a tuple of three distinct
    entries, and the third picks the mode.
    """
    if type(v) is not Vec3:
        raise TypeError(f"classify expects a Vec3, got {type(v).__name__}")
    if v.modulus.n != 12:
        raise ValueError("triad classification is defined over Z/12")
    slot = {pc: i for i, pc in enumerate(v.entries, 1)}
    for root in slot:
        for mode, third in ((Mode.MAJOR, _MAJOR_THIRD), (Mode.MINOR, _MINOR_THIRD)):
            image = tuple(slot.get((root + interval) % 12) for interval in (0, third, _FIFTH))
            if None not in image:
                return _triad_class(_triad_id(root, mode), _perm3(image))
    return None


def orbit(generators: Iterable[ExtElement], seed: Vec3) -> set[Vec3]:
    """The orbit of seed under the group the generators generate.

    Every element is linear and fixes (1, 1, 1), so g(v + c(1, 1, 1)) =
    g(v) + c(1, 1, 1): the group permutes the diagonal lines v + Z/n(1, 1, 1),
    keyed by ((x - z) mod n, (y - z) mod n). The translations (UV)^m (UW)^n
    fix every line and have index 12 in the extended group, so an orbit meets
    at most 12 lines. A breadth-first search over lines keeps one representative tuple
    per line, the image that first reached it; the group is finite, so
    closing under the generators alone (no inverses) reaches every line.
    When an edge reaches a line already seen, the diagonal gap between its
    image and that line's representative is a shift by a Schreier generator
    of the line's stabilizer (Schreier's lemma). These gaps generate the
    stabilizer's shifts h Z/n with h = gcd(n, gaps), the same subgroup on
    every line of the orbit, so the orbit is every representative plus
    {0, h, 2h, ...}(1, 1, 1).

    Each generator is read once as its (point, m, n) coordinates, and
    acts through the action kernel of the group elements. The closure costs
    O(12 |generators|) actions on plain ints, then one Vec3 is built per
    tuple of the result, O(|orbit|); an orbit has at most 12n tuples.
    """
    if type(seed) is not Vec3:
        raise TypeError(f"orbit expects a Vec3 seed, got {type(seed).__name__}")
    m = seed.modulus
    n = m.n
    actions = set()
    for g in generators:
        if type(g) is not ExtElement and type(g) is not JElement:
            raise TypeError(f"orbit expects group elements as generators, got {type(g).__name__}")
        p, a, b, modulus = g._c
        check_same_modulus(modulus, m)
        actions.add((p, a, b))
    x, y, z = seed.entries
    reps = {((x - z) % n, (y - z) % n): seed.entries}
    frontier = [seed.entries]
    h = n
    while frontier:
        nxt = []
        for v in frontier:
            for p, a, b in actions:
                w = _act(p, a, b, v, n)
                x, y, z = w
                line = ((x - z) % n, (y - z) % n)
                rep = reps.get(line)
                if rep is None:
                    reps[line] = w
                    nxt.append(w)
                else:
                    h = math.gcd(h, z - rep[2])
        frontier = nxt
    return {_vec3(((x + c) % n, (y + c) % n, (z + c) % n), m) for x, y, z in reps.values() for c in range(0, n, h)}


def stabilizer_of_set(group: Iterable[ExtElement], target: Iterable[Vec3]) -> list[ExtElement]:
    """All g in the group with g(target) == target setwise."""
    target_set = set(target)
    out = []
    for g in group:
        if {g.apply(v) for v in target_set} == target_set:
            out.append(g)
    return out


Sign = str  # "+" or "-"


class UTT(_Value):
    """A uniform triadic transformation <sign, t_major, t_minor> over Z/12."""

    __slots__ = ("sign", "t_major", "t_minor")

    def __new__(cls, sign: Sign, t_major: int, t_minor: int) -> "UTT":
        if sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        return _utt(sign, _integer(t_major, "t_major") % 12, _integer(t_minor, "t_minor") % 12)

    @classmethod
    def identity(cls) -> "UTT":
        return cls("+", 0, 0)

    @classmethod
    def parse(cls, text: str) -> "UTT":
        """Parse '<+,7,5>' (one pair of angle brackets or none, unicode minus accepted)."""
        body = text.strip()
        if body[:1] == "<" and body[-1:] == ">":
            body = body[1:-1]
        parts = [p.strip().replace("−", "-") for p in body.split(",")]
        if len(parts) != 3 or parts[0] not in ("+", "-") or "<" in body or ">" in body:
            raise ValueError(f"cannot parse triadic transformation {text!r}")
        return cls(parts[0], _ascii_int(parts[1]), _ascii_int(parts[2]))

    def apply(self, t: TriadId) -> TriadId:
        if type(t) is not TriadId:
            raise TypeError(f"UTT.apply expects a TriadId, got {type(t).__name__}")
        shift = self.t_major if t.mode is Mode.MAJOR else self.t_minor
        mode = t.mode
        if self.sign == "-":
            mode = Mode.MINOR if mode is Mode.MAJOR else Mode.MAJOR
        return TriadId(t.root + shift, mode)

    def __mul__(self, other: "UTT") -> "UTT":
        """self after other (other is applied first)."""
        if type(other) is not UTT:
            return NotImplemented
        sign = "+" if self.sign == other.sign else "-"
        if other.sign == "+":
            return UTT(sign, other.t_major + self.t_major, other.t_minor + self.t_minor)
        return UTT(sign, other.t_major + self.t_minor, other.t_minor + self.t_major)

    def inverse(self) -> "UTT":
        if self.sign == "+":
            return UTT("+", -self.t_major, -self.t_minor)
        return UTT("-", -self.t_minor, -self.t_major)

    def __str__(self) -> str:
        return f"<{self.sign},{self.t_major},{self.t_minor}>"


_utt = UTT._make  # sign '+' or '-', shifts already in [0, 12)


def all_utts() -> list[UTT]:
    return [_utt(s, m, n) for s in ("+", "-") for m in range(12) for n in range(12)]


def is_in_hook(e: ExtElement) -> bool:
    """Stabilizing root position forces sigma = id on the mode-preserving half
    and sigma = (13) on the mode-reversing half."""
    if type(e) is not ExtElement:
        raise TypeError(f"is_in_hook expects an ExtElement, got {type(e).__name__}")
    p, _, _, modulus = e._c
    return modulus.n == 12 and p in _GROUP_POINTS["hook"]


def _require_hook(e: ExtElement, caller: str) -> None:
    if type(e) is not ExtElement:
        raise TypeError(f"{caller} expects an ExtElement, got {type(e).__name__}")
    if not is_in_hook(e):
        raise NotInGroup(f"{e} does not preserve root-position triads")


def hook_elements() -> list[ExtElement]:
    """All 288 elements: (UV)^m (UW)^n and (13) U (UV)^m (UW)^n."""
    return _enumerate(ExtElement, _GROUP_POINTS["hook"], _TWELVE)


def rho(u: UTT) -> ExtElement:
    """Realize a triadic transformation as a Hook-group element (see _FIFTH)."""
    if type(u) is not UTT:
        raise TypeError(f"rho expects a UTT, got {type(u).__name__}")
    k = 1 if u.sign == "-" else 0
    # the two shifts differ by (MAJOR_THIRD - MINOR_THIRD)(n - k)
    d = (u.t_minor - u.t_major) * _THIRDS_GAP_INVERSE
    m = _FIFTH_INVERSE * (u.t_major - _MINOR_THIRD * d)
    return ExtElement._make((_GROUP_POINTS["hook"][k], m % 12, (d + k) % 12, _TWELVE))


def rho_inverse(e: ExtElement) -> UTT:
    """Read <s, a, b> off a Hook element's normal form: its two root shifts (see _FIFTH)."""
    _require_hook(e, "rho_inverse")
    p, m, n, _ = e._c
    k = p & 1
    shift = _FIFTH * m
    u = UTT("-" if k else "+", shift + _MINOR_THIRD * (n - k), shift + _MAJOR_THIRD * (n - k))
    if rho(u) != e:
        raise RuntimeError(f"rho({u}) = {rho(u)} does not equal {e}")
    return u


def hook_normal_form_B(e: ExtElement) -> tuple[int, int]:
    """(p, n) with e == ((13)U)^p (UW)^n, p in [0,24), n in [0,12).

    ((13)U)^2q = (UV)^-q and ((13)U)^(2q+1) = (13)U(UV)^-q, so the parity of p
    is the mode parity and p // 2 is minus the (UV) exponent.
    """
    _require_hook(e, "hook_normal_form_B")
    p, m, n, _ = e._c
    return (2 * (-m % 12) + (p & 1), n)


def hook_from_normal_form_B(p: int, n: int) -> ExtElement:
    q, k = divmod(_integer(p, "p") % 24, 2)
    return ExtElement._make((_GROUP_POINTS["hook"][k], -q % 12, _integer(n, "n") % 12, _TWELVE))


def wreath_generators() -> tuple[ExtElement, ExtElement, ExtElement]:
    """(E, F, G): E = (13)W swaps the two root-translation directions, F
    translates root-position majors by 1 fixing minors, G the reverse."""
    e = ExtElement(TRANSPOSITION_13, JElement(1, 0, 1, _TWELVE))
    f = ExtElement.from_j(JElement(0, 4, -1, _TWELVE))
    g = ExtElement.from_j(JElement(0, 3, 1, _TWELVE))
    return e, f, g
