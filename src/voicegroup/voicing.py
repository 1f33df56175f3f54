"""The group of voicing reflections over Z/n.

The three generators act on a 3-tuple by reflecting every entry across the
axis determined by two of its own entries:

    U(x,y,z) = (y, x, -z+x+y)        reflection in entries 1,2
    V(x,y,z) = (-x+y+z, z, y)        reflection in entries 2,3
    W(x,y,z) = (z, -y+x+z, x)        reflection in entries 3,1

Every product of generators has a unique normal form U^k (UV)^m (UW)^n with
k in {0,1} and m, n taken mod n, which this module uses as the canonical
element representation: multiplication, inversion and application are O(1)
in these coordinates, and matrices are derived views.

Moduli 2 is rejected: over Z/2 the reflections satisfy the extra relation
U = VW, the generated matrix group collapses to a Klein 4-group of order 4,
and (k, m, n) stops being a coordinate system.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from .modring import Modulus, as_modulus, check_same_modulus
from .linalg import ALL_PERMS, Mat3, Perm3, Vec3


class NotInJ(ValueError):
    """The matrix is not in the voicing-reflection group."""


class Generator(enum.Enum):
    """One of the three voicing reflections, tagged by its entry pair."""

    U = (1, 2)
    V = (2, 3)
    W = (3, 1)

    @property
    def pair(self) -> tuple[int, int]:
        return self.value

    def __str__(self) -> str:
        return self.name


_GENERATOR_ROWS = {
    Generator.U: ((0, 1, 0), (1, 0, 0), (1, 1, -1)),
    Generator.V: ((-1, 1, 1), (0, 0, 1), (0, 1, 0)),
    Generator.W: ((0, 0, 1), (1, -1, 1), (1, 0, 0)),
}

_PAIR_TO_GENERATOR = {frozenset(g.pair): g for g in Generator}

# (m, n) of each generator's normal form U (UV)^m (UW)^n: V = U (UV), W = U (UW).
_GENERATOR_EXPONENTS = {Generator.U: (0, 0), Generator.V: (1, 0), Generator.W: (0, 1)}


def generator_matrix(g: Generator, modulus: Modulus | int) -> Mat3:
    """Matrix of a generator, entries normalized mod n."""
    return Mat3.of(_GENERATOR_ROWS[g], as_modulus(modulus))


def generator_for_pair(r: int, s: int) -> Generator:
    """The reflection determined by the unordered entry pair {r, s}."""
    if r == s:
        raise ValueError("reflection needs two distinct entry indices")
    try:
        return _PAIR_TO_GENERATOR[frozenset((r, s))]
    except KeyError:
        raise ValueError(f"entry indices must be in {{1,2,3}}, got ({r},{s})") from None


def j_reflection(r: int, s: int, v: Vec3) -> Vec3:
    """Reflect every entry of v across the axis of entries r and s: e -> -e + v_r + v_s."""
    if r == s:
        raise ValueError("reflection needs two distinct entry indices")
    if not {r, s} <= {1, 2, 3}:
        raise ValueError(f"entry indices must be in {{1,2,3}}, got ({r},{s})")
    axis = v.entries[r - 1] + v.entries[s - 1]
    return Vec3(tuple(-e + axis for e in v.entries), v.modulus)


def _require_group_modulus(m: Modulus) -> Modulus:
    if m.n < 3:
        raise ValueError(
            "voicing-group normal forms need modulus >= 3 "
            "(over Z/2 the generators satisfy U = VW and the group collapses)"
        )
    return m


@dataclass(frozen=True)
class JElement:
    """Normal form U^k (UV)^m (UW)^n; the canonical coordinates of the group.

    Multiplication follows from moving U past the commuting block, where
    U-conjugation inverts it:

        (k1,m1,n1)*(k2,m2,n2) = (k1 xor k2, m2 + (-1)^k2 m1, n2 + (-1)^k2 n1)

    The formula is exercised against the matrix-product oracle in the tests.
    """

    k: int
    m: int
    n: int
    modulus: Modulus

    def __post_init__(self):
        if not isinstance(self.modulus, Modulus):
            object.__setattr__(self, "modulus", as_modulus(self.modulus))
        _require_group_modulus(self.modulus)
        if self.k not in (0, 1):
            raise ValueError(f"k must be 0 or 1, got {self.k}")
        nn, m, n = self.modulus.n, self.m, self.n
        # re-reduce only what is not an int in [0, nn) already; a bool is not,
        # so True is stored as 1
        if type(m) is not int or not 0 <= m < nn:
            object.__setattr__(self, "m", int(m) % nn)
        if type(n) is not int or not 0 <= n < nn:
            object.__setattr__(self, "n", int(n) % nn)

    @classmethod
    def identity(cls, modulus: Modulus | int) -> "JElement":
        return cls(0, 0, 0, as_modulus(modulus))

    @classmethod
    def from_generator(cls, g: Generator, modulus: Modulus | int) -> "JElement":
        return cls(1, *_GENERATOR_EXPONENTS[g], as_modulus(modulus))

    def is_identity(self) -> bool:
        return self.k == 0 and self.m == 0 and self.n == 0

    def is_mode_reversing(self) -> bool:
        return self.k == 1

    def __mul__(self, other: "JElement") -> "JElement":
        check_same_modulus(self.modulus, other.modulus)
        sign = -1 if other.k else 1
        return JElement(
            self.k ^ other.k,
            other.m + sign * self.m,
            other.n + sign * self.n,
            self.modulus,
        )

    def inverse(self) -> "JElement":
        if self.k:
            return self  # every mode-reversing element is an involution
        return JElement(0, -self.m, -self.n, self.modulus)

    def __pow__(self, t: int) -> "JElement":
        if t < 0:
            return self.inverse() ** (-t)
        if self.k:
            return self if t % 2 else JElement.identity(self.modulus)
        return JElement(0, self.m * t, self.n * t, self.modulus)

    def order(self) -> int:
        """Least t >= 1 with self**t == identity: mode-reversing elements are
        involutions, and (UV)^m (UW)^n has the additive order of (m, n) in (Z/n)^2."""
        if self.k:
            return 2
        nn = self.modulus.n
        return nn // math.gcd(self.m, self.n, nn)

    def matrix(self) -> Mat3:
        return normal_form_matrix(self)

    def apply(self, v: Vec3) -> Vec3:
        return apply(self, v)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.k, self.m, self.n)

    def __str__(self) -> str:
        parts = []
        if self.k:
            parts.append("U")
        if self.m:
            parts.append(f"(UV)^{self.m}")
        if self.n:
            parts.append(f"(UW)^{self.n}")
        return " ".join(parts) if parts else "Id"


# P_sigma M_j is P_sigma M_{U^k} + 1 (-m, -n, m+n), so its row differences name (sigma, k) and its
# first row gives (m, n); the twelve patterns have entries -1, 0, 1 and stay distinct mod n >= 3.
_BASES = {
    (sigma, k): sigma.apply(rows)
    for sigma in ALL_PERMS
    for k, rows in enumerate((((1, 0, 0), (0, 1, 0), (0, 0, 1)), _GENERATOR_ROWS[Generator.U]))
}


def _row_differences(rows) -> tuple[int, ...]:
    return tuple(b - a for row in rows[1:] for a, b in zip(rows[0], row))


_BY_DIFFERENCES = {_row_differences(rows): key for key, rows in _BASES.items()}


def _sigma_j_matrix(sigma: Perm3, e: JElement) -> Mat3:
    """P_sigma M_e: the base P_sigma M_{U^k} plus the translation row in every row."""
    rows = tuple((a - e.m, b - e.n, c + e.m + e.n) for a, b, c in _BASES[sigma, e.k])
    return Mat3(rows, e.modulus)


def _sigma_j_decode(a: Mat3) -> tuple[Perm3, JElement] | None:
    """The unique (sigma, j) with P_sigma M_j == a, or None if there is none."""
    nn = _require_group_modulus(a.modulus).n
    # lift residues 0, 1 and n-1 to 0, 1 and -1; any other residue matches no key
    key = _BY_DIFFERENCES.get(tuple((d + 1) % nn - 1 for d in _row_differences(a.rows)))
    if key is None:
        return None
    sigma, k = key
    base = _BASES[key][0]
    e = JElement(k, base[0] - a.rows[0][0], base[1] - a.rows[0][1], a.modulus)
    return (sigma, e) if _sigma_j_matrix(sigma, e) == a else None


def normal_form_matrix(e: JElement) -> Mat3:
    """Closed-form matrix of a normal form (columns are the images of the basis)."""
    return _sigma_j_matrix(Perm3.identity(), e)


def decode(a: Mat3) -> JElement:
    """Invert normal_form_matrix; raises NotInJ if no (k, m, n) matches."""
    found = _sigma_j_decode(a)
    if found is None or not found[0].is_identity():
        raise NotInJ(f"matrix {a} is not a voicing-group element mod {a.modulus.n}")
    return found[1]


def word_to_element(word: Iterable[Generator | str] | str, modulus: Modulus | int) -> JElement:
    """Fold a generator word into its normal form, from its first letter; the
    empty word is the identity."""
    m = as_modulus(modulus)
    acc = None
    for letter in word:
        g = JElement.from_generator(Generator[letter] if isinstance(letter, str) else letter, m)
        acc = g if acc is None else acc * g
    return JElement.identity(m) if acc is None else acc


_IDENTITY_SLOTS = Perm3.identity().slots


def _act(slots: tuple[int, int, int], k: int, m: int, n: int, v: tuple[int, int, int], nn: int):
    """sigma U^k (UV)^m (UW)^n on a plain triple mod nn: the one action kernel.

    U^k (UV)^m (UW)^n shifts every entry by m(z-x) + n(z-y), after U when
    k = 1; sigma then moves the entries, slot i taking entry slots[i]
    (Perm3.slots).
    """
    x, y, z = v
    c = m * (z - x) + n * (z - y)
    w = (y + c, x + c, x + y - z + c) if k else (x + c, y + c, z + c)
    a, b, d = slots
    return (w[a] % nn, w[b] % nn, w[d] % nn)


def apply(e: JElement, v: Vec3) -> Vec3:
    """Action on a voicing: shift by m(z-x) + n(z-y), after U when k = 1."""
    check_same_modulus(e.modulus, v.modulus)
    return Vec3(_act(_IDENTITY_SLOTS, e.k, e.m, e.n, v.entries, v.modulus.n), v.modulus)


def enumerate_J(modulus: Modulus | int) -> list[JElement]:
    """All 2*n^2 normal forms, in sort-key order."""
    m = _require_group_modulus(as_modulus(modulus))
    return [
        JElement(k, mm, nn, m)
        for k in (0, 1)
        for mm in range(m.n)
        for nn in range(m.n)
    ]
