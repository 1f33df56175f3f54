"""The group of voicing reflections over Z/n.

The three generators act on a 3-tuple by reflecting every entry across the
axis determined by two of its own entries:

    U(x,y,z) = (y, x, -z+x+y)        reflection in entries 1,2
    V(x,y,z) = (-x+y+z, z, y)        reflection in entries 2,3
    W(x,y,z) = (z, -y+x+z, x)        reflection in entries 3,1

Every product of generators has a unique normal form U^k (UV)^m (UW)^n with
k in {0,1} and m, n taken mod n. With the voice permutations of the extension
(see extension.py), sigma U^k (UV)^m (UW)^n is stored as its point
p = 2i + k, for sigma = ALL_PERMS[i], and its translation (m, n): the twelve
points name the cosets of the translations T = {(UV)^m (UW)^n}, and the plain
group is the points 0 and 1. One 12x12 point-product table makes
multiplication, inversion and powers O(1), and matrices are derived views.

Moduli 2 is rejected: over Z/2 the reflections satisfy the extra relation
U = VW, the generated matrix group collapses to a Klein 4-group of order 4,
and (k, m, n) stops being a coordinate system.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

from .modring import Modulus, _Value, _integer, as_modulus, check_same_modulus
from .linalg import ALL_PERMS, TRANSPOSITION_13, Mat3, Perm3, Vec3, _mat3, _permute, _vec3


class NotInGroup(ValueError):
    """A matrix or element is not in the group it was read in."""


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

# The centralizer family diag(a) + (n/2) * ones * w^T: every generator fixes the
# all-ones column, and the covectors w with w.J == w mod 2 for every generator J
# are the even-weight ones, so the factor n/2 kills the mod-2 defect. Odd n has w = 0 only.
_MOD2_FIXED_COVECTORS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def _centralizer_covectors(n: int) -> tuple[tuple[int, int, int], ...]:
    """The covectors w of the centralizer family over Z/n."""
    return _MOD2_FIXED_COVECTORS if n % 2 == 0 else _MOD2_FIXED_COVECTORS[:1]


def _centralizer_rows(a: int, w: tuple[int, int, int], n: int) -> tuple[tuple[int, int, int], ...]:
    """The rows of diag(a) + (n/2) * ones * w^T mod n: row i is a e_i + (n/2) w."""
    h0, h1, h2 = (n // 2 * c for c in w)
    return ((a + h0) % n, h1, h2), (h0, (a + h1) % n, h2), (h0, h1, (a + h2) % n)


_PAIR_TO_GENERATOR = {frozenset(g.pair): g for g in Generator}

# (m, n) of each generator's normal form U (UV)^m (UW)^n: V = U (UV), W = U (UW).
_GENERATOR_EXPONENTS = {Generator.U: (0, 0), Generator.V: (1, 0), Generator.W: (0, 1)}
# The same, keyed by generator and by name: the letters of a word.
_LETTERS = {**_GENERATOR_EXPONENTS, **{g.name: e for g, e in _GENERATOR_EXPONENTS.items()}}


def generator_matrix(g: Generator, modulus: Modulus | int) -> Mat3:
    """Matrix of a generator, entries normalized mod n."""
    if type(g) is not Generator:
        raise TypeError(f"generator_matrix expects a Generator, got {type(g).__name__}")
    return Mat3(_GENERATOR_ROWS[g], modulus)


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
    if type(v) is not Vec3:
        raise TypeError(f"j_reflection expects a Vec3, got {type(v).__name__}")
    if r == s:
        raise ValueError("reflection needs two distinct entry indices")
    if not {r, s} <= {1, 2, 3}:
        raise ValueError(f"entry indices must be in {{1,2,3}}, got ({r},{s})")
    axis, n = v.entries[r - 1] + v.entries[s - 1], v.modulus.n
    return _vec3(tuple((axis - e) % n for e in v.entries), v.modulus)


def _require_group_modulus(m: Modulus) -> Modulus:
    if m.n < 3:
        raise ValueError(
            "voicing-group normal forms need modulus >= 3 "
            "(over Z/2 the generators satisfy U = VW and the group collapses)"
        )
    return m


def sigma_conjugate_generator(sigma: Perm3, g: Generator) -> Generator:
    """sigma J^{r,s} sigma^-1 = J^{sigma r, sigma s} (entry pairs are unordered)."""
    r, s = g.pair
    return generator_for_pair(sigma(r), sigma(s))


def _conjugation_row(sigma: Perm3) -> tuple[int, int, int, int, int, int]:
    """(e, f, a, b, c, d) with sigma U sigma^-1 = U (UV)^e (UW)^f,
    sigma UV sigma^-1 = (UV)^a (UW)^c and sigma UW sigma^-1 = (UV)^b (UW)^d."""
    (e, f), (mv, nv), (mw, nw) = (
        _GENERATOR_EXPONENTS[sigma_conjugate_generator(sigma, g)] for g in Generator
    )
    # U (UV)^x (UW)^y * U (UV)^x' (UW)^y' = (UV)^(x'-x) (UW)^(y'-y)
    return e, f, mv - e, mw - e, nv - f, nw - f


_PERM_INDEX = {sigma.image: i for i, sigma in enumerate(ALL_PERMS)}


def _point(sigma: Perm3, k: int) -> int:
    """The point of sigma U^k: 2 * (index of sigma in ALL_PERMS) + k."""
    return 2 * _PERM_INDEX[sigma.image] + k


# The points of each named group, ascending, which is sort-key order: a group is
# every element at its points. J is Id and U, the extension all twelve, and the
# Hook group (see triadic.py) Id and (13) U, so that its point k has reflection bit k.
_GROUP_POINTS = {"J": (0, 1), "extension": range(12), "hook": (0, _point(TRANSPOSITION_13, 1))}


_CONJUGATION = [_conjugation_row(sigma) for sigma in ALL_PERMS]


def _product_table() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """_PRODUCTS[p][q] = (pq, a, b, c, d, e, f) with

        sigma_p U^kp (UV)^m (UW)^n * sigma_q U^kq (UV)^m' (UW)^n'
          = sigma_pq U^kpq (UV)^(am + bn + e + m') (UW)^(cm + dn + f + n').

    Moving sigma_q left past the first factor conjugates it by sigma_q^-1, and
    moving U^kq left negates the translation when kq = 1. So for the
    conjugation row (e, f, a, b, c, d) of sigma_q^-1 and s = (-1)^kq, the
    entry holds s (a, b, c, d, kp e, kp f). Permutations compose on their
    image tuples.
    """
    table = []
    for p in range(12):
        image_p, kp = ALL_PERMS[p >> 1].image, p & 1
        row = []
        for q in range(12):
            image_q, kq = ALL_PERMS[q >> 1].image, q & 1
            pq = 2 * _PERM_INDEX[tuple(image_p[i - 1] for i in image_q)] + (kp ^ kq)
            # sigma_q^-1 maps i to the position of i in sigma_q's image
            e, f, a, b, c, d = _CONJUGATION[_PERM_INDEX[tuple(image_q.index(i) + 1 for i in (1, 2, 3))]]
            s = -1 if kq else 1
            row.append((pq, s * a, s * b, s * c, s * d, s * kp * e, s * kp * f))
        table.append(tuple(row))
    return tuple(table)


_PRODUCTS = _product_table()
_INVERSE_POINTS = tuple([row[0] for row in rows].index(0) for rows in _PRODUCTS)


def _compose(p: int, m: int, n: int, q: int, m2: int, n2: int, nn: int) -> tuple[int, int, int]:
    """(p, (m, n)) * (q, (m2, n2)) mod nn on plain ints: the one product kernel."""
    pq, a, b, c, d, e, f = _PRODUCTS[p][q]
    return pq, (a * m + b * n + e + m2) % nn, (c * m + d * n + f + n2) % nn


def _j_power(k: int, m: int, n: int, t: int, nn: int) -> tuple[int, int, int]:
    """(U^k (UV)^m (UW)^n)^t mod nn: an involution when k = 1, else (0, t m, t n)."""
    if k:
        return (1, m, n) if t % 2 else (0, 0, 0)
    return 0, t * m % nn, t * n % nn


# P_sigma M_{U^k} for each point; the matrix of (p, (m, n)) adds the row (-m, -n, m+n) to every row.
# The row differences name p, and the twelve patterns have entries -1, 0, 1 and stay distinct mod n >= 3.
_BASES = tuple(
    _permute(sigma, rows) for sigma in ALL_PERMS for rows in (((1, 0, 0), (0, 1, 0), (0, 0, 1)), _GENERATOR_ROWS[Generator.U])
)
_SLOTS = tuple(sigma.slots for sigma in ALL_PERMS for _ in (0, 1))


def _row_differences(rows, nn: int) -> tuple[int, ...]:
    """Rows 1 and 2 less row 0 mod nn, with the residues 0, 1 and nn-1 lifted
    to 0, 1 and -1; any other residue matches no key of _BY_DIFFERENCES."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (d - a + 1) % nn - 1, (e - b + 1) % nn - 1, (f - c + 1) % nn - 1,
        (g - a + 1) % nn - 1, (h - b + 1) % nn - 1, (i - c + 1) % nn - 1,
    )


# the base differences are -1, 0 and 1, which every modulus >= 3 leaves as they are
_BY_DIFFERENCES = {_row_differences(rows, 3): p for p, rows in enumerate(_BASES)}


def _matrix_rows(p: int, m: int, n: int, nn: int) -> tuple[tuple[int, int, int], ...]:
    """The rows of the matrix of (p, (m, n)) mod nn: _BASES[p] plus (-m, -n, m+n) in every row."""
    (a, b, c), (d, e, f), (g, h, i) = _BASES[p]
    s = m + n
    return (
        ((a - m) % nn, (b - n) % nn, (c + s) % nn),
        ((d - m) % nn, (e - n) % nn, (f + s) % nn),
        ((g - m) % nn, (h - n) % nn, (i + s) % nn),
    )


class _Element(_Value):
    """sigma U^k (UV)^m (UW)^n, stored as one coordinate tuple
    _c = (point, m, n, modulus): its point p, its translation (m, n) and its
    modulus.

    The one storage of JElement (the points 0 and 1) and ExtElement (all
    twelve points), with every group operation written once, on the
    point-product table. The trusted constructor derived from the one slot
    (see modring._Value) takes the coordinate tuple and stores it in one
    write, and the library's own readers unpack _c once; point, m, n and
    modulus are read-only views of it. Values are immutable; two are equal
    when their class and coordinates agree (the derived comparison of _c,
    which compares moduli by n), and equal values hash equal.
    """

    __slots__ = ("_c",)

    point = property(lambda self: self._c[0], doc="2i + k, for sigma = ALL_PERMS[i]")
    m = property(lambda self: self._c[1], doc="the exponent of (UV), in [0, n)")
    n = property(lambda self: self._c[2], doc="the exponent of (UW), in [0, n)")
    modulus = property(lambda self: self._c[3], doc="the Modulus")

    # hashed in every orbit, listing and solution set: on plain ints, not through Modulus.__hash__
    def __hash__(self):
        p, m, n, modulus = self._c
        return hash((p, m, n, modulus.n))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r}, mod {self._c[3].n})"

    @property
    def k(self) -> int:
        return self._c[0] & 1

    def sort_key(self) -> tuple[int, int, int, int]:
        """(index of sigma in ALL_PERMS, k, m, n); a JElement's key is (0, k, m, n)."""
        p, m, n, _ = self._c
        return (p >> 1, p & 1, m, n)

    @classmethod
    def identity(cls, modulus: Modulus | int):
        return cls._make((0, 0, 0, _require_group_modulus(as_modulus(modulus))))

    def is_identity(self) -> bool:
        p, m, n, _ = self._c
        return not (p or m or n)

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        p, m, n, modulus = self._c
        q, m2, n2, other_modulus = other._c
        p, m, n = _compose(p, m, n, q, m2, n2, check_same_modulus(modulus, other_modulus).n)
        return cls._make((p, m, n, modulus))

    def inverse(self):
        """(p, t)^-1 = (p^-1, -(A t + c)), with A and c from the (p, p^-1) row."""
        p, m, n, modulus = self._c
        q = _INVERSE_POINTS[p]
        _, a, b, c, d, e, f = _PRODUCTS[p][q]
        nn = modulus.n
        return type(self)._make((q, -(a * m + b * n + e) % nn, -(c * m + d * n + f) % nn, modulus))

    def _powers(self) -> list[tuple[int, int, int]]:
        """The (point, m, n) of self, self^2, ..., self^s, folded on plain ints by
        _compose, for s the order of sigma (1, 2 or 3); self^s lies in J."""
        p, m, n, modulus = self._c
        nn = modulus.n
        out = [(p, m, n)]
        q, a, b = p, m, n
        while q > 1:
            q, a, b = _compose(q, a, b, p, m, n, nn)
            out.append((q, a, b))
        return out

    def __pow__(self, t: int):
        """self^t = (self^s)^(t div s) * self^(t mod s), where x = self^s lies in J
        and x^(t div s) is the closed form _j_power; one element is built."""
        powers = self._powers()
        q, r = divmod(_integer(t, "t"), len(powers))
        modulus = self._c[3]
        nn = modulus.n
        p, m, n = _j_power(*powers[-1], q, nn)
        if r:
            p, m, n = _compose(p, m, n, *powers[r - 1], nn)
        return type(self)._make((p, m, n, modulus))

    def order(self) -> int:
        """s times the order of x = self^s in J, for s the order of sigma: x is an
        involution when mode-reversing, else of the additive order of (m, n) in (Z/n)^2."""
        powers = self._powers()
        k, m, n = powers[-1]
        nn = self._c[3].n
        return len(powers) * (2 if k else nn // math.gcd(m, n, nn))

    def matrix(self) -> Mat3:
        """P_sigma M_{U^k} plus the translation row (-m, -n, m+n) in every row
        (columns are the images of the basis)."""
        p, m, n, modulus = self._c
        return _mat3(_matrix_rows(p, m, n, modulus.n), modulus)

    def apply(self, v: Vec3) -> Vec3:
        if type(v) is not Vec3:
            raise TypeError(f"{type(self).__name__}.apply expects a Vec3, got {type(v).__name__}")
        p, m, n, modulus = self._c
        check_same_modulus(modulus, v.modulus)
        return _vec3(_act(p, m, n, v.entries, v.modulus.n), v.modulus)

    def __str__(self) -> str:
        p, m, n, _ = self._c
        parts = [ALL_PERMS[p >> 1].cycle_notation()] if p > 1 else []
        if p & 1:
            parts.append("U")
        if m:
            parts.append(f"(UV)^{m}")
        if n:
            parts.append(f"(UW)^{n}")
        return " ".join(parts) if parts else "Id"


class JElement(_Element):
    """Normal form U^k (UV)^m (UW)^n; the canonical coordinates of the group.

    Multiplication follows from moving U past the commuting block, where
    U-conjugation inverts it:

        (k1,m1,n1)*(k2,m2,n2) = (k1 xor k2, m2 + (-1)^k2 m1, n2 + (-1)^k2 n1)

    which is the (k1, k2) entry of the point-product table. The tests check it
    against this formula written out, and against the matrix product.
    """

    __slots__ = ()

    def __new__(cls, k: int, m: int, n: int, modulus: Modulus | int) -> "JElement":
        modulus = _require_group_modulus(as_modulus(modulus))
        k = _integer(k, "k")
        if k not in (0, 1):
            raise ValueError(f"k must be 0 or 1, got {k}")
        nn = modulus.n
        # any integer type is stored as a plain int, m and n in [0, n); a float or a string is refused
        return cls._make((k, _integer(m, "m") % nn, _integer(n, "n") % nn, modulus))


def _decode(cls, a: Mat3, points):
    """The element of cls at one of the points whose matrix is a, or None: the
    row differences name the point, the first row gives (m, n), and rebuilding
    the rows on plain ints confirms it before the element is built."""
    nn = _require_group_modulus(a.modulus).n
    rows = a.rows
    p = _BY_DIFFERENCES.get(_row_differences(rows, nn))
    if p not in points:
        return None
    base, first = _BASES[p][0], rows[0]
    m, n = (base[0] - first[0]) % nn, (base[1] - first[1]) % nn
    return cls._make((p, m, n, a.modulus)) if _matrix_rows(p, m, n, nn) == rows else None


def _enumerate(cls, points, modulus: Modulus | int) -> list:
    """Every element at the given points, in sort-key order."""
    m = _require_group_modulus(as_modulus(modulus))
    return [cls._make((p, a, b, m)) for p in points for a in range(m.n) for b in range(m.n)]


def decode(a: Mat3) -> JElement:
    """Invert JElement.matrix; raises NotInGroup if no (k, m, n) matches."""
    if type(a) is not Mat3:
        raise TypeError(f"decode expects a Mat3, got {type(a).__name__}")
    e = _decode(JElement, a, _GROUP_POINTS["J"])
    if e is None:
        raise NotInGroup(f"matrix {a} is not a voicing-group element mod {a.modulus.n}")
    return e


def word_to_element(word: Iterable[Generator | str] | str, modulus: Modulus | int) -> JElement:
    """Fold a generator word (letters 'U', 'V', 'W' or Generator members) into
    its normal form, from its first letter; the empty word is the identity.

    The fold runs on plain ints (_fold_word) and builds one element at the
    end. Any other letter raises ValueError.
    """
    m = _require_group_modulus(as_modulus(modulus))
    return JElement._make((*_fold_word(word, m.n), m))


def _fold_word(word, nn: int) -> tuple[int, int, int]:
    """(k, m, n) mod nn of a generator word's normal form, folded from its first
    letter: each letter is U (UV)^a (UW)^b, and (k, m, n) * (1, a, b) =
    (1 - k, a - m, b - n). Any other letter raises ValueError."""
    k = x = y = 0
    for letter in word:
        try:
            a, b = _LETTERS[letter]
        except KeyError:
            raise ValueError(f"word letters must be U, V or W, got {letter!r}") from None
        k, x, y = 1 - k, a - x, b - y
    return k, x % nn, y % nn


def _act(p: int, m: int, n: int, v: tuple[int, int, int], nn: int):
    """The element (p, (m, n)) on a plain triple mod nn: the one action kernel.

    U^k (UV)^m (UW)^n shifts every entry by m(z-x) + n(z-y), after U when
    k = p & 1 is 1; sigma then moves the entries, slot i taking entry
    _SLOTS[p][i] (Perm3.slots).
    """
    x, y, z = v
    c = m * (z - x) + n * (z - y)
    w = (y + c, x + c, x + y - z + c) if p & 1 else (x + c, y + c, z + c)
    a, b, d = _SLOTS[p]
    return (w[a] % nn, w[b] % nn, w[d] % nn)


def enumerate_J(modulus: Modulus | int) -> list[JElement]:
    """All 2*n^2 normal forms, in sort-key order."""
    return _enumerate(JElement, _GROUP_POINTS["J"], modulus)
