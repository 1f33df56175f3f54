"""3-vectors, 3x3 matrices, voice permutations, and componentwise affine maps
over Z/n.

Vectors are columns and matrices act on the left. Permutations follow the
convention that the rightmost function is applied first, and sigma moves the
entry in slot j to slot sigma(j): sigma(x1,x2,x3) = (x_{sigma^-1 1},
x_{sigma^-1 2}, x_{sigma^-1 3}).
"""

from __future__ import annotations

import math
from operator import index
from typing import Sequence

from .modring import Modulus, Residue, _Value, _integer, as_modulus, check_same_modulus


class Vec3(_Value):
    """A 3-tuple over Z/n, entries normalized to [0, n); a float or a string
    entry is refused, not truncated or parsed."""

    __slots__ = ("entries", "modulus")

    def __new__(cls, entries: Sequence[int], modulus: Modulus | int) -> "Vec3":
        modulus = as_modulus(modulus)
        n = modulus.n
        try:
            e = tuple(index(v) % n for v in entries)
        except TypeError:
            # name the first entry that is not an integer
            for i, v in enumerate(entries):
                _integer(v, f"entries[{i}]")
            raise
        if len(e) != 3:
            raise ValueError(f"expected 3 entries, got {len(e)}")
        return _vec3(e, modulus)

    # hashed and compared in every orbit and solution set: on the ints, not the derived key
    def __eq__(self, other):
        if type(other) is not Vec3:
            return NotImplemented
        return self.entries == other.entries and self.modulus.n == other.modulus.n

    def __hash__(self):
        return hash((self.entries, self.modulus.n))

    @classmethod
    def of(cls, x: int, y: int, z: int, modulus: Modulus | int) -> "Vec3":
        return cls((x, y, z), modulus)

    def shift(self, c: int) -> "Vec3":
        """Add the constant c to every component."""
        n, c = self.modulus.n, _integer(c, "c")
        return _vec3(tuple((v + c) % n for v in self.entries), self.modulus)

    def __add__(self, other: "Vec3") -> "Vec3":
        n = check_same_modulus(self.modulus, other.modulus).n
        return _vec3(tuple((a + b) % n for a, b in zip(self.entries, other.entries)), self.modulus)

    def __sub__(self, other: "Vec3") -> "Vec3":
        n = check_same_modulus(self.modulus, other.modulus).n
        return _vec3(tuple((a - b) % n for a, b in zip(self.entries, other.entries)), self.modulus)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.entries) + ")"


_vec3 = Vec3._make  # three ints already in [0, n), as a tuple


class Mat3(_Value):
    """A 3x3 matrix over Z/n, row-major, entries normalized to [0, n); a float
    or a string entry is refused, not truncated or parsed."""

    __slots__ = ("rows", "modulus")

    def __new__(cls, rows: Sequence[Sequence[int]], modulus: Modulus | int) -> "Mat3":
        try:
            square = len(rows) == 3 and all(len(r) == 3 for r in rows)
        except TypeError:  # rows, or a row, that is not a sequence
            square = False
        if not square:
            raise ValueError("expected a 3x3 matrix")
        modulus = as_modulus(modulus)
        n = modulus.n
        try:
            return _mat3(tuple(tuple(index(v) % n for v in row) for row in rows), modulus)
        except TypeError:
            # name the first entry that is not an integer
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    _integer(v, f"rows[{i}][{j}]")
            raise

    # hashed and compared in every centralizer and listing: on the ints, not the derived key
    def __eq__(self, other):
        if type(other) is not Mat3:
            return NotImplemented
        return self.rows == other.rows and self.modulus.n == other.modulus.n

    def __hash__(self):
        return hash((self.rows, self.modulus.n))

    @classmethod
    def identity(cls, modulus: Modulus | int) -> "Mat3":
        return _mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), as_modulus(modulus))

    def __matmul__(self, other):
        if isinstance(other, Mat3):
            return mat_mul(self, other)
        if isinstance(other, Vec3):
            return mat_vec(self, other)
        return NotImplemented

    def trace(self) -> Residue:
        return Residue(sum(self.rows[i][i] for i in range(3)), self.modulus)

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(v) for v in r) + "]" for r in self.rows) + "]"


_mat3 = Mat3._make  # three row tuples of ints already in [0, n)


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    """Row i of ab is the matrix-action kernel of b's columns on row i of a."""
    check_same_modulus(a.modulus, b.modulus)
    n = a.modulus.n
    columns = tuple(zip(*b.rows))
    return _mat3(tuple(_mat_vec_ints(columns, row, n) for row in a.rows), a.modulus)


def _mat_vec_ints(rows, v: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    """rows . v mod n on plain integer rows and triples: the one matrix-action kernel."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    return ((a * x + b * y + c * z) % n, (d * x + e * y + f * z) % n, (g * x + h * y + i * z) % n)


def mat_vec(a: Mat3, v: Vec3) -> Vec3:
    check_same_modulus(a.modulus, v.modulus)
    return _vec3(_mat_vec_ints(a.rows, v.entries, a.modulus.n), a.modulus)


def _det_int(rows) -> int:
    """Cofactor-expansion determinant of integer rows, not reduced."""
    (r, s, t), (u, v, w), (x, y, z) = rows
    return r * (v * z - w * y) - s * (u * z - w * x) + t * (u * y - v * x)


def determinant(a: Mat3) -> Residue:
    """Cofactor-expansion determinant mod n."""
    return Residue(_det_int(a.rows), a.modulus)


def is_invertible(a: Mat3) -> bool:
    """Invertible over Z/n iff the determinant is a unit: gcd(det, n) == 1."""
    return math.gcd(_det_int(a.rows), a.modulus.n) == 1


_PERM_IMAGES = {
    "id": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}
# Every rotation of a cycle names the same permutation: '(21)' is (12), and
# '(231)' and '(312)' are (123). The canonical cycles above stay the printed form.
_CYCLE_IMAGES = {
    f"({text[1 + i:-1]}{text[1:1 + i]})": image
    for text, image in _PERM_IMAGES.items()
    if text != "id"
    for i in range(len(text) - 2)
}
# Slot i of sigma(v) holds entry sigma^-1(i + 1) - 1 of v: one index triple per image.
_SLOTS = {image: tuple(image.index(i) for i in (1, 2, 3)) for image in _PERM_IMAGES.values()}


class Perm3(_Value):
    """A permutation of {1, 2, 3}, stored as (sigma(1), sigma(2), sigma(3))."""

    __slots__ = ("image",)

    def __new__(cls, image: Sequence[int]) -> "Perm3":
        image = tuple(image)
        if tuple(sorted(image)) != (1, 2, 3):
            raise ValueError(f"not a permutation of {{1,2,3}}: {image}")
        return _perm3(image)

    @classmethod
    def identity(cls) -> "Perm3":
        return cls((1, 2, 3))

    @classmethod
    def from_cycle(cls, text: str) -> "Perm3":
        """Parse cycle notation: '(13)', '(123)', or any rotation of a cycle such
        as '(31)' or '(231)'; 'id', '()' and 'e' are the identity. Whitespace
        anywhere in the text is ignored, as in element text."""
        key = "".join(text.split())
        if key in ("id", "()", "e", ""):
            return cls.identity()
        image = _CYCLE_IMAGES.get(key)
        if image is None:
            raise ValueError(f"cannot parse permutation {text!r}")
        return _perm3(image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __mul__(self, other: "Perm3") -> "Perm3":
        """Composition, rightmost first: (self*other)(i) = self(other(i))."""
        image = self.image
        return _perm3(tuple(image[i - 1] for i in other.image))

    @property
    def slots(self) -> tuple[int, int, int]:
        """Slot i of sigma(v) is v[slots[i]]: the 0-based indices sigma^-1(i + 1) - 1."""
        return _SLOTS[self.image]

    def inverse(self) -> "Perm3":
        return _perm3(tuple(i + 1 for i in self.slots))

    def apply(self, triple):
        """Left action on 3-tuples: entry in slot j moves to slot sigma(j)."""
        if isinstance(triple, Vec3):
            return _vec3(self.apply(triple.entries), triple.modulus)
        a, b, c = self.slots
        return (triple[a], triple[b], triple[c])

    def is_identity(self) -> bool:
        return self.image == (1, 2, 3)

    def cycle_type(self) -> str:
        fixed = sum(1 for i in (1, 2, 3) if self(i) == i)
        if fixed == 3:
            return "identity"
        if fixed == 1:
            return "transposition"
        return "three_cycle"

    def cycle_notation(self) -> str:
        for text, image in _PERM_IMAGES.items():
            if image == self.image:
                return text
        raise AssertionError("unreachable")

    def __str__(self) -> str:
        return self.cycle_notation()


_perm3 = Perm3._make  # an image tuple that is already a permutation
ALL_PERMS: tuple[Perm3, ...] = tuple(Perm3(img) for img in _PERM_IMAGES.values())
TRANSPOSITION_12 = Perm3((2, 1, 3))
TRANSPOSITION_13 = Perm3((3, 2, 1))
TRANSPOSITION_23 = Perm3((1, 3, 2))


def perm_matrix(sigma: Perm3, modulus: Modulus | int) -> Mat3:
    """Matrix with columns e_{sigma(1)}, e_{sigma(2)}, e_{sigma(3)}."""
    m = as_modulus(modulus)
    rows = tuple(tuple(1 if sigma(j + 1) == i + 1 else 0 for j in range(3)) for i in range(3))
    return _mat3(rows, m)


class AffineMap(_Value):
    """x -> linear.x + translation, acting on Vec3 over a shared modulus."""

    __slots__ = ("linear", "translation")

    def __new__(cls, linear: Mat3, translation: Vec3) -> "AffineMap":
        check_same_modulus(linear.modulus, translation.modulus)
        return _affine(linear, translation)

    @property
    def modulus(self) -> Modulus:
        return self.linear.modulus

    def __call__(self, v: Vec3) -> Vec3:
        return mat_vec(self.linear, v) + self.translation

    def is_componentwise(self) -> bool:
        """True for maps x -> u*x + q applied in every coordinate."""
        u = self.linear.rows[0][0]
        diag = all(
            self.linear.rows[i][j] == (u if i == j else 0) for i in range(3) for j in range(3)
        )
        t = self.translation.entries
        return diag and t[0] == t[1] == t[2]

    def __str__(self) -> str:
        if self.is_componentwise():
            u = self.linear.rows[0][0]
            q = self.translation.entries[0]
            return f"x -> {u}x+{q}"
        return f"{self.linear} + {self.translation}"


_affine = AffineMap._make  # a matrix and a vector over one modulus


def scalar_affine(u: int, q: int, modulus: Modulus | int) -> AffineMap:
    """The componentwise map x -> u*x + q as an AffineMap."""
    m = as_modulus(modulus)
    u, q = _integer(u, "u") % m.n, _integer(q, "q") % m.n
    return _affine(_mat3(((u, 0, 0), (0, u, 0), (0, 0, u)), m), _vec3((q, q, q), m))
