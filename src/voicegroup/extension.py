"""The permutation extension of the voicing group.

Elements are pairs (sigma, j) with matrix P_sigma * M_j. Conjugating a
reflection by a voice permutation relabels its entry pair,

    sigma J^{r,s} sigma^-1 = J^{sigma r, sigma s},

which is what makes the product of two pairs expressible again as a pair:

    (sa, ja) * (sb, jb) = (sa*sb, (sb^-1 ja sb) * jb)

Conjugation by sigma is the automorphism fixed by the images of U, UV and UW,
so a six-row table (one row per sigma, read off sigma_conjugate_generator) gives

    sigma U^k (UV)^m (UW)^n sigma^-1 = U^k (UV)^(am + bn + ke) (UW)^(cm + dn + kf).

The twelve pairs p = (sigma, k) name the cosets of the translations
T = {(UV)^m (UW)^n}, so in the coordinates t = (m, n) a product is

    (p, t) * (q, s) = (pq, A t + c + s),

with A and c read off the conjugation row of sigma_q^-1 (negated when k_q = 1).
A 144-entry table keyed by (p, q), derived from that row at import, holds pq,
A and c, so a product is one lookup and two affine lines mod n.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .modring import Modulus, Residue, as_modulus, check_same_modulus
from .linalg import ALL_PERMS, Mat3, Perm3, Vec3
from .voicing import (
    _BASES,
    _GENERATOR_EXPONENTS,
    Generator,
    JElement,
    _act,
    _sigma_j_decode,
    _sigma_j_matrix,
    enumerate_J,
    generator_for_pair,
    word_to_element,
)


class NotInExtension(ValueError):
    """The matrix is not in the extended voicing group."""


class CosetTag(enum.Enum):
    J_PLUS = "j+"
    J_MINUS = "j-"
    SIGMA_J_PLUS = "sigma-j+"
    SIGMA_J_MINUS = "sigma-j-"


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


_CONJUGATION = {sigma: _conjugation_row(sigma) for sigma in ALL_PERMS}
# The translation row (-m, -n, m+n) of P_sigma M_j sums to 0, so the trace is tr(P_sigma M_{U^k}).
_TRACES = {key: sum(rows[i][i] for i in range(3)) for key, rows in _BASES.items()}
_PERM_INDEX = {sigma.image: i for i, sigma in enumerate(ALL_PERMS)}
_PERM_ORDER = {
    sigma.image: {"identity": 1, "transposition": 2, "three_cycle": 3}[sigma.cycle_type()]
    for sigma in ALL_PERMS
}
_PERM_BY_IMAGE = {sigma.image: sigma for sigma in ALL_PERMS}
_IDENTITY_PERM = _PERM_BY_IMAGE[1, 2, 3]
# sigma^-1 in slot i holds slots[i] + 1 (Perm3.inverse), here on plain tuples
_INVERSE_PERM = {sigma.image: _PERM_BY_IMAGE[tuple(i + 1 for i in sigma.slots)] for sigma in ALL_PERMS}


def _product_table() -> dict:
    """(image_p, k_p, image_q, k_q) -> (sigma_pq, k_pq, a, b, c, d, e, f) with

        sigma_p U^kp (UV)^m (UW)^n * sigma_q U^kq (UV)^m' (UW)^n'
          = sigma_pq U^kpq (UV)^(am + bn + e + m') (UW)^(cm + dn + f + n').

    Moving sigma_q left past the first factor conjugates it by sigma_q^-1, and
    moving U^kq left negates the translation when kq = 1. So for the
    conjugation row (e, f, a, b, c, d) of sigma_q^-1 and s = (-1)^kq, the
    entry holds s (a, b, c, d, kp e, kp f).
    """
    rows = {sigma.image: row for sigma, row in _CONJUGATION.items()}
    table = {}
    for p in _PERM_BY_IMAGE:
        for q in _PERM_BY_IMAGE:
            pq = _PERM_BY_IMAGE[p[q[0] - 1], p[q[1] - 1], p[q[2] - 1]]
            e, f, a, b, c, d = rows[_INVERSE_PERM[q].image]
            for kq, s in ((0, 1), (1, -1)):
                table[p, 0, q, kq] = (pq, kq, s * a, s * b, s * c, s * d, 0, 0)
                table[p, 1, q, kq] = (pq, 1 - kq, s * a, s * b, s * c, s * d, s * e, s * f)
    return table


_PRODUCTS = _product_table()


def conjugate_j(sigma: Perm3, j: JElement) -> JElement:
    """sigma j sigma^-1, read off the conjugation table."""
    e, f, a, b, c, d = _CONJUGATION[sigma]
    k, m, n = j.k, j.m, j.n
    return JElement(k, a * m + b * n + k * e, c * m + d * n + k * f, j.modulus)


@dataclass(frozen=True)
class ExtElement:
    """A pair (sigma, j); distinct pairs are distinct elements."""

    sigma: Perm3
    j: JElement

    @property
    def modulus(self) -> Modulus:
        return self.j.modulus

    @classmethod
    def identity(cls, modulus: Modulus | int) -> "ExtElement":
        return cls(_IDENTITY_PERM, JElement.identity(as_modulus(modulus)))

    @classmethod
    def from_j(cls, j: JElement) -> "ExtElement":
        return cls(_IDENTITY_PERM, j)

    @classmethod
    def from_sigma(cls, sigma: Perm3, modulus: Modulus | int) -> "ExtElement":
        return cls(sigma, JElement.identity(as_modulus(modulus)))

    def is_identity(self) -> bool:
        return self.sigma.is_identity() and self.j.is_identity()

    def is_mode_reversing(self) -> bool:
        return self.j.k == 1

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        x, y = self.j, other.j
        modulus = check_same_modulus(x.modulus, y.modulus)
        sigma, k, a, b, c, d, e, f = _PRODUCTS[self.sigma.image, x.k, other.sigma.image, y.k]
        nn, m, n = modulus.n, x.m, x.n
        return ExtElement(
            sigma, JElement(k, (a * m + b * n + e + y.m) % nn, (c * m + d * n + f + y.n) % nn, modulus)
        )

    def inverse(self) -> "ExtElement":
        """(p, t)^-1 = (p^-1, -(A t + c)), with A and c from the (p, p^-1) row."""
        x, image = self.j, self.sigma.image
        sigma = _INVERSE_PERM[image]
        _, _, a, b, c, d, e, f = _PRODUCTS[image, x.k, sigma.image, x.k]
        nn, m, n = x.modulus.n, x.m, x.n
        return ExtElement(
            sigma, JElement(x.k, -(a * m + b * n + e) % nn, -(c * m + d * n + f) % nn, x.modulus)
        )

    def _powers(self) -> list["ExtElement"]:
        """[self, self^2, ..., self^s] for s the order of sigma; self^s lies in J."""
        out = [self]
        for _ in range(_PERM_ORDER[self.sigma.image] - 1):
            out.append(out[-1] * self)
        return out

    def __pow__(self, t: int) -> "ExtElement":
        """self^t = (self^s)^(t div s) * self^(t mod s), the first factor in J."""
        powers = self._powers()
        q, r = divmod(t, len(powers))
        head = ExtElement.from_j(powers[-1].j ** q)
        return head * powers[r - 1] if r else head

    def order(self) -> int:
        """The sigma part's order s divides the order, and self**s lies in J."""
        powers = self._powers()
        return len(powers) * powers[-1].j.order()

    def matrix(self) -> Mat3:
        """P_sigma M_j: row sigma(i) of the product is row i of M_j."""
        return _sigma_j_matrix(self.sigma, self.j)

    def apply(self, v: Vec3) -> Vec3:
        j = self.j
        check_same_modulus(j.modulus, v.modulus)
        return Vec3(_act(self.sigma.slots, j.k, j.m, j.n, v.entries, v.modulus.n), v.modulus)

    def trace(self) -> Residue:
        return Residue(_TRACES[self.sigma, self.j.k], self.modulus)

    def sort_key(self) -> tuple[int, int, int, int]:
        return (_PERM_INDEX[self.sigma.image],) + self.j.sort_key()

    def __str__(self) -> str:
        parts = []
        if not self.sigma.is_identity():
            parts.append(self.sigma.cycle_notation())
        if not self.j.is_identity() or self.sigma.is_identity():
            parts.append(str(self.j))
        return " ".join(parts)


def ext_decode(m: Mat3) -> ExtElement:
    """The unique (sigma, j) with P_sigma * M_j == m, read off its row differences."""
    found = _sigma_j_decode(m)
    if found is None:
        raise NotInExtension(f"matrix {m} is not in the extended voicing group mod {m.modulus.n}")
    return ExtElement(*found)


def trace(a: ExtElement) -> Residue:
    return a.trace()


def enumerate_extension(modulus: Modulus | int) -> list[ExtElement]:
    """All 6 * 2n^2 elements, in sort-key order."""
    m = as_modulus(modulus)
    return [ExtElement(sigma, j) for sigma in ALL_PERMS for j in enumerate_J(m)]


def enumerate_coset(tag: CosetTag, modulus: Modulus | int) -> list[ExtElement]:
    """The mode-preserving/-reversing halves of the group and of its plain part."""
    m = as_modulus(modulus)
    sigmas = (
        (Perm3.identity(),)
        if tag in (CosetTag.J_PLUS, CosetTag.J_MINUS)
        else ALL_PERMS
    )
    k = 0 if tag in (CosetTag.J_PLUS, CosetTag.SIGMA_J_PLUS) else 1
    return [
        ExtElement(sigma, JElement(k, mm, nn, m))
        for sigma in sigmas
        for mm in range(m.n)
        for nn in range(m.n)
    ]


def _span(g1: tuple[int, int], g2: tuple[int, int], n: int) -> list[tuple[int, int]]:
    """The subgroup of (Z/n)^2 generated by g1 and g2, each element listed once."""
    cyclic, x = [], (0, 0)
    while True:
        cyclic.append(x)
        x = ((x[0] + g1[0]) % n, (x[1] + g1[1]) % n)
        if x == (0, 0):
            break
    # for the least t > 0 with t*g2 in <g1>, the cosets i*g2 + <g1>, 0 <= i < t, are disjoint
    members, steps, y = set(cyclic), [(0, 0)], (g2[0] % n, g2[1] % n)
    while y not in members:
        steps.append(y)
        y = ((y[0] + g2[0]) % n, (y[1] + g2[1]) % n)
    return [((a + c) % n, (b + d) % n) for c, d in steps for a, b in cyclic]


def _translation_class(b: ExtElement) -> list[ExtElement]:
    """{s b s^-1 : s in T} = b * (phi_b - 1)T, where phi_b(s) = b^-1 s b and T = {(UV)^m (UW)^n}."""
    m = b.modulus
    b_inv = b.inverse()
    e1, e2 = (
        (b_inv * ExtElement.from_j(JElement(0, *t, m)) * b).j for t in ((1, 0), (0, 1))
    )
    sigma, j = b.sigma, b.j
    return [
        ExtElement(sigma, JElement(j.k, j.m + dm, j.n + dn, m))
        for dm, dn in _span((e1.m - 1, e1.n), (e2.m, e2.n - 1), m.n)
    ]


def conjugacy_class(a: ExtElement, within: str = "extension") -> set[ExtElement]:
    """{g a g^-1} over the chosen group, listed in time proportional to its size.

    The translations T = {(UV)^m (UW)^n} are normal with coset representatives
    tau = sigma U^k (all twelve for the extension, Id and U for J). For s in T,
    s b s^-1 = b (phi_b(s) - s) with phi_b(s) = b^-1 s b linear on T, so the
    T-class of b is the coset b (phi_b - 1)T, and the class of a is the disjoint
    union of the T-classes of the tau a tau^-1.
    """
    m = a.modulus
    if within == "J":
        taus = [ExtElement.from_j(JElement(k, 0, 0, m)) for k in (0, 1)]
    elif within == "extension":
        taus = [ExtElement(sigma, JElement(k, 0, 0, m)) for sigma in ALL_PERMS for k in (0, 1)]
    else:
        raise ValueError(f"within must be 'J' or 'extension', got {within!r}")
    out: set[ExtElement] = set()
    for tau in taus:
        b = tau * a * tau.inverse()
        if b not in out:  # T-classes partition the class
            out.update(_translation_class(b))
    return out


_TOKEN = re.compile(
    r"""
    \(\s*(?P<cycle>[123](?:\s*[123]){1,2})\s*\)   # permutation cycle, digits only
  | (?P<power>\(\s*(?P<word>[UVW]+)\s*\)(?:\^(?P<exp>-?\d+))?)   # parenthesized word with power
  | (?P<letter>[UVW])
  | (?P<id>Id)
  | (?P<space>\s+)
    """,
    re.VERBOSE,
)


def _factor(match: re.Match, m: Modulus) -> ExtElement | None:
    """The factor a token stands for; None for spaces and Id."""
    kind = match.lastgroup  # an enclosing group closes last, so "power", never "word"
    if kind == "cycle":
        digits = re.sub(r"\s", "", match.group("cycle"))
        return ExtElement.from_sigma(Perm3.from_cycle(f"({digits})"), m)
    if kind == "power":
        j = word_to_element(match.group("word"), m)
        exp = match.group("exp")
        return ExtElement.from_j(j ** int(exp) if exp else j)
    if kind == "letter":
        return ExtElement.from_j(JElement.from_generator(Generator[match.group("letter")], m))
    return None


def parse_element(text: str, modulus: Modulus | int) -> ExtElement:
    """Parse forms like '(13) U (UV)^2 (UW)^7', 'VW', '(12)U(UV)^3', 'Id'.

    Cycles carry no commas (permutations), and any interleaving of permutation
    and generator factors is accepted; the result is their ordered product,
    folded from the first factor. Empty text and 'Id' are the identity.
    """
    m = as_modulus(modulus)
    acc = None
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot parse element {text!r} at position {pos}")
        pos = match.end()
        factor = _factor(match, m)
        if factor is not None:
            acc = factor if acc is None else acc * factor
    return ExtElement.identity(m) if acc is None else acc
