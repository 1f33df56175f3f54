"""The permutation extension of the voicing group.

Elements are pairs (sigma, j) with matrix P_sigma * M_j. Conjugating a
reflection by a voice permutation relabels its entry pair,

    sigma J^{r,s} sigma^-1 = J^{sigma r, sigma s},

which is what makes the product of two pairs expressible again as a pair:

    (sa, ja) * (sb, jb) = (sa*sb, (sb^-1 ja sb) * jb)

Conjugation by sigma is the automorphism fixed by the images of U, UV and UW,
so a six-row table (one row per sigma, read off sigma_conjugate_generator) gives

    sigma U^k (UV)^m (UW)^n sigma^-1 = U^k (UV)^(am + bn + ke) (UW)^(cm + dn + kf).

The twelve points p = (sigma, k) name the cosets of the translations
T = {(UV)^m (UW)^n}, so in the coordinates t = (m, n) a product is

    (p, t) * (q, s) = (pq, A t + c + s),

with A and c read off the conjugation row of sigma_q^-1 (negated when k_q = 1).
A 144-entry table keyed by (p, q), derived from that row at import, holds pq,
A and c, so a product is one lookup and two affine lines mod n. The table and
the element storage live in voicing.py, shared with the plain group.
"""

from __future__ import annotations

import re

from .modring import Modulus, as_modulus
from .linalg import _CYCLE_IMAGES, ALL_PERMS, Mat3, Perm3
from .voicing import (
    _BASES,
    _GROUP_POINTS,
    _LETTERS,
    _PRODUCTS,
    JElement,
    NotInGroup,
    _Element,
    _compose,
    _decode,
    _enumerate,
    _fold_word,
    _j_power,
    _point,
    _require_group_modulus,
)


# The translation row (-m, -n, m+n) of P_sigma M_j sums to 0, so the trace is tr(P_sigma M_{U^k}).
_TRACES = tuple(sum(rows[i][i] for i in range(3)) for rows in _BASES)


class ExtElement(_Element):
    """A pair (sigma, j); distinct pairs are distinct elements.

    Stored as the point of sigma U^k and the translation (m, n) of j; sigma
    and j are derived views.
    """

    __slots__ = ()

    def __new__(cls, sigma: Perm3, j: JElement) -> "ExtElement":
        k, m, n, modulus = j._c
        return cls._make((_point(sigma, k), m, n, modulus))

    @property
    def sigma(self) -> Perm3:
        return ALL_PERMS[self._c[0] >> 1]

    @property
    def j(self) -> JElement:
        p, m, n, modulus = self._c
        return JElement._make((p & 1, m, n, modulus))

    @classmethod
    def from_j(cls, j: JElement) -> "ExtElement":
        # the coordinates of j are those of the element at its point 0 or 1
        return cls._make(j._c)

    def trace(self) -> int:
        p, _, _, modulus = self._c
        return _TRACES[p] % modulus.n  # the table holds -1 for U


def ext_decode(m: Mat3) -> ExtElement:
    """The unique (sigma, j) with P_sigma * M_j == m, read off its row differences."""
    if type(m) is not Mat3:
        raise TypeError(f"ext_decode expects a Mat3, got {type(m).__name__}")
    e = _decode(ExtElement, m, _GROUP_POINTS["extension"])
    if e is None:
        raise NotInGroup(f"matrix {m} is not in the extended voicing group mod {m.modulus.n}")
    return e


def enumerate_extension(modulus: Modulus | int) -> list[ExtElement]:
    """All 6 * 2n^2 elements, in sort-key order."""
    return _enumerate(ExtElement, _GROUP_POINTS["extension"], modulus)


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
    """{s b s^-1 : s in T} for b = (p, t) and T = {(UV)^m (UW)^n}: the coset t + (A_p - 1)T.

    s b = (p, A_p s + t), with A_p the linear part of the point-product entry
    _PRODUCTS[0][p], and multiplying by s^-1 on the right subtracts s; so the
    coset is spanned by the columns of A_p - 1, and no element is multiplied.
    """
    p, bm, bn, m = b._c
    nn = m.n
    _, a11, a12, a21, a22, _, _ = _PRODUCTS[0][p]
    return [
        ExtElement._make((p, (bm + dm) % nn, (bn + dn) % nn, m))
        for dm, dn in _span((a11 - 1, a21), (a12, a22 - 1), nn)
    ]


def conjugacy_class(a: ExtElement, within: str = "extension") -> set[ExtElement]:
    """{g a g^-1} over the chosen group, listed in time proportional to its size.

    The translations T = {(UV)^m (UW)^n} are normal with coset representatives
    tau = sigma U^k (all twelve for the extension, Id and U for J). For b =
    (p, t) and s in T, s b = (p, A_p s + t) with A_p the 2x2 matrix the
    point-product table holds for p, so the T-class of b is the coset
    t + (A_p - 1)T (see _translation_class), and the class of a is the
    disjoint union of the T-classes of the tau a tau^-1.
    """
    if within not in ("J", "extension"):
        raise ValueError(f"within must be 'J' or 'extension', got {within!r}")
    m = a._c[3]
    out: set[ExtElement] = set()
    for p in _GROUP_POINTS[within]:
        tau = ExtElement._make((p, 0, 0, m))
        b = tau * a * tau.inverse()
        if b not in out:  # T-classes partition the class
            out.update(_translation_class(b))
    return out


# One factor and the whitespace after it; text.lstrip() drops what comes before
# the first, and str.isspace() is the set of characters \s matches.
_TOKEN = re.compile(
    r"""
    (?:
        \(\s*(?P<cycle>[123](?:\s*[123]){1,2})\s*\)   # permutation cycle, digits only
      | \(\s*(?P<word>[UVW]+)\s*\)(?:\^(?P<exp>-?[0-9]+))?   # parenthesized word with power
      | (?P<letter>[UVW])
      | Id
    )\s*
    """,
    re.VERBOSE,
)
# The point of each cycle, keyed by its digits in every rotation: '13' and '31' -> the point of (13).
_CYCLE_POINTS = {text[1:-1]: _point(Perm3(image), 0) for text, image in _CYCLE_IMAGES.items()}


def parse_element(text: str, modulus: Modulus | int) -> ExtElement:
    """Parse forms like '(13) U (UV)^2 (UW)^7', 'VW', '(12)U(UV)^3', 'Id'.

    Cycles carry no commas (permutations), and any interleaving of permutation
    and generator factors is accepted; the result is their ordered product.
    Each factor is read in one regex step together with the whitespace after
    it, as plain (point, m, n) ints: a cycle's point from a table keyed by its
    digits, a letter's translation from the generator table, and a power of a
    word from the word fold of word_to_element and the closed form of J
    powers. The factors are folded from the identity through the product
    kernel of `*`, and one element is built at the end. Empty text and 'Id'
    are the identity.
    """
    m = as_modulus(modulus)
    nn = m.n
    p = x = y = 0
    pos, end = len(text) - len(text.lstrip()), len(text)
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot parse element {text!r} at position {pos}")
        pos = match.end()
        cycle, word, exp, letter = match.groups()
        if letter:
            q, (a, b) = 1, _LETTERS[letter]
        elif cycle:
            digits = "".join(cycle.split())
            q, a, b = _CYCLE_POINTS.get(digits), 0, 0
            if q is None:  # two or three digits that name no permutation: from_cycle raises
                q = _point(Perm3.from_cycle(f"({digits})"), 0)
        elif word:
            q, a, b = _j_power(*_fold_word(word, nn), int(exp) if exp else 1, nn)
        else:
            continue
        if nn < 3:  # the first factor rejects the modulus, after its own text
            _require_group_modulus(m)
        p, x, y = _compose(p, x, y, q, a, b, nn)
    return ExtElement._make((p, x, y, _require_group_modulus(m)))
