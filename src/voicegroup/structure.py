"""Structural computations around the voicing group.

Centralizers and the orders of GL(3, Z/n) and SL(3, Z/n) are closed forms.
The budget still bounds the q^9 matrices over each prime-power factor q, so
`centralizer` and `count` keep their exit-3 contract: a modulus with a
prime-power factor q >= 7 (such as 7, 9 or 36) needs a budget above the
default.

The duality check and the restriction table are closed forms in the
seed's intervals, O(1) whatever n is, and walk no orbit; their docstrings
carry the proofs. The seed (0, a, b) and its T/I orbit form a dual pair
with a dihedral contextual group exactly when a, b or b - a is a unit mod
n: the Lewinian duality for trichords containing a generator of Z/n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

from .modring import DEFAULT_BUDGET, Modulus, as_modulus, units, _budget_gate, _prime_powers
from .linalg import ALL_PERMS, Mat3, Vec3, _affine, _mat3, _permute, _vec3
from .voicing import Generator, JElement, _require_group_modulus
from .voicing import _centralizer_covectors, _centralizer_rows, sigma_conjugate_generator


class Ambient(enum.Enum):
    M3 = "m3"
    GL3 = "gl3"
    AFF_MONOID = "aff"
    AFF_GROUP = "affx"


@dataclass(frozen=True)
class CentralizerReport:
    """Everything in the chosen ambient monoid/group commuting with the voicing group."""

    ambient: Ambient
    elements: tuple
    size: int

    def to_jsonable(self) -> dict:
        payload: dict = {"ambient": self.ambient.value, "size": self.size}
        if self.ambient in (Ambient.M3, Ambient.GL3):
            payload["matrices"] = [[list(r) for r in m.rows] for m in self.elements]
        else:
            payload["maps"] = [
                {
                    "matrix": [list(r) for r in f.linear.rows],
                    "translation": list(f.translation.entries),
                }
                for f in self.elements
            ]
        return payload


def center_of_J(modulus: Modulus | int) -> list[JElement]:
    """{(UV)^m (UW)^n : 2m = 2n = 0}, in sort-key order.

    No mode-reversing element is central for n >= 3, and U inverts the
    commuting block, so a central (UV)^m (UW)^n equals its own inverse.
    """
    m = _require_group_modulus(as_modulus(modulus))
    halves = (0, m.n // 2) if m.n % 2 == 0 else (0,)
    return [JElement._make((0, a, b, m)) for a in halves for b in halves]


def _centralizer_family(scalars: Sequence[int], m: Modulus) -> tuple[Mat3, ...]:
    """diag(a) + (n/2)*ones*w^T for each a in scalars and each covector w of
    the family (voicing._centralizer_covectors), sorted by rows.

    Distinct (a, w) give distinct matrices: the off-diagonal entries (n/2)*w
    fix w, and then the diagonal fixes a. Every w has even weight, so
    (n/2)(w . ones) = 0 mod n and the determinant is a^3 mod n: a member is
    invertible exactly when a is a unit.
    """
    n = m.n
    mats = [_mat3(_centralizer_rows(a, w, n), m) for a in scalars for w in _centralizer_covectors(n)]
    return tuple(sorted(mats, key=attrgetter("rows")))


def centralizer_in_M3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> CentralizerReport:
    """Monoid centralizer in all 3x3 matrices, sorted by rows.

    These are the matrices of monoid_centralizer_closed_form, which has 48
    elements over Z/12. The budget bounds the q^9 matrices over each
    prime-power factor q, so n = 7 needs a budget of at least 7**9.
    """
    m = as_modulus(modulus)
    _budget_gate(m.n, 9, budget)
    mats = _centralizer_family(range(m.n), m)
    return CentralizerReport(Ambient.M3, mats, len(mats))


def centralizer_in_GL3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> CentralizerReport:
    """Group centralizer: the members of the monoid centralizer whose scalar a
    is a unit (their determinant is a^3), sorted by rows, under the same
    budget."""
    m = as_modulus(modulus)
    _budget_gate(m.n, 9, budget)
    mats = _centralizer_family(units(m), m)
    return CentralizerReport(Ambient.GL3, mats, len(mats))


def monoid_centralizer_closed_form(modulus: Modulus | int) -> set[Mat3]:
    """Closed-form description of the full monoid commutant: the matrices
    diag(a) + (n/2)*ones*w^T, a in Z/n, with w ranging over the family's
    covectors (see voicing._MOD2_FIXED_COVECTORS): the even-weight ones for
    even n, only w = 0 (the scalar matrices) for odd n. The tests check this
    description against the solved commutator equations; over Z/12 it has 48
    elements (4n for even n, n for odd n).
    """
    m = as_modulus(modulus)
    return set(_centralizer_family(range(m.n), m))


def centralizer_in_Aff(
    modulus: Modulus | int, invertible_only: bool = False, budget: int = DEFAULT_BUDGET
) -> CentralizerReport:
    """Affine maps x -> Ax + (q,q,q) with A in the matrix centralizer.

    The translation must be constant-diagonal: a vector fixed by all three
    reflections has equal components.
    """
    m = as_modulus(modulus)
    base = centralizer_in_GL3(m, budget) if invertible_only else centralizer_in_M3(m, budget)
    translations = [_vec3((q, q, q), m) for q in range(m.n)]
    maps = tuple(_affine(a, t) for a in base.elements for t in translations)
    ambient = Ambient.AFF_GROUP if invertible_only else Ambient.AFF_MONOID
    return CentralizerReport(ambient, maps, len(maps))


def _gated_prime_powers(modulus: Modulus | int, budget: int) -> list[tuple[int, int]]:
    """The (p, q) pairs of n, factored once and passed through the budget gate
    on the q^9 matrices over each prime-power factor q."""
    n = as_modulus(modulus).n
    pairs = _prime_powers(n)
    _budget_gate(n, 9, budget, pairs=pairs)
    return pairs


def count_GL3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> int:
    """|GL(3, Z/n)|, from the product formula of gl3_order_closed_form.

    The budget bounds the q^9 matrices over each prime-power factor q.
    """
    return _gl3_order(_gated_prime_powers(modulus, budget))


def count_SL3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> int:
    """|SL(3, Z/n)|, from the product formula of sl3_order_closed_form.

    The budget bounds the q^9 matrices over each prime-power factor q.
    """
    return _sl3_order(_gated_prime_powers(modulus, budget))


def _gl3_order(pairs: list[tuple[int, int]]) -> int:
    return math.prod(q**9 // p**6 * (p - 1) * (p**2 - 1) * (p**3 - 1) for p, q in pairs)


def _sl3_order(pairs: list[tuple[int, int]]) -> int:
    return math.prod(q**8 // p**5 * (p**2 - 1) * (p**3 - 1) for p, q in pairs)


def gl3_order_closed_form(modulus: Modulus | int) -> int:
    """Product formula over prime powers q = p^a: q^9 (1-1/p)(1-1/p^2)(1-1/p^3)."""
    return _gl3_order(_prime_powers(as_modulus(modulus).n))


def sl3_order_closed_form(modulus: Modulus | int) -> int:
    """|SL| = |GL| / phi(n): the determinant maps GL(3, Z/n) onto the units. Over
    each prime power q = p^a, phi(q) = q (1-1/p), so the factor is
    q^8 (1-1/p^2)(1-1/p^3)."""
    return _sl3_order(_prime_powers(as_modulus(modulus).n))


def index_of_J(modulus: Modulus | int, ambient: str, budget: int = DEFAULT_BUDGET) -> int:
    """Index of the 2n^2-element voicing group in GL3 or SL3; division must be exact.

    Over Z/2 the voicing group collapses to 4 elements, not 2n^2 = 8, so
    n = 2 is refused as the normal forms refuse it."""
    m = _require_group_modulus(as_modulus(modulus))
    if ambient.upper() == "GL3":
        order = count_GL3(m, budget)
    elif ambient.upper() == "SL3":
        order = count_SL3(m, budget)
    else:
        raise ValueError(f"ambient must be 'GL3' or 'SL3', got {ambient!r}")
    j_size = 2 * m.n * m.n
    if order % j_size:
        raise ArithmeticError(
            f"|ambient| = {order} is not divisible by 2n^2 = {j_size}; counting bug upstream"
        )
    return order // j_size


def ti_orbit(seed: Vec3) -> list[Vec3]:
    """The orbit of seed under the T/I group, deterministically ordered."""
    if type(seed) is not Vec3:
        raise TypeError(f"ti_orbit expects a Vec3, got {type(seed).__name__}")
    x, y, z = seed.entries
    n = seed.modulus.n
    images = {((s * x + t) % n, (s * y + t) % n, (s * z + t) % n) for s in (1, -1) for t in range(n)}
    return [_vec3(w, seed.modulus) for w in sorted(images)]


def restrict_to_orbit(action: Callable[[Vec3], Vec3], orbit: Sequence[Vec3]) -> tuple[int, ...]:
    """The permutation (as an index tuple) an action induces on the orbit.

    `action` is a function from Vec3 to Vec3: `g.apply` for a group element,
    `f.apply` for an AffineMap, `m.__matmul__` for a Mat3.
    Raises ValueError if the orbit is not closed under the action.
    """
    index = {v: i for i, v in enumerate(orbit)}
    out = []
    for v in orbit:
        w = action(v)
        if w not in index:
            raise ValueError(f"orbit is not closed under the action: {v} -> {w}")
        out.append(index[w])
    return tuple(out)


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the dual-pair check on one T/I orbit.

    A dual pair needs: orbit of size 2n, both restricted groups simply
    transitive on it, and elementwise commutation between them. Together
    (for finite simply transitive commuting actions) these force each group
    to be the full centralizer of the other in the symmetric group on the
    orbit (Fiore and Satyendra, "Generalized contextual groups", Music
    Theory Online 11(3), 2005), so the report's conjunction is the dual-pair
    certificate. check_duality reads every field off the seed's intervals.
    """

    seed: Vec3
    orbit_size: int
    contextual_generator: str  # "UV", "UW" or "(UV)(UW)^-1": the translation-like generator used
    simply_transitive_contextual: bool
    simply_transitive_TI: bool
    mutually_commuting: bool
    is_dual_pair: bool


# The translation-like generators of a contextual group, by name, in the order
# of their shifts of (x, y, z): UV by z - x, UW by z - y, (UV)(UW)^-1 by y - x.
_CONTEXTUAL_GENERATORS = ("UV", "UW", "(UV)(UW)^-1")


def check_duality(seed: Vec3) -> DualityReport:
    """Compare the contextual and T/I groups on the seed's T/I orbit, in O(1).

    For the seed (x, y, z) mod n >= 3 let d1 = z - x, d2 = z - y and
    d3 = y - x, and write 1 for (1, 1, 1). The contextual group is <U, T>,
    T being the first of UV, UW and (UV)(UW)^-1 whose shift of the seed (d1,
    d2 or d3) is a unit mod n, or UV when none is; its name is the report's
    contextual_generator. Every field is read off the intervals:

    - orbit_size is n when 2 d1 = 2 d2 = 0 mod n, and 2n otherwise: no
      translation but the identity fixes the seed, and the inversion
      x -> t - x fixes it exactly when t = 2x = 2y = 2z.
    - simply_transitive_TI is orbit_size == 2n. The 2n T/I maps act on their
      own orbit transitively, so regularly when no map but the identity
      fixes the seed; an inversion that fixes the seed moves seed + c 1 to
      seed - c 1, another point for c = 1 since n >= 3.
    - mutually_commuting is always True. A T/I map x -> ux + q on every
      entry is u Id + q 1, which commutes with every linear map that fixes
      1, as every element of J does.
    - simply_transitive_contextual and is_dual_pair both say that some di is
      a unit. If one is, T moves the seed along its whole line seed + Z/n 1,
      and U acts on the seed as the inversion v -> (x + y) 1 - v, which
      keeps it on that line only if 2 d1 = 2 d2 = 2 d3 = 0, impossible for a
      unit when n >= 3. So the 2n elements U^k T^t send the seed to 2n
      distinct points: the group acts regularly on the 2n-point orbit, and
      all four conditions hold. If no di is a unit, T = UV shifts by d1 and
      g = gcd(d1, n) >= 2, so the contextual orbit has at most 2n/g <= n
      points, fewer than the T/I orbit unless g = 2 and orbit_size = n.
      Then 2 d1 = 0 makes d1 = n/2 = 2, so n = 4, and U seed = seed + d3 1
      with d3 even lies in the coset seed + {0, 2} 1 that T already covers.
      Either way the contextual group is not transitive on the orbit.

    The contextual group keeps the T/I orbit: U acts on any tuple w as the
    inversion v -> (w1 + w2) 1 - v and T as a translation, both T/I maps.
    n = 2 is refused as the normal forms refuse it.
    """
    if type(seed) is not Vec3:
        raise TypeError(f"check_duality expects a Vec3, got {type(seed).__name__}")
    n = _require_group_modulus(seed.modulus).n
    x, y, z = seed.entries
    d1, d2 = z - x, z - y
    unit = next((i for i, d in enumerate((d1, d2, y - x)) if math.gcd(d, n) == 1), None)
    orbit_size = n if 2 * d1 % n == 2 * d2 % n == 0 else 2 * n
    dual = unit is not None
    return DualityReport(
        seed=seed,
        orbit_size=orbit_size,
        contextual_generator=_CONTEXTUAL_GENERATORS[unit or 0],
        simply_transitive_contextual=dual,
        simply_transitive_TI=orbit_size == 2 * n,
        mutually_commuting=True,
        is_dual_pair=dual,
    )


def orbit_restriction_table(modulus: Modulus | int = 12) -> dict[tuple[int, int, int], dict[str, str]]:
    """Which locally-conjugated contextual operation each generator restricts to.

    For each of the six T/I orbits of the reorderings tau(0,4,7), generator
    g matches X in {P, L, R} (the contextual operations on the dualistic
    root-position orbit, realized there by W, V and U) when g agrees on the
    whole orbit with tau X tau^-1, again a reflection,
    sigma_conjugate_generator(tau, X). That is read off the orbit's
    representative in O(1). Two distinct reflections J^{ab} and J^{ac}
    share one index a, and J^{ab} v - J^{ac} v = (v_b - v_c)(1, 1, 1), so
    they agree on v exactly when v_b = v_c, which every T/I map keeps. So g
    matches X when it is tau X tau^-1, or when the two voices outside their
    shared index are equal in tau(0,4,7) mod n: exactly at n = 3, 4 and 7,
    the moduli dividing an interval of (0, 4, 7). The match is required to
    be unique; the first ambiguous one, taking tau in ALL_PERMS order, g in
    Generator order and the matches in P, L, R order, raises ValueError, and
    n = 2 is refused as the normal forms refuse it.
    """
    m = _require_group_modulus(as_modulus(modulus))
    base = Vec3.of(0, 4, 7, m).entries

    # On the dualistic root-position orbit the three reflections realize
    # P, L, R; these serve as the reference contextual operations.
    contextual = {"P": Generator.W, "L": Generator.V, "R": Generator.U}
    table: dict[tuple[int, int, int], dict[str, str]] = {}
    for tau in ALL_PERMS:
        rep = _permute(tau, base)
        conjugates = {name: set(sigma_conjugate_generator(tau, x).pair) for name, x in contextual.items()}
        column: dict[str, str] = {}
        for g in Generator:
            own = set(g.pair)
            # the voices outside the shared index: none when the conjugate is g, else two to compare
            matches = [name for name, pair in conjugates.items() if len({rep[i - 1] for i in pair ^ own}) < 2]
            if len(matches) != 1:
                raise ValueError(
                    f"generator {g} matches {matches!r} on orbit of {Vec3(rep, m)}; "
                    "expected exactly one"
                )
            column[g.name] = matches[0]
        table[rep] = column
    return table
