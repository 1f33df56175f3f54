"""Structural computations around the voicing group.

Centralizers and the orders of GL(3, Z/n) and SL(3, Z/n) are closed forms.
The budget still bounds the q^9 matrices over each prime-power factor q, so
`centralizer` and `count` keep their exit-3 contract: a modulus with a
prime-power factor q >= 7 (such as 7, 9 or 36) needs a budget above the
default.

The duality check compares a contextual dihedral group with the
transposition/inversion group on the seed's T/I orbit, in O(n) and on plain
integer triples. A transitive group acts simply transitively exactly when
every element fixing the seed fixes the whole orbit, so only the seed's
stabilizer is tested against the orbit; commutation is tested on the
generators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .modring import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Modulus,
    as_modulus,
    euler_phi,
    _prime_of,
)
from .linalg import ALL_PERMS, AffineMap, Mat3, Vec3, is_invertible, mat_vec, scalar_affine, _affine, _mat3, _vec3
from .voicing import _GENERATOR_EXPONENTS, _SLOTS, Generator, JElement, _act, _require_group_modulus
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


def _require_budget(m: Modulus, budget: int) -> None:
    """Raise BudgetExceeded at the first prime-power factor q of n with q^9 > budget."""
    for q in m.prime_powers():
        if q**9 > budget:
            raise BudgetExceeded(f"{q}^9 = {q**9} candidates exceeds budget {budget}")


def centralizer_in_M3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> CentralizerReport:
    """Monoid centralizer in all 3x3 matrices, sorted by rows.

    This is monoid_centralizer_closed_form, which has 48 elements over Z/12;
    see it for the explicit description and diagonal_product_family for the
    smaller diag(u)-product family. The budget bounds the q^9 matrices over
    each prime-power factor q, so n = 7 needs a budget of at least 7**9.
    """
    m = as_modulus(modulus)
    _require_budget(m, budget)
    mats = tuple(sorted(monoid_centralizer_closed_form(m), key=lambda a: a.rows))
    return CentralizerReport(Ambient.M3, mats, len(mats))


def centralizer_in_GL3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> CentralizerReport:
    """Group centralizer: the invertible part of the monoid centralizer."""
    monoid = centralizer_in_M3(modulus, budget)
    mats = tuple(a for a in monoid.elements if is_invertible(a))
    return CentralizerReport(Ambient.GL3, mats, len(mats))


def diagonal_product_family(modulus: Modulus | int, invertible_only: bool = False) -> set[Mat3]:
    """The products diag(u) * (central involution), u ranging over Z/n.

    For even n the central involutions are Id, (UV)^(n/2), (UW)^(n/2) and
    their product, the matrices I + (n/2)*ones*w^T for the even-weight
    covectors w; for odd n only Id, leaving the scalar matrices. So a product
    is diag(u) + (n/2)*ones*w^T for odd u and diag(u) for even u. Over Z/12
    this yields 30 distinct matrices (16 invertible ones for unit u). Note:
    for even n this is a proper subset of the full monoid commutant, which
    also contains diag(a) + (n/2)*ones*w^T for even a; the invertible parts
    agree. See monoid_centralizer_closed_form.
    """
    m = _require_group_modulus(as_modulus(modulus))
    n = m.n
    zero = (0, 0, 0)
    return {
        _mat3(_centralizer_rows(u, w if u % 2 else zero, n), m)
        for u in range(n)
        if not invertible_only or math.gcd(u, n) == 1
        for w in _centralizer_covectors(n)
    }


def monoid_centralizer_closed_form(modulus: Modulus | int) -> set[Mat3]:
    """Closed-form description of the full monoid commutant: the matrices
    diag(a) + (n/2)*ones*w^T, a in Z/n, with w ranging over the family's
    covectors (see voicing._MOD2_FIXED_COVECTORS): the even-weight ones for
    even n, only w = 0 (the scalar matrices) for odd n. The tests check this
    description against the solved commutator equations; over Z/12 it has 48
    elements (4n for even n, n for odd n).
    """
    m = as_modulus(modulus)
    return {_mat3(_centralizer_rows(a, w, m.n), m) for a in range(m.n) for w in _centralizer_covectors(m.n)}


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


def count_GL3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> int:
    """|GL(3, Z/n)|, from gl3_order_closed_form.

    The budget bounds the q^9 matrices over each prime-power factor q.
    """
    m = as_modulus(modulus)
    _require_budget(m, budget)
    return gl3_order_closed_form(m)


def count_SL3(modulus: Modulus | int, budget: int = DEFAULT_BUDGET) -> int:
    """|SL(3, Z/n)|, from sl3_order_closed_form.

    The budget bounds the q^9 matrices over each prime-power factor q.
    """
    m = as_modulus(modulus)
    _require_budget(m, budget)
    return sl3_order_closed_form(m)


def gl3_order_closed_form(modulus: Modulus | int) -> int:
    """Product formula over prime powers p^a: p^(9a) (1-1/p)(1-1/p^2)(1-1/p^3)."""
    m = as_modulus(modulus)
    total = 1
    for q in m.prime_powers():
        p = _prime_of(q)
        total *= q**9 // p**6 * (p - 1) * (p**2 - 1) * (p**3 - 1)
    return total


def sl3_order_closed_form(modulus: Modulus | int) -> int:
    """|SL| = |GL| / phi(n): the determinant maps GL(3, Z/n) onto the units."""
    m = as_modulus(modulus)
    return gl3_order_closed_form(m) // euler_phi(m.n)


def index_of_J(modulus: Modulus | int, ambient: str, budget: int = DEFAULT_BUDGET) -> int:
    """Index of the 2n^2-element voicing group in GL3 or SL3; division must be exact."""
    m = as_modulus(modulus)
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


def ti_group(modulus: Modulus | int) -> list[AffineMap]:
    """The 2n componentwise transpositions x+t and inversions -x+t."""
    m = as_modulus(modulus)
    maps = [scalar_affine(1, t, m) for t in range(m.n)]
    maps += [scalar_affine(-1, t, m) for t in range(m.n)]
    return maps


def _ti_image(v: tuple[int, int, int], s: int, t: int, n: int) -> tuple[int, int, int]:
    """The T/I map x -> s x + t, applied to every component of a plain integer triple."""
    x, y, z = v
    return ((s * x + t) % n, (s * y + t) % n, (s * z + t) % n)


def _ti_images(v: tuple[int, int, int], n: int) -> dict[tuple[int, int], tuple[int, int, int]]:
    """The image of v under each T/I map, keyed by (s, t)."""
    return {(s, t): _ti_image(v, s, t, n) for s in (1, -1) for t in range(n)}


def ti_orbit(seed: Vec3) -> list[Vec3]:
    """The orbit of seed under the T/I group, deterministically ordered."""
    images = _ti_images(seed.entries, seed.modulus.n)
    return [_vec3(w, seed.modulus) for w in sorted(set(images.values()))]


def restrict_to_orbit(action, orbit: Sequence[Vec3]) -> tuple[int, ...]:
    """The permutation (as an index tuple) an action induces on the orbit.

    `action` is anything mapping Vec3 to Vec3 (Mat3, AffineMap, group element).
    Raises ValueError if the orbit is not closed under the action.
    """
    index = {v: i for i, v in enumerate(orbit)}

    def image(v: Vec3) -> Vec3:
        if isinstance(action, Mat3):
            return mat_vec(action, v)
        if isinstance(action, AffineMap):
            return action(v)
        return action.apply(v)

    out = []
    for v in orbit:
        w = image(v)
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
    orbit, so the report's conjunction is the dual-pair certificate.
    """

    seed: Vec3
    orbit_size: int
    contextual_generator: str  # "UV" or "UW": the translation-like generator used
    simply_transitive_contextual: bool
    simply_transitive_TI: bool
    mutually_commuting: bool
    is_dual_pair: bool


def _simply_transitive(seed, orbit: set, images: dict, action) -> bool:
    """Whether a finite group acts simply transitively on the orbit through seed.

    `images` maps each group element to its image of seed, and `action(g)` is
    g as a function on the orbit. If the group is transitive, its image in
    Sym(orbit) has |G|/|K| elements, where the pointwise stabilizer K of the
    orbit lies in Stab(seed), and |orbit| = |G|/|Stab(seed)|. So it acts simply
    transitively exactly when every element fixing seed fixes the whole orbit:
    |Stab(seed)| * |orbit| = |G| further checks.
    """
    if set(images.values()) != orbit:
        return False
    for g, image in images.items():
        if image == seed:
            act = action(g)
            if any(act(w) != w for w in orbit):
                return False
    return True


def check_duality(seed: Vec3) -> DualityReport:
    """Compare the contextual and T/I groups on the seed's T/I orbit, in O(n).

    Everything runs on plain integer triples: a contextual element U^k (UV)^t
    or U^k (UW)^t acts through the group elements' action kernel (voicing._act),
    a T/I map as x -> s x + t. Simple transitivity is read off the seed's
    stabilizer (see _simply_transitive) instead of restricting all 4n elements
    to the orbit; commutation is tested on the generators over the orbit, and
    the generators of both groups must map the orbit into itself.
    """
    m = _require_group_modulus(seed.modulus)
    n = m.n
    x, y, z = origin = seed.entries
    which = "UV" if math.gcd(z - x, n) == 1 or math.gcd(z - y, n) != 1 else "UW"
    ti_images = _ti_images(origin, n)
    orbit = set(ti_images.values())
    identity = _SLOTS[0]

    def ctx(k: int, t: int):
        a, b = (t, 0) if which == "UV" else (0, t)
        return lambda w: _act(identity, k, a, b, w, n)

    def ti(s: int, t: int):
        return lambda w: _ti_image(w, s, t, n)

    ctx_gens = (ctx(0, 1), ctx(1, 0))  # UV (or UW) and U
    ti_gens = (ti(1, 1), ti(-1, 0))  # x+1 and -x
    if any(g(w) not in orbit for g in ctx_gens + ti_gens for w in orbit):
        raise ValueError(f"the T/I orbit of {seed} is not closed under the generators")

    # U^k (UV)^t seed: walk the translation-like generator, flipping each point by U
    step, flip = ctx_gens
    ctx_images, v = {}, origin
    for t in range(n):
        ctx_images[0, t] = v
        ctx_images[1, t] = flip(v)
        v = step(v)
    ctx_simply = _simply_transitive(origin, orbit, ctx_images, lambda key: ctx(*key))
    ti_simply = _simply_transitive(origin, orbit, ti_images, lambda key: ti(*key))

    # Each restriction is a homomorphism into Sym(orbit), so the restricted groups
    # commute exactly when their generators do.
    commuting = all(c(f(w)) == f(c(w)) for c in ctx_gens for f in ti_gens for w in orbit)
    ok = len(orbit) == 2 * n and ctx_simply and ti_simply and commuting
    return DualityReport(
        seed=seed,
        orbit_size=len(orbit),
        contextual_generator=which,
        simply_transitive_contextual=ctx_simply,
        simply_transitive_TI=ti_simply,
        mutually_commuting=commuting,
        is_dual_pair=ok,
    )


def orbit_restriction_table(modulus: Modulus | int = 12) -> dict[tuple[int, int, int], dict[str, str]]:
    """Which locally-conjugated contextual operation each generator restricts to.

    For each of the six T/I orbits of the reorderings tau(0,4,7), compare each
    generator with tau X tau^-1 for X in {P, L, R} (the contextual operations
    on the dualistic root-position orbit) across all 24 orbit elements, on
    plain integer triples through the action kernel. tau X tau^-1 is again a
    reflection, sigma_conjugate_generator(tau, X). The match is required to be
    unique; an ambiguous match raises.
    """
    m = as_modulus(modulus)
    n = m.n
    base = Vec3.of(0, 4, 7, m).entries
    identity = _SLOTS[0]

    def act(g: Generator, w: tuple[int, int, int]) -> tuple[int, int, int]:
        return _act(identity, 1, *_GENERATOR_EXPONENTS[g], w, n)

    # On the dualistic root-position orbit the three reflections realize
    # P, L, R; these serve as the reference contextual operations.
    contextual = {"P": Generator.W, "L": Generator.V, "R": Generator.U}
    table: dict[tuple[int, int, int], dict[str, str]] = {}
    for tau in ALL_PERMS:
        rep = tau.apply(base)
        orbit = set(_ti_images(rep, n).values())
        conjugates = {name: sigma_conjugate_generator(tau, x) for name, x in contextual.items()}
        column: dict[str, str] = {}
        for g in Generator:
            matches = [name for name, x in conjugates.items() if all(act(g, w) == act(x, w) for w in orbit)]
            if len(matches) != 1:
                raise AssertionError(
                    f"generator {g} matches {matches!r} on orbit of {Vec3(rep, m)}; "
                    "expected exactly one"
                )
            column[g.name] = matches[0]
        table[rep] = column
    return table
