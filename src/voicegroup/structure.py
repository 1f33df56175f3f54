"""Structural computations around the voicing group.

Centralizers and the orders of GL(3, Z/n) and SL(3, Z/n) are closed forms.
The budget still bounds the q^9 matrices over each prime-power factor q, so
`centralizer` and `count` keep their exit-3 contract: a modulus with a
prime-power factor q >= 7 (such as 7, 9 or 36) needs a budget above the
default.

The duality check compares a contextual dihedral group with the
transposition/inversion group on the seed's T/I orbit, in O(n) and on plain
integer triples. The contextual group is generated by U and the first of
UV, UW and (UV)(UW)^-1 whose shift of the seed (z - x, z - y or y - x) is a
unit mod n, or by U and UV when none is. A transitive group acts simply
transitively exactly when every element fixing the seed fixes the whole
orbit, so only the seed's stabilizer is tested against the orbit;
commutation is tested on the generators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

from .modring import DEFAULT_BUDGET, Modulus, as_modulus, _budget_gate, _prime_powers
from .linalg import ALL_PERMS, AffineMap, Mat3, Vec3, scalar_affine, _affine, _mat3, _permute, _vec3
from .voicing import _GENERATOR_EXPONENTS, Generator, JElement, _act, _require_group_modulus
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
    mats = _centralizer_family([a for a in range(m.n) if math.gcd(a, m.n) == 1], m)
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
    orbit, so the report's conjunction is the dual-pair certificate.
    """

    seed: Vec3
    orbit_size: int
    contextual_generator: str  # "UV", "UW" or "(UV)(UW)^-1": the translation-like generator used
    simply_transitive_contextual: bool
    simply_transitive_TI: bool
    mutually_commuting: bool
    is_dual_pair: bool


def _simply_transitive(seed, orbit: set, images: dict, action, identity) -> bool:
    """Whether a finite group acts simply transitively on the orbit through seed.

    `images` maps each group element to its image of seed, `action(g)` is g
    as a function on the orbit, and `identity` is the identity's key. If the
    group is transitive, its image in Sym(orbit) has |G|/|K| elements, where
    the pointwise stabilizer K of the orbit lies in Stab(seed), and
    |orbit| = |G|/|Stab(seed)|. So it acts simply transitively exactly when
    every element fixing seed fixes the whole orbit: (|Stab(seed)| - 1) *
    |orbit| further checks, the identity needing none.
    """
    if set(images.values()) != orbit:
        return False
    for g, image in images.items():
        if image == seed and g != identity:
            act = action(g)
            if any(act(w) != w for w in orbit):
                return False
    return True


# The translation-like generators (UV)^a (UW)^b of a contextual group, by
# name: each shifts (x, y, z) by a(z - x) + b(z - y), that is by z - x,
# z - y and y - x.
_CONTEXTUAL_GENERATORS = (("UV", 1, 0), ("UW", 0, 1), ("(UV)(UW)^-1", 1, -1))


def check_duality(seed: Vec3) -> DualityReport:
    """Compare the contextual and T/I groups on the seed's T/I orbit, in O(n).

    The contextual group is U^k T^t, T being the first of UV, UW and
    (UV)(UW)^-1 (see _CONTEXTUAL_GENERATORS) whose shift of the seed is a unit
    mod n, or UV when none is; its name is the report's contextual_generator.
    Everything runs on plain integer triples: a contextual element acts
    through the group elements' action kernel (voicing._act), a T/I map as
    x -> s x + t. Simple transitivity is read off the seed's stabilizer (see
    _simply_transitive) instead of restricting all 4n elements to the orbit.
    Each of the four generators (T, U, x+1 and -x) is evaluated once per orbit
    point into an image table; the closure check (the generators of both
    groups must map the orbit into itself), the U^k T^t walk and the
    generator-pair commutation test read those tables. With trivial
    stabilizers that is 5 |orbit| kernel calls: 2 |orbit| through _act (T
    and U) and 3 |orbit| through _ti_image (the T/I images of the seed, x+1
    and -x); the identity is not run over the orbit.
    """
    m = _require_group_modulus(seed.modulus)
    n = m.n
    x, y, z = origin = seed.entries
    which, a, b = next(
        (g for g in _CONTEXTUAL_GENERATORS if math.gcd(g[1] * (z - x) + g[2] * (z - y), n) == 1),
        _CONTEXTUAL_GENERATORS[0],
    )
    ti_images = _ti_images(origin, n)
    orbit = set(ti_images.values())

    def ctx(k: int, t: int):
        return lambda w: _act(k, a * t, b * t, w, n)  # the point of U^k is k

    def ti(s: int, t: int):
        return lambda w: _ti_image(w, s, t, n)

    # Each generator evaluated once per orbit point: the translation-like
    # generator T and U (the points of U^0 and U^1), then x+1 and -x.
    step = {w: _act(0, a, b, w, n) for w in orbit}
    flip = {w: _act(1, 0, 0, w, n) for w in orbit}
    shift = {w: _ti_image(w, 1, 1, n) for w in orbit}
    negate = {w: _ti_image(w, -1, 0, n) for w in orbit}
    if any(image not in orbit for g in (step, flip, shift, negate) for image in g.values()):
        raise ValueError(f"the T/I orbit of {seed} is not closed under the generators")

    # U^k T^t seed: walk the translation-like generator T, flipping each point by U
    ctx_images, v = {}, origin
    for t in range(n):
        ctx_images[0, t] = v
        ctx_images[1, t] = flip[v]
        v = step[v]
    ctx_simply = _simply_transitive(origin, orbit, ctx_images, lambda key: ctx(*key), (0, 0))
    ti_simply = _simply_transitive(origin, orbit, ti_images, lambda key: ti(*key), (1, 0))

    # Each restriction is a homomorphism into Sym(orbit), so the restricted groups
    # commute exactly when their generators do.
    commuting = all(c[f[w]] == f[c[w]] for c in (step, flip) for f in (shift, negate) for w in orbit)
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
    on the dualistic root-position orbit) across all |orbit| orbit elements
    (2n of them: 24 at n = 12, 40 at n = 20), on plain integer triples through
    the action kernel. tau X tau^-1 is again a reflection,
    sigma_conjugate_generator(tau, X), so each of U, V and W is evaluated once
    per orbit point and the image lists are compared: 3 |orbit| kernel calls
    per orbit. The match is required to be unique; an ambiguous match, as at
    n = 3, 4 or 7, raises ValueError, and n = 2 is refused as the normal forms
    refuse it.
    """
    m = _require_group_modulus(as_modulus(modulus))
    n = m.n
    base = Vec3.of(0, 4, 7, m).entries

    # On the dualistic root-position orbit the three reflections realize
    # P, L, R; these serve as the reference contextual operations.
    contextual = {"P": Generator.W, "L": Generator.V, "R": Generator.U}
    table: dict[tuple[int, int, int], dict[str, str]] = {}
    for tau in ALL_PERMS:
        rep = _permute(tau, base)
        orbit = set(_ti_images(rep, n).values())
        # the point of U is 1; each list walks the same set, so in the same order
        images = {g: [_act(1, a, b, w, n) for w in orbit] for g, (a, b) in _GENERATOR_EXPONENTS.items()}
        conjugates = {name: sigma_conjugate_generator(tau, x) for name, x in contextual.items()}
        column: dict[str, str] = {}
        for g in Generator:
            matches = [name for name, x in conjugates.items() if images[g] == images[x]]
            if len(matches) != 1:
                raise ValueError(
                    f"generator {g} matches {matches!r} on orbit of {Vec3(rep, m)}; "
                    "expected exactly one"
                )
            column[g.name] = matches[0]
        table[rep] = column
    return table
