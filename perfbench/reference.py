"""Plain-integer reference arithmetic, independent of the library.

The input generator uses it to plant known answers, and the oracles use it to
check the library's results. An element is a tuple ``(cycle, k, m, n)``: the
voice permutation in cycle notation, the reflection bit and the two exponents
of the normal form ``sigma U^k (UV)^m (UW)^n``. Matrices are tuples of row
tuples with entries in ``[0, modulus)``.
"""

from __future__ import annotations

import functools
import math

PERMS = {
    "id": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}
CYCLES = tuple(PERMS)

GENERATORS = {
    "U": ((0, 1, 0), (1, 0, 0), (1, 1, -1)),
    "V": ((-1, 1, 1), (0, 0, 1), (0, 1, 0)),
    "W": ((0, 0, 1), (1, -1, 1), (1, 0, 0)),
}

# The generator sets the CLI's `orbit --group` offers, as reference elements.
ORBIT_GENERATORS = {
    "j": (("id", 1, 0, 0), ("id", 1, 1, 0), ("id", 1, 0, 1)),
    "j+": (("id", 0, 1, 0), ("id", 0, 0, 1)),
    "extension": (
        ("id", 1, 0, 0), ("id", 1, 1, 0), ("id", 1, 0, 1), ("(12)", 0, 0, 0), ("(13)", 0, 0, 0),
    ),
    "sigma-j+": (("id", 0, 1, 0), ("id", 0, 0, 1), ("(12)", 0, 0, 0), ("(123)", 0, 0, 0)),
    "hook": (("(13)", 1, 0, 0), ("(13)", 1, 0, 1)),
}


def perm_apply(cycle: str, v: tuple) -> tuple:
    """The entry in slot j moves to slot sigma(j)."""
    image = PERMS[cycle]
    out = [0, 0, 0]
    for j in range(3):
        out[image[j] - 1] = v[j]
    return tuple(out)


def element_apply(el: tuple, v: tuple, modulus: int) -> tuple:
    """sigma(U^k(v) + (m(z-x) + n(z-y)) * (1,1,1)) over Z/modulus."""
    cycle, k, m, n = el
    x, y, z = v
    c = m * (z - x) + n * (z - y)
    base = (y, x, -z + x + y) if k else (x, y, z)
    return perm_apply(cycle, tuple((b + c) % modulus for b in base))


def identity(modulus: int) -> tuple:
    return tuple(tuple(int(i == j) % modulus for j in range(3)) for i in range(3))


def mat_mul(a: tuple, b: tuple, modulus: int) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) % modulus for j in range(3))
        for i in range(3)
    )


def mat_vec(a: tuple, v: tuple, modulus: int) -> tuple:
    return tuple(sum(a[i][k] * v[k] for k in range(3)) % modulus for i in range(3))


def mat_pow(a: tuple, t: int, modulus: int) -> tuple:
    """a**t for t >= 0 by repeated squaring."""
    acc = identity(modulus)
    while t:
        if t & 1:
            acc = mat_mul(acc, a, modulus)
        a = mat_mul(a, a, modulus)
        t >>= 1
    return acc


def determinant(a: tuple, modulus: int) -> int:
    (r, s, t), (u, v, w), (x, y, z) = a
    return (r * (v * z - w * y) - s * (u * z - w * x) + t * (u * y - v * x)) % modulus


def generator(name: str, modulus: int) -> tuple:
    return tuple(tuple(v % modulus for v in row) for row in GENERATORS[name])


def perm_matrix(cycle: str) -> tuple:
    """Columns e_sigma(1), e_sigma(2), e_sigma(3)."""
    image = PERMS[cycle]
    return tuple(tuple(int(image[j] == i + 1) for j in range(3)) for i in range(3))


@functools.lru_cache(maxsize=None)
def _normal_form_factors(modulus: int) -> tuple:
    """(U, [(UV)^m for m < modulus], [(UW)^n for n < modulus])."""
    u = generator("U", modulus)
    uv = mat_mul(u, generator("V", modulus), modulus)
    uw = mat_mul(u, generator("W", modulus), modulus)
    powers = []
    for base in (uv, uw):
        acc, table = identity(modulus), []
        for _ in range(modulus):
            table.append(acc)
            acc = mat_mul(acc, base, modulus)
        powers.append(table)
    return u, powers[0], powers[1]


def element_matrix(el: tuple, modulus: int) -> tuple:
    """P_sigma U^k (UV)^m (UW)^n as a product of generator matrices."""
    cycle, k, m, n = el
    u, uv, uw = _normal_form_factors(modulus)
    acc = mat_mul(perm_matrix(cycle), u, modulus) if k else perm_matrix(cycle)
    return mat_mul(mat_mul(acc, uv[m % modulus], modulus), uw[n % modulus], modulus)


def is_order(a: tuple, t: int, modulus: int) -> bool:
    """True iff a**t == I and a**(t/p) != I for every prime p dividing t."""
    if t < 1 or mat_pow(a, t, modulus) != identity(modulus):
        return False
    return all(mat_pow(a, t // p, modulus) != identity(modulus) for p in prime_factors(t))


def prime_factors(t: int) -> list[int]:
    out, p = [], 2
    while p * p <= t:
        if t % p == 0:
            out.append(p)
            while t % p == 0:
                t //= p
        p += 1
    if t > 1:
        out.append(t)
    return out


def prime_powers(n: int) -> list[int]:
    """Prime-power factors of n: 12 -> [4, 3]."""
    out = []
    for p in prime_factors(n):
        q = 1
        while n % (q * p) == 0:
            q *= p
        out.append(q)
    return out


def is_unit(x: int, modulus: int) -> bool:
    return math.gcd(x, modulus) == 1


def element_text(el: tuple) -> str:
    """The element in the library's printed form, e.g. '(13) U (UV)^2 (UW)^7'."""
    cycle, k, m, n = el
    parts = [] if cycle == "id" else [cycle]
    if k:
        parts.append("U")
    if m:
        parts.append(f"(UV)^{m}")
    if n:
        parts.append(f"(UW)^{n}")
    return " ".join(parts) if parts else "Id"


def orbit(generators, seed: tuple, modulus: int) -> set:
    """Closure of seed under the generators (finite, so inverses add nothing)."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = element_apply(g, v, modulus)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
