"""Exact arithmetic in Z/n with a runtime modulus.

Provides the modulus, the units of Z/n, prime-power splitting of the modulus
(by trial division, then Brent's rho with Miller-Rabin proofs, both bounded),
and an exact solver for linear systems over Z/n. A residue is a plain int in
[0, n); no class wraps it. The solver reads its entries as integers, reduces
the equations mod n and keeps each distinct one once, brings them to Howell
form with row operations only, each from a Bezout
pair that math.gcd and a modular inverse give in closed form, so the
unknowns never move, and lists the solutions by back-substitution in
increasing order, so its cost follows the number of solutions. A system in
two unknowns, the shape of every query the analysis layer makes ((m, n) of
a progression step, (u, q) of an affine map), is read into scalar triples
and echeloned on scalars by _howell2, with the same row operations as the
generic _howell. Its budget still bounds the q^d search space of each
prime-power factor q, so a search too large to enumerate is refused with
BudgetExceeded. Nothing is cached: a modulus is factored on each call that
needs its primes, and the budget gate needs them only when n^d exceeds the
budget. Integers read from text go through one reader that takes ASCII
digits only. The slotted
immutable storage that every value class of the library shares (_Value) is
defined here, in the lowest layer.
"""

from __future__ import annotations

import math
import re
from itertools import count
from operator import attrgetter, index, mul
from typing import Sequence

DEFAULT_BUDGET = 10_000_000
MAX_UNKNOWNS = 12


class BudgetExceeded(RuntimeError):
    """A search space would hold more candidates than allowed."""


def _is_int(x) -> bool:
    """An int that is not a bool, as a JSON integer must be."""
    return isinstance(x, int) and not isinstance(x, bool)


_ASCII_INT = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _ascii_int(text: str) -> int:
    """The integer written in text: an optional sign, then ASCII digits, with
    surrounding whitespace allowed; int() would also take any Unicode digit
    and '_'."""
    if _ASCII_INT.fullmatch(text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _integer(x: int, name: str) -> int:
    """x as a plain int: any integer type is read, a float or a string is
    refused, not truncated or parsed."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


# Trial division takes the primes below _TRIAL_BOUND, so a cofactor below its
# square is prime. Miller-Rabin on the first 12 prime bases decides primality
# exactly below _MR_EXACT (Sorenson and Webster); above it a cofactor that
# every base passes is refused, not guessed. Brent's rho splits the rest, a
# factor p in about sqrt(p) steps: _RHO_STEPS reaches factors near 10^12.
_TRIAL_BOUND = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT = 3317044064679887385961981
_RHO_STEPS = 1 << 22


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, q) for each prime-power factor q = p^a of n, by increasing prime p:
    12 -> [(2, 4), (3, 3)].

    Trial division up to _TRIAL_BOUND; then each part of the cofactor that is
    not proven prime is replaced by its root if it is a perfect power, else
    split by Brent's rho. Raises BudgetExceeded, naming n, when a split
    needs more than _RHO_STEPS steps or a part above _MR_EXACT cannot be
    proven prime."""
    factors = []
    rest = n
    for p in range(2, _TRIAL_BOUND):  # a composite p never divides: its primes are gone
        if p * p > rest:
            break
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            factors.append((p, q))
    primes, parts = set(), [rest] if rest > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or _is_probable_prime(m):
            if m >= _MR_EXACT:
                raise BudgetExceeded(f"modulus {n} has a factor {m} above {_MR_EXACT} that cannot be proven prime")
            primes.add(m)
        elif (r := _root(m)) < m:  # m = r^a, whose primes are r's
            parts.append(r)
        else:
            d = _rho(m, n)
            parts += (d, m // d)
    for p in sorted(primes):
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        factors.append((p, q))
    return factors


def _is_probable_prime(m: int) -> bool:
    """Whether the odd m > 37 is a strong probable prime to each of _MR_BASES;
    below _MR_EXACT that proves m prime."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho(m: int, n: int) -> int:
    """A proper factor of the composite m, which has no prime below
    _TRIAL_BOUND: Brent's variant of Pollard's rho on x -> x^2 + c, one gcd
    per batch of 64 steps. Raises BudgetExceeded, naming the modulus n, before
    the steps taken over every c would pass _RHO_STEPS."""
    steps = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise BudgetExceeded(f"factoring modulus {n} needs more than {_RHO_STEPS} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % m
                    prod = prod * (x - y) % m
                g = math.gcd(prod, m)
                k += 64
            r *= 2
        if g == m:  # the batch passed a factor: step through it one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g


def _trusted_constructor(cls, setters):
    """The trusted constructor of cls: store the fields given, in slot order,
    with no checks. Unrolled for 1 to 3 fields, as a loop over the setters
    would cost each construction more."""
    new = object.__new__
    if len(setters) == 1:
        (s0,) = setters

        def make(a):
            v = new(cls)
            s0(v, a)
            return v

    elif len(setters) == 2:
        s0, s1 = setters

        def make(a, b):
            v = new(cls)
            s0(v, a)
            s1(v, b)
            return v

    elif len(setters) == 3:
        s0, s1, s2 = setters

        def make(a, b, c):
            v = new(cls)
            s0(v, a)
            s1(v, b)
            s2(v, c)
            return v

    else:
        raise TypeError(f"{cls.__name__} has {len(setters)} fields; a value class takes 1 to 3")
    # pickle finds a constructor by its qualified name
    make.__name__, make.__qualname__, make.__module__ = "_make", f"{cls.__qualname__}._make", cls.__module__
    return make


class _Value:
    """Slotted immutable storage, shared by Modulus here, the vectors,
    matrices, permutations and affine maps (linalg.py), the group elements
    (voicing.py), the triad records and triadic transformations
    (triadic.py), and progressions (analysis.py).

    A class declares its fields as __slots__, and everything else is derived
    from them when the class is defined, base slots first: cls._make, the
    trusted constructor, which stores fields that are already reduced, with
    no checks, for the library's own producers; cls._TRUSTED, that
    constructor and the fields it takes, through which pickle and copy
    rebuild a value; the repr, field by field; and equality and hash, on the
    class and every field. Vec3 and Mat3 write their own equality and hash,
    and the group elements, whose one slot holds their coordinate tuple,
    their own hash and repr. The public constructor (__new__) reduces and
    checks its input, then calls cls._make.
    Setting or deleting an attribute raises dataclasses.FrozenInstanceError,
    imported only then, so that loading the library does not load
    dataclasses.
    """

    __slots__ = ()
    _TRUSTED: tuple  # (cls._make, the fields it takes), set on each class

    def __init_subclass__(cls):
        fields, setters = (), ()
        for klass in reversed(cls.__mro__):
            slots = klass.__dict__.get("__slots__", ())
            fields += slots
            setters += tuple(klass.__dict__[name].__set__ for name in slots)
        cls._make = staticmethod(_trusted_constructor(cls, setters))
        cls._TRUSTED = (cls._make, fields)
        cls._KEY = attrgetter(*fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._KEY
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._KEY(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        new, fields = self._TRUSTED
        return new, tuple(getattr(self, name) for name in fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._TRUSTED[1])
        return f"{type(self).__name__}({fields})"


class Modulus(_Value):
    """A modulus n >= 2, shared by all values computed over Z/n."""

    __slots__ = ("n",)

    def __new__(cls, n: int) -> "Modulus":
        # any integer type (an int subclass, a numpy int) is read as a plain
        # int; a float or a string is refused, not truncated or parsed
        try:
            value = index(n)
        except TypeError:
            value = 0
        if value < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
        return _modulus(value)

    def prime_powers(self) -> tuple[int, ...]:
        """The prime-power factors of n, by increasing prime: 12 -> (4, 3)."""
        return tuple(q for _, q in _prime_powers(self.n))

    def __index__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return str(self.n)


_modulus = Modulus._make  # an int n >= 2


def as_modulus(m: Modulus | int) -> Modulus:
    return m if isinstance(m, Modulus) else Modulus(m)


def check_same_modulus(a: Modulus, b: Modulus) -> Modulus:
    # two moduli are compared by n, not through _Value.__eq__; anything else, such as an int, is compared as it is
    if a is not b and (a.n != b.n if type(a) is type(b) is Modulus else a != b):
        raise ValueError(f"mixed moduli: {a} vs {b}")
    return a


def units(modulus: Modulus | int) -> list[int]:
    """The ints in [0, n) coprime to n, in increasing order; len == Euler phi(n)."""
    n = as_modulus(modulus).n
    return [v for v in range(n) if math.gcd(v, n) == 1]


def _budget_gate(n: int, e: int, budget: int, zero_rhs: Sequence[int] = (), pairs: list | None = None) -> bool:
    """Whether a system over Z/n is unsolvable, checked against the budget
    on the q^e candidates of each prime-power factor q of n.

    The factors are taken by increasing prime, and the first with
    q^e > budget raises BudgetExceeded, unless the system is already
    unsolvable modulo an earlier factor: some rhs of zero_rhs, the all-zero
    rows' right-hand sides reduced mod n, is not divisible by it. When
    n^e <= budget no factor q <= n can raise, so n is not factored; then a
    reduced rhs is 0 modulo every factor exactly when it is 0. A caller that
    already holds the (p, q) pairs of _prime_powers(n) passes them, and n is
    not factored again.
    """
    if n**e <= budget:
        return any(zero_rhs)
    for _, q in _prime_powers(n) if pairs is None else pairs:
        total = q**e
        if total > budget:
            raise BudgetExceeded(f"{q}^{e} = {total} candidates exceeds budget {budget}")
        for c in zero_rhs:
            if c % q:
                return True
    return False


def _root(q: int) -> int:
    """The least r with r^a == q for some a >= 1, for q with no prime below
    _TRIAL_BOUND > 2^9, so that a < q.bit_length() / 9."""
    for a in range(q.bit_length() // 9, 1, -1):
        r = _iroot(q, a)
        if r**a == q:
            return r
    return q


def _iroot(q: int, a: int) -> int:
    """floor(q^(1/a)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // a)
    while True:
        s = ((a - 1) * r + q // r ** (a - 1)) // a
        if s >= r:
            return r
        r = s


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b), for a >= 0 and b > 0, in
    closed form: a/g is a unit mod b/g, so s is its inverse there, in
    [0, b/g), and t follows exactly. Any Bezout pair serves the echelons:
    each gives a determinant-1 map of two rows."""
    g = math.gcd(a, b)
    s = pow(a // g, -1, b // g)
    return g, s, (g - s * a) // b


def _howell(rows: list[Sequence[int]], n: int) -> tuple[list, list[int]]:
    """Echelon the augmented rows [a_0 .. a_{d-1} | c] over Z/n, with row
    operations only, into Howell form; return (pivots, zero_rhs).

    The last unknown is eliminated first. Each row with a nonzero x_j entry y
    meets the pivot row p, whose entry is x: when x divides y, y is cleared
    with p itself, which stays the pivot; otherwise a Bezout pair of (x, y)
    (_xgcd) gives a determinant-1 map of the two rows that takes (x, y) to
    (gcd(x, y), 0).
    pivots[j] is the one row whose leading unknown is x_j, scaled so that its
    pivot is g = gcd(pivot, n), or None when x_j is free; a pivot that
    already divides n is kept as it is.
    Each pivot row p also pushes its annihilator (n/g)*p, which vanishes at
    x_j, into the rows left to eliminate (Storjohann's Howell form) unless it
    is all zero, so every vector of the row span that vanishes on
    x_{d-1} .. x_j lies in the span of the rows below. zero_rhs holds the rhs
    of the rows left with every coefficient 0.
    """
    d = len(rows[0]) - 1
    pivots = [None] * d
    for j in range(d - 1, -1, -1):
        p, rest = None, []
        for b in rows:
            if not b[j]:
                rest.append(b)
            elif p is None:
                p = b
            else:
                x, y = p[j], b[j]
                if y % x:
                    g, s, t = _xgcd(x, y)
                    u, w = -(y // g), x // g
                    rest.append([(u * e + w * f) % n for e, f in zip(p, b)])
                    p = [(s * e + t * f) % n for e, f in zip(p, b)]
                else:
                    q = y // x
                    rest.append([(f - q * e) % n for e, f in zip(p, b)])
        if p is not None:
            g = p[j]
            if n % g:
                g, s, _ = _xgcd(g, n)
                pivots[j] = [s * x % n for x in p]
            else:
                pivots[j] = p
            # the annihilator of p itself: s is a unit mod n/g only, so s*p may span less
            h = -(n // g)
            annihilator = [h * x % n for x in p]
            if any(annihilator):
                rest.append(annihilator)
        rows = rest
    return pivots, [b[d] for b in rows]


def _howell2(rows: list[Sequence[int]], n: int) -> tuple[list, list[int]]:
    """_howell for two unknowns, on scalars: the same row operations in the
    same order, so the same (pivots, zero_rhs), with each row held as its
    entries and no list built per row operation. Once x_1 is eliminated a
    row's x_1 entry is 0, so the second pass carries (x_0 entry, rhs) only.
    """
    p, rest = None, []
    for row in rows:
        a, b, c = row
        if not b:
            rest.append((a, c))
        elif p is None:
            p = row
        else:
            pa, pb, pc = p
            if b % pb:
                g, s, t = _xgcd(pb, b)
                u, w = -(b // g), pb // g
                rest.append(((u * pa + w * a) % n, (u * pc + w * c) % n))
                p = ((s * pa + t * a) % n, g, (s * pc + t * c) % n)
            else:
                q = b // pb
                rest.append(((a - q * pa) % n, (c - q * pc) % n))
    pivots = [None, None]
    if p is not None:
        pa, g, pc = p
        if n % g:
            g, s, _ = _xgcd(g, n)
            pivots[1] = (s * pa % n, g, s * pc % n)
        else:
            pivots[1] = p
        h = -(n // g)
        a, c = h * pa % n, h * pc % n
        if a or c:
            rest.append((a, c))
    p, zero_rhs = None, []
    for a, c in rest:
        if not a:
            zero_rhs.append(c)
        elif p is None:
            p = a, c
        else:
            pa, pc = p
            if a % pa:
                g, s, t = _xgcd(pa, a)
                zero_rhs.append((pa // g * c - a // g * pc) % n)
                p = g, (s * pc + t * c) % n
            else:
                zero_rhs.append((c - a // pa * pc) % n)
    if p is not None:
        g, pc = p
        if n % g:
            g, s, _ = _xgcd(g, n)
            pivots[0] = (g, 0, s * pc % n)
        else:
            pivots[0] = (g, 0, pc)
        c = -(n // g) * pc % n
        if c:
            zero_rhs.append(c)
    return pivots, zero_rhs


def solve_linear(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    modulus: Modulus | int,
    budget: int = DEFAULT_BUDGET,
) -> list[tuple[int, ...]]:
    """All solution vectors of rows.x == rhs over Z/n, sorted.

    Exact: each entry is read as an integer (any integer type; a float or a
    string is refused with ValueError, not truncated), and each augmented row
    is reduced mod n. Two or more rows are kept once each, in order of first
    occurrence, so a repeated equation is solved once; the row span, and so
    the answer, is unchanged.
    The distinct rows are brought to Howell form (see _howell) and solved by
    back-substitution from x_0 up. Two unknowns, the shape of every system
    the analysis layer solves, are read straight into scalar triples
    (a, b, c), one per row, and echeloned on scalars (_howell2), with the
    same row operations and so the same form. A pivot g on x_j leaves the g
    values r/g + t*(n/g) for t in [0, g), where r is its row's rhs less the
    terms in x_0 .. x_{j-1}, and a free unknown all n values. The Howell form
    lets every partial solution extend, so the solutions come out in
    increasing order and the cost follows their number: x_0 and x_1 are
    listed in closed form, at O(1) integer work per solution. x_1 takes one
    value per x_0 when its pivot is 1, with no inner range, and otherwise
    its g values n/g apart.

    The budget bounds the search space: the prime-power factors q of n are
    taken in increasing order, and the first with q^d > budget raises
    BudgetExceeded, unless the system is already unsolvable modulo an earlier
    factor (some all-zero row has rhs not divisible by it), in which case the
    result is []. n is factored only when n^d > budget: below that no factor
    can exceed the budget, and the system is unsolvable exactly when some
    all-zero row has rhs not 0.
    """
    n = as_modulus(modulus).n
    if not rows:
        raise ValueError("system must have at least one row")
    d = len(rows[0])
    if d == 0:
        raise ValueError("cannot infer the number of unknowns from an empty system")
    if d > MAX_UNKNOWNS:
        raise ValueError(f"at most {MAX_UNKNOWNS} unknowns supported, got {d}")
    if len(rhs) != len(rows):
        raise ValueError("rhs length must match the number of rows")
    for row in rows:
        if len(row) != d:
            raise ValueError("all rows must have the same number of unknowns")
    try:
        if d == 2:
            augmented = [(index(a) % n, index(b) % n, index(c) % n) for (a, b), c in zip(rows, rhs)]
        else:
            mod_n = n.__rmod__  # x -> x % n
            augmented = [(*map(mod_n, map(index, row)), index(c) % n) for row, c in zip(rows, rhs)]
    except TypeError:
        # name the first entry that is not an integer
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                _integer(x, f"rows[{i}][{j}]")
        for i, c in enumerate(rhs):
            _integer(c, f"rhs[{i}]")
        raise
    if len(augmented) > 1:
        augmented = list(dict.fromkeys(augmented))
    pivots, zero_rhs = _howell2(augmented, n) if d == 2 else _howell(augmented, n)
    if _budget_gate(n, d, budget, zero_rhs):
        return []
    # x_0 runs over an arithmetic progression, and x_1, for each x_0, over one
    # that starts at (c - a*x_0) % n // g: one value when g == 1, else g
    # values n/g apart
    p = pivots[0]
    first = range(n) if p is None else range(p[d] // p[0], n, n // p[0])
    if d == 1:
        return [(u,) for u in first]
    p = pivots[1]
    if p is None:
        out = [(u, v) for u in first for v in range(n)]
    else:
        a, g, c = p[0], p[1], p[d]
        if g == 1:
            out = [(u, (c - a * u) % n) for u in first]
        else:
            step = n // g
            out = [(u, v) for u in first for v in range((c - a * u) % n // g, n, step)]
    for j in range(2, d):
        p = pivots[j]
        if p is None:
            out = [x + (v,) for x in out for v in range(n)]
        else:
            g, c = p[j], p[d]
            # x_j from g*x_j == c - (p[0]*x_0 + ... + p[j-1]*x_{j-1}), which g divides
            out = [x + (v,) for x in out for v in range((c - sum(map(mul, p, x))) % n // g, n, n // g)]
    return out
