"""Transformational analysis of chord progressions.

A progression is an ordered list of voicings over one modulus. Every query
asks which elements sigma U^k (UV)^m (UW)^n carry a tuple s = (x, y, z) to
its successor t. At the point (sigma, k) this holds exactly when
t - sigma(U^k(s)) = (m(z-x) + n(z-y)) * (1,1,1): a point whose difference is
not constant-diagonal is skipped, and each other point gives one linear
equation in (m, n) per step, solved exactly by modring.solve_linear. Each
distinct equation is solved once: a step that recurs gives one equation,
points with equal right-hand sides share one solve per query, and
solve_linear drops repeated rows of a system with two or more.
solve_step, the one-step query, is one scalar pass over a group's points: one
coefficient row, and per point one integer rhs d, solved once per distinct d.
The multi-step queries go through one case loop, _cases, which returns its
(point, solutions) pairs as a list: solve_uniform runs it over every step and
one point, and solve_uniform_all_cases over every step and all twelve points;
each uniform solution is checked against every distinct step before it is
returned. The affine maps between two progressions solve a linear system in
the map's (u, q), once per covector w of the centralizer family (see
voicing.py). A brute-force scan over the whole group is the oracle for the
linear route.

The JSON and DOT network exports both render from one pass over the
progression's plain triples (_network), which lists the distinct triples in
first-seen order and each step as an edge between two of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .modring import DEFAULT_BUDGET, Modulus, _Value, _is_int, as_modulus, check_same_modulus, solve_linear
from .linalg import ALL_PERMS, AffineMap, Mat3, Perm3, TRANSPOSITION_13, Vec3, _affine, _mat3, _vec3
from .voicing import _GROUP_POINTS, _SLOTS, JElement, _act, _centralizer_covectors, _centralizer_rows, _enumerate
from .voicing import _point, _require_group_modulus
from .extension import ExtElement


class Progression(_Value):
    """An ordered, optionally cyclic, sequence of voicings over one modulus."""

    __slots__ = ("modulus", "tuples", "cyclic")

    def __new__(cls, modulus: Modulus | int, tuples: Iterable[Vec3], cyclic: bool = False) -> "Progression":
        modulus = as_modulus(modulus)
        tuples = tuple(tuples)
        if not tuples:
            raise ValueError("progression must contain at least one tuple")
        for v in tuples:
            if type(v) is not Vec3:
                raise TypeError(f"Progression expects Vec3 tuples, got {type(v).__name__}")
            check_same_modulus(modulus, v.modulus)
        if not isinstance(cyclic, bool):
            raise ValueError(f"cyclic must be true or false, got {cyclic!r}")
        return cls._make(modulus, tuples, cyclic)

    @classmethod
    def of(
        cls, entries: Sequence[Sequence[int]], modulus: Modulus | int, cyclic: bool = False
    ) -> "Progression":
        m = as_modulus(modulus)
        return cls(m, tuple(Vec3(e, m) for e in entries), cyclic)

    def steps(self) -> list[tuple[Vec3, Vec3]]:
        """Consecutive pairs, including the wrap-around pair when cyclic."""
        pairs = list(zip(self.tuples, self.tuples[1:]))
        if self.cyclic and len(self.tuples) > 1:
            pairs.append((self.tuples[-1], self.tuples[0]))
        return pairs

    def to_jsonable(self) -> dict:
        return {
            "modulus": self.modulus.n,
            "cyclic": self.cyclic,
            "tuples": [list(v.entries) for v in self.tuples],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Progression":
        if not isinstance(data, dict) or "modulus" not in data or "tuples" not in data:
            raise ValueError("progression JSON needs 'modulus' and 'tuples'")
        # read as progression.schema.json declares: nothing is coerced, and a bool is not an int
        extra = sorted(data.keys() - {"modulus", "tuples", "cyclic"})
        if extra:
            raise ValueError(f"unknown progression keys: {', '.join(map(repr, extra))}")
        modulus, tuples, cyclic = data["modulus"], data["tuples"], data.get("cyclic", False)
        if not isinstance(tuples, list) or not all(isinstance(v, list) for v in tuples):
            raise ValueError("tuples must be an array of arrays of integers")
        if not _is_int(modulus) or not all(_is_int(x) for v in tuples for x in v):
            raise ValueError("the modulus and the tuple entries must be integers")
        if not isinstance(cyclic, bool):
            raise ValueError(f"cyclic must be true or false, got {cyclic!r}")
        return cls.of(tuples, modulus, cyclic)


def _cases(
    steps: list[tuple[tuple, tuple]], points: Iterable[int], modulus: Modulus, budget: int
) -> list[tuple[int, list[tuple[int, int]]]]:
    """The (p, solutions) pairs, as a list, for each point p of `points`, in
    order, whose case can realize every step; steps are (src, dst) pairs of
    plain triples, reduced mod n. This serves the multi-step (uniform)
    queries; solve_step reads its one step in a scalar pass of its own. The
    rows depend only on the sources, so each query builds them once, and
    points with equal right-hand sides share one solve and one solution list,
    which callers only read."""
    nn = modulus.n
    rows = [[(z - x) % nn, (z - y) % nn] for (x, y, z), _ in steps]
    # (U^k(src), dst) for k = 0, 1, U^0(src) being src itself; the point
    # (sigma, k) reads sigma's slots off U^k(src). U(x, y, z) is
    # (y, x, x + y - z), left unreduced: only differences mod n are read.
    images = (steps, [((y, x, x + y - z), dst) for (x, y, z), dst in steps])
    solved = {}  # rhs -> its solutions, for the points that share a rhs
    out = []
    for p in points:
        a, b, c = _SLOTS[p]
        rhs = []
        for w, t in images[p & 1]:
            d = (t[0] - w[a]) % nn
            if (t[1] - w[b]) % nn != d or (t[2] - w[c]) % nn != d:
                break
            rhs.append(d)
        else:
            rhs = tuple(rhs)
            solutions = solved.get(rhs)
            if solutions is None:
                solutions = solved[rhs] = solve_linear(rows, rhs, modulus, budget)
            out.append((p, solutions))
    return out


def _points(group: str, modulus: Modulus) -> Iterable[int]:
    """The points of a named group (see voicing.py), ascending, so that solutions
    listed point by point, each point sorted by (m, n), come out in sort-key
    order. The Hook group is defined over Z/12 only."""
    if group == "hook" and modulus.n != 12:
        raise ValueError(f"the Hook group is defined over Z/12 only, got modulus {modulus.n}")
    return _GROUP_POINTS[group]


def solve_step(
    src: Vec3, dst: Vec3, group: str = "extension", budget: int = DEFAULT_BUDGET
) -> list[ExtElement]:
    """All elements g of the chosen group with g(src) == dst, in sort-key order.

    Each (sigma, k) case is a one-equation linear system in (m, n): the one
    row ((z - x) % n, (z - y) % n) of src = (x, y, z), and the rhs d, the
    constant difference of dst and sigma U^k(src), read in one scalar pass
    over the group's points. A point whose difference is not constant is
    skipped, and each distinct d is solved once. The empty list is a valid
    result. The Hook group is defined over Z/12 only.
    """
    if type(src) is not Vec3:
        raise TypeError(f"solve_step expects a Vec3 src, got {type(src).__name__}")
    if type(dst) is not Vec3:
        raise TypeError(f"solve_step expects a Vec3 dst, got {type(dst).__name__}")
    modulus = _require_group_modulus(check_same_modulus(src.modulus, dst.modulus))
    if group not in _GROUP_POINTS:
        raise ValueError(f"group must be one of {sorted(_GROUP_POINTS)}, got {group!r}")
    points = _points(group, modulus)
    nn = modulus.n
    x, y, z = s = src.entries
    t0, t1, t2 = dst.entries
    row = ((z - x) % nn, (z - y) % nn)
    images = (s, (y, x, x + y - z))  # U^k(src) for k = 0, 1, as in _cases
    make, solved, out = ExtElement._make, {}, []  # solved: rhs d -> its solutions
    for p in points:
        a, b, c = _SLOTS[p]
        w = images[p & 1]
        d = (t0 - w[a]) % nn
        if (t1 - w[b]) % nn != d or (t2 - w[c]) % nn != d:
            continue
        solutions = solved.get(d)
        if solutions is None:
            solutions = solved[d] = solve_linear([row], (d,), modulus, budget)
        out += [make((p, m, n, modulus)) for m, n in solutions]
    return out


def solve_step_bruteforce(src: Vec3, dst: Vec3, group: str = "extension") -> list[ExtElement]:
    """Oracle for solve_step: filter the fully enumerated group, listed in sort-key order."""
    check_same_modulus(src.modulus, dst.modulus)
    if group not in _GROUP_POINTS:
        raise ValueError(f"unknown group {group!r}")
    return [g for g in _enumerate(ExtElement, _points(group, src.modulus), src.modulus) if g.apply(src) == dst]


@dataclass(frozen=True, init=False)
class UniformSolution:
    """One (sigma, k, m, n) realizing every step of a progression.

    Its matrix is derived from the element when it is read. A matrix passed to
    the constructor, as dataclasses.replace(s, matrix=...) does, is read in its
    place; perfbench's oracle test builds a solution with a wrong matrix so.
    """

    sigma: Perm3
    k: int
    m: int
    n: int
    modulus: Modulus

    def __init__(self, sigma: Perm3, k: int, m: int, n: int, modulus: Modulus, matrix: Mat3 | None = None):
        self.__dict__.update(sigma=sigma, k=k, m=m, n=n, modulus=modulus, _matrix=matrix)

    @property
    def element(self) -> ExtElement:
        return ExtElement._make((_point(self.sigma, self.k), self.m, self.n, _require_group_modulus(self.modulus)))

    @property
    def matrix(self) -> Mat3:
        return self.element.matrix() if self._matrix is None else self._matrix

    def __str__(self) -> str:
        return str(self.element)


def _solve_uniform(prog: Progression, budget: int, sigma: Perm3 | None = None, k: int = 0) -> list[UniformSolution]:
    """The uniform solutions of the case (sigma, k), or of all twelve cases
    when sigma is None, each re-verified against every distinct step."""
    if len(prog.tuples) < 2:
        raise ValueError("uniform solving needs at least two tuples")
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    modulus = prog.modulus
    nn = modulus.n
    # a step that recurs, as in a cycling progression, is one condition: solve and verify it once
    steps = list(dict.fromkeys((src.entries, dst.entries) for src, dst in prog.steps()))
    points = _GROUP_POINTS["extension"] if sigma is None else (_point(sigma, k),)
    out = []
    for p, solutions in _cases(steps, points, modulus, budget):
        sigma_p, k_p = ALL_PERMS[p >> 1], p & 1
        for m, n in solutions:
            for src, dst in steps:
                if _act(p, m, n, src, nn) != dst:
                    s = UniformSolution(sigma_p, k_p, m, n, modulus)
                    raise RuntimeError(f"solver returned {s}, which does not realize every step")
            out.append(UniformSolution(sigma_p, k_p, m, n, modulus))
    return out


def solve_uniform(
    prog: Progression, sigma: Perm3, k: int, budget: int = DEFAULT_BUDGET
) -> list[UniformSolution]:
    """All (m, n) such that sigma U^k shift(m,n) maps every tuple to its successor.

    One linear equation per step (wrap-around included when cyclic), solved
    exactly; every returned solution is re-verified against the progression
    before being handed back. Solutions come in (m, n) order.
    """
    return _solve_uniform(prog, budget, sigma, k)


def solve_uniform_all_cases(prog: Progression, budget: int = DEFAULT_BUDGET) -> list[UniformSolution]:
    """The uniform solutions of all twelve (sigma, k) cases, in sort-key order."""
    return _solve_uniform(prog, budget)


def rich_element(modulus: Modulus | int) -> ExtElement:
    """Retrograde inversion enchaining as a group element, (13) V: its image of
    (x, y, z) keeps y and z in front and closes with the reflected y + z - x."""
    m = as_modulus(modulus)
    return ExtElement(TRANSPOSITION_13, JElement(1, 1, 0, m))


def orbit_of_element(g: ExtElement, seed: Vec3) -> list[Vec3]:
    """seed, g(seed), g^2(seed), ... up to the first return to seed."""
    out = [seed]
    current = g.apply(seed)
    while current != seed:
        out.append(current)
        current = g.apply(current)
    return out


def find_affine_morphisms(
    a: Progression, b: Progression, restrict_to_centralizer: bool = False
) -> list[AffineMap]:
    """All affine maps f with f(a_i) == b_i for every i, sorted by matrix rows
    and then translation.

    By default the search space is the n^2 componentwise maps x -> u*x + q
    (all of which commute with the voicing group). With
    restrict_to_centralizer it widens to the affine centralizer family
    x -> (diag(u) + (n/2)*ones*w^T) x + (q,q,q), with w over the family's
    covectors (see voicing.py), which has non-componentwise members for even
    n. Each covector w gives conditions linear in (u, q), solved exactly:
    u*x + q == y - (n/2)(w.a_i) for each entry x of a_i and y of b_i.
    """
    check_same_modulus(a.modulus, b.modulus)
    if len(a.tuples) != len(b.tuples):
        raise ValueError("progressions must have equal lengths")
    m = a.modulus
    nn, h = m.n, m.n // 2
    srcs = [v.entries for v in a.tuples]
    rows = [[x, 1] for src in srcs for x in src]
    out = []
    for w in _centralizer_covectors(nn) if restrict_to_centralizer else ((0, 0, 0),):
        shifts = [h * (w[0] * x + w[1] * y + w[2] * z) for x, y, z in srcs]
        rhs = [e - s for s, dst in zip(shifts, b.tuples) for e in dst.entries]
        # each covector gives n^2 maps, so a budget of n^2 never refuses
        for u, q in solve_linear(rows, rhs, m, budget=nn**2):
            out.append(_affine(_mat3(_centralizer_rows(u, w, nn), m), _vec3((q, q, q), m)))
    out.sort(key=lambda f: (f.linear.rows, f.translation.entries))
    return out


def verify_morphism_commutation(f: AffineMap, labels: Iterable[ExtElement]) -> bool:
    """True iff f g = g f as maps for every label g.

    In homogeneous coordinates this is the matrix condition A M == M A
    together with M b == b for the translation part.
    """
    a = f.linear
    b = f.translation
    for g in labels:
        mat = g.matrix()
        if a @ mat != mat @ a:
            return False
        if mat @ b != b:
            return False
    return True


def find_rich_voicing_cycle(
    chords: Sequence[frozenset[int] | set[int]], modulus: Modulus | int
) -> list[Vec3] | None:
    """Search for a RICH cycle through the given cyclic chord sequence.

    Tries every ordering of the first chord as the starting voicing and
    iterates RICH; succeeds when each image realizes the next chord (as a
    pitch-class set) and the orbit closes after exactly len(chords) steps.
    An empty sequence, or a first chord that is not three pitch classes,
    raises ValueError; a later chord that no voicing realizes gives None.
    """
    m = as_modulus(modulus)
    sets = [frozenset(c) for c in chords]
    if not sets:
        raise ValueError("chords is empty: a cycle needs at least one chord")
    if len(sets[0]) != 3:
        raise ValueError(f"the first chord {sorted(sets[0])} has {len(sets[0])} pitch classes; a voicing needs 3")
    step = rich_element(m).apply
    for start in permutations(sorted(sets[0])):
        v = Vec3.of(*start, m)
        cycle = [v]
        current = v
        ok = True
        for i in range(1, len(sets) + 1):
            current = step(current)
            if i < len(sets):
                if frozenset(current.entries) != sets[i]:
                    ok = False
                    break
                cycle.append(current)
            elif current != v:
                ok = False
        if ok:
            return cycle
    return None


def _network(prog: Progression, labels: Sequence[ExtElement] | None) -> tuple[list[tuple], list[tuple]]:
    """The progression network in one pass: its nodes, the distinct plain
    triples in first-seen order, and one edge (from, to, label text or None)
    per step. Triples are compared as plain entries, which is sound because a
    progression has one modulus; each distinct label object is formatted once."""
    steps = prog.steps()
    if labels is not None and len(labels) != len(steps):
        raise ValueError(f"expected {len(steps)} labels (one per edge), got {len(labels)}")
    index: dict[tuple, int] = {}
    for v in prog.tuples:
        index.setdefault(v.entries, len(index))
    if labels is None:
        texts = [None] * len(steps)
    else:
        # one label object often sits on every edge: format each distinct object once
        distinct = {id(g): g for g in labels}
        text_of = {key: str(g) for key, g in distinct.items()}
        texts = [text_of[id(g)] for g in labels]
    edges = [(index[src.entries], index[dst.entries], text) for (src, dst), text in zip(steps, texts)]
    return list(index), edges


def export_network_json(prog: Progression, labels: Sequence[ExtElement] | None = None) -> dict:
    """Graph document: tuples as nodes, one directed edge per step."""
    nodes, edges = _network(prog, labels)
    return {
        "modulus": prog.modulus.n,
        "cyclic": prog.cyclic,
        "nodes": [list(node) for node in nodes],
        "edges": [
            {"from": a, "to": b} if text is None else {"from": a, "to": b, "label": text} for a, b, text in edges
        ],
    }


def export_network_dot(prog: Progression, labels: Sequence[ExtElement] | None = None) -> str:
    """DOT rendering of the progression network, deterministically ordered."""
    nodes, edges = _network(prog, labels)
    names = ['"(%d,%d,%d)"' % node for node in nodes]
    lines = ["digraph progression {", "  rankdir=LR;"]
    lines += ["  %s;" % name for name in names]
    lines += [
        "  %s -> %s;" % (names[a], names[b]) if text is None else '  %s -> %s [label="%s"];' % (names[a], names[b], text)
        for a, b, text in edges
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
