"""Command-line frontend: each subcommand returns its document, and `main`
prints it as text or JSON and maps each error to its exit code (0 success,
1 parse/usage error, 2 matrix not in the group, 3 search budget exceeded).
Permutations are written in comma-free cycle notation ('(12)', '(13)'),
vectors with commas ('0,4,7'); matrices and progression files are JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from .modring import DEFAULT_BUDGET, BudgetExceeded, Modulus, _ascii_int, _is_int
from .linalg import Mat3, Perm3, Vec3
from .voicing import NotInGroup, word_to_element
from .extension import ExtElement, ext_decode, parse_element

# Every subcommand needs the layers above. A handler imports structure,
# triadic or analysis itself, so a process loads only what it runs.

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_IN_GROUP = 2
EXIT_BUDGET = 3

# `rich --steps` prints every step, so a larger count is refused, not built.
MAX_RICH_STEPS = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the parse-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _int_option(text: str) -> int:
    """argparse type of the integer options: ASCII digits only, refused with
    argparse's own "invalid int value" message."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_vec(text: str, modulus: Modulus) -> Vec3:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated entries, got {text!r}")
    try:
        return Vec3.of(*map(_ascii_int, parts), modulus)
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}: {exc}") from exc


def _parse_matrix(text: str, modulus: Modulus) -> Mat3:
    try:
        rows = json.loads(text)
        matrix = Mat3(rows, modulus)
        # Mat3 refuses a float or a string entry; a bool is an integer to it, but not to JSON
        if not all(_is_int(x) for row in rows for x in row):
            raise ValueError("entries must be integers")
        return matrix
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot parse matrix {text!r}: {exc}") from exc


def _element_payload(e: ExtElement) -> dict:
    return {
        "sigma": e.sigma.cycle_notation(),
        "k": e.k,
        "m": e.m,
        "n": e.n,
        "modulus": e.modulus.n,
        "text": str(e),
        "matrix": [list(r) for r in e.matrix().rows],
    }


def _emit(args, payload: Callable[[], dict], text_lines: Callable[[], list[str]]) -> None:
    """Print the document a handler returns: its JSON payload or its text
    lines, as --format says; only the one printed is built."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    else:
        for line in text_lines():
            print(line)


def _load_progression(path: str, args) -> Progression:
    from .analysis import Progression

    try:
        with open(path, "r", encoding="utf-8") as fh:
            prog = Progression.from_jsonable(json.load(fh))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed progression file {path}: {exc}")
    if args.mod is not None and args.mod != prog.modulus.n:
        raise ValueError(f"--mod {args.mod} does not match the modulus {prog.modulus.n} of {path}")
    if getattr(args, "cyclic", False) and not prog.cyclic:
        prog = Progression(prog.modulus, prog.tuples, cyclic=True)
    return prog


def _cmd_normal_form(args) -> tuple:
    modulus = Modulus(args.mod)
    if args.word is not None:
        cleaned = args.word.replace(" ", "")
        if not cleaned or any(c not in "UVW" for c in cleaned):
            raise ValueError(f"word must consist of the letters U, V, W: {args.word!r}")
        element = ExtElement.from_j(word_to_element(cleaned, modulus))
    else:
        element = ext_decode(_parse_matrix(args.matrix, modulus))
    return lambda: _element_payload(element), lambda: [str(element), f"matrix: {element.matrix()}"]


def _solve_case(prog: Progression, args) -> list:
    """The uniform solutions of the case named by --sigma and --k; an omitted
    part defaults to the identity permutation or k = 0."""
    from .analysis import solve_uniform

    sigma = Perm3.from_cycle(args.sigma) if args.sigma else Perm3.identity()
    return solve_uniform(prog, sigma, args.k if args.k is not None else 0, args.budget)


def _cmd_solve(args) -> tuple:
    from .analysis import solve_uniform_all_cases

    prog = _load_progression(args.progression, args)
    if args.sigma is None and args.k is None:
        solutions = solve_uniform_all_cases(prog, args.budget)
    else:
        solutions = _solve_case(prog, args)
    return (
        lambda: {
            "modulus": prog.modulus.n,
            "cyclic": prog.cyclic,
            "solutions": [_element_payload(s.element) for s in solutions],
        },
        lambda: [f"{s}  matrix: {s.matrix}" for s in solutions] or ["no solutions"],
    )


def _cmd_centralizer(args) -> tuple:
    from .structure import Ambient, centralizer_in_Aff, centralizer_in_GL3, centralizer_in_M3

    modulus = Modulus(args.mod)
    ambient = Ambient(args.ambient)
    if ambient is Ambient.M3:
        report = centralizer_in_M3(modulus, args.budget)
    elif ambient is Ambient.GL3:
        report = centralizer_in_GL3(modulus, args.budget)
    else:
        report = centralizer_in_Aff(modulus, ambient is Ambient.AFF_GROUP, args.budget)

    def lines():
        head = [f"ambient: {report.ambient.value}", f"size: {report.size}"]
        if ambient in (Ambient.M3, Ambient.GL3):
            return head + [str(m) for m in report.elements]
        return head + [f"{f.linear} + {f.translation}" for f in report.elements]

    return report.to_jsonable, lines


def _cmd_center(args) -> tuple:
    from .structure import center_of_J

    modulus = Modulus(args.mod)
    elements = center_of_J(modulus)
    return (
        lambda: {
            "modulus": modulus.n,
            "size": len(elements),
            "elements": [{"k": e.k, "m": e.m, "n": e.n, "text": str(e)} for e in elements],
        },
        lambda: [f"size: {len(elements)}"] + [str(e) for e in elements],
    )


def _cmd_count(args) -> tuple:
    from .structure import index_of_J

    modulus = Modulus(args.mod)
    index = index_of_J(modulus, args.ambient.upper(), args.budget)
    count = index * 2 * modulus.n**2  # index_of_J checked that the division is exact
    return (
        lambda: {"ambient": args.ambient, "modulus": modulus.n, "order": count, "voicing_group_index": index},
        lambda: [f"|{args.ambient.upper()}(3,Z/{modulus.n})| = {count}", f"index of voicing group: {index}"],
    )


# The generators of each orbit group, as element texts read by parse_element.
_ORBIT_GENERATORS = {
    "j": ("U", "V", "W"),
    "j+": ("UV", "UW"),
    "extension": ("U", "V", "W", "(12)", "(13)"),
    "sigma-j+": ("UV", "UW", "(12)", "(123)"),
    "hook": ("(13) U", "(13) U (UW)"),
}


def _orbit_generators(group: str, modulus: Modulus) -> list[ExtElement]:
    return [parse_element(text, modulus) for text in _ORBIT_GENERATORS[group]]


def _cmd_orbit(args) -> tuple:
    from .triadic import orbit

    modulus = Modulus(args.mod)
    seed = _parse_vec(args.seed, modulus)
    generators = _orbit_generators(args.group, modulus)
    result = sorted(orbit(generators, seed), key=lambda v: v.entries)
    return (
        lambda: {
            "modulus": modulus.n,
            "group": args.group,
            "seed": list(seed.entries),
            "size": len(result),
            "orbit": [list(v.entries) for v in result],
        },
        lambda: [f"size: {len(result)}"] + [str(v) for v in result],
    )


def _cmd_hook(args) -> tuple:
    from .triadic import UTT, rho, rho_inverse

    if args.direction == "to-utt":
        if not args.element:
            raise ValueError("to-utt needs --element")
        element = parse_element(args.element, Modulus(12))
        utt = rho_inverse(element)
        return lambda: {"element": str(element), "utt": str(utt)}, lambda: [str(utt)]
    if not args.utt:
        raise ValueError("from-utt needs --utt")
    utt = UTT.parse(args.utt)
    h = rho(utt)
    return lambda: {"utt": str(utt), **_element_payload(h)}, lambda: [str(h), f"matrix: {h.matrix()}"]


def _cmd_rich(args) -> tuple:
    from .analysis import orbit_of_element, rich_element

    if args.steps is not None and args.steps < 0:
        raise ValueError(f"--steps must be non-negative, got {args.steps}")
    if args.steps is not None and args.steps > MAX_RICH_STEPS:
        raise ValueError(f"--steps must be at most {MAX_RICH_STEPS}, got {args.steps}")
    modulus = Modulus(args.mod)
    seed = _parse_vec(args.seed, modulus)
    element = rich_element(modulus)
    cycle = orbit_of_element(element, seed)
    if args.steps is not None:
        shown = [cycle[i % len(cycle)] for i in range(args.steps + 1)]
    else:
        shown = cycle
    return (
        lambda: {
            "modulus": modulus.n,
            "seed": list(seed.entries),
            "cycle_length": len(cycle),
            "tuples": [list(v.entries) for v in shown],
        },
        lambda: [f"cycle length: {len(cycle)}", " -> ".join(str(v) for v in shown)],
    )


def _cmd_export_dot(args) -> tuple | None:
    from .analysis import export_network_dot, export_network_json

    prog = _load_progression(args.progression, args)
    labels = None
    if args.sigma is not None or args.k is not None:
        solutions = _solve_case(prog, args)
        if not solutions:
            print("no solutions", file=sys.stderr)
            return None
        labels = [solutions[0].element] * len(prog.steps())
    return lambda: export_network_json(prog, labels), lambda: export_network_dot(prog, labels).splitlines()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="voicegroup", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json"), with_mod=True, with_budget=True):
        if with_mod:
            p.add_argument("--mod", type=_int_option, default=12, help="modulus (default 12)")
        p.add_argument("--format", choices=formats, default=formats[0])
        if with_budget:
            p.add_argument("--budget", type=_int_option, default=DEFAULT_BUDGET, help="candidate budget for exhaustive searches")

    p = sub.add_parser("normal-form", help="normal form of a generator word or matrix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="generator word, e.g. VW")
    group.add_argument("--matrix", help="row-major JSON matrix, e.g. [[0,1,0],[1,0,0],[1,1,11]]")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("solve", help="uniform solutions realizing a progression")
    p.add_argument("progression", help="progression JSON file")
    p.add_argument("--sigma", help="permutation part in cycle notation, e.g. (12)")
    p.add_argument("--k", type=_int_option, choices=(0, 1), help="reflection bit")
    p.add_argument("--cyclic", action="store_true", help="include the wrap-around step")
    p.add_argument("--mod", type=_int_option, help="must equal the progression file's modulus")
    add_common(p, with_mod=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("centralizer", help="centralizer of the voicing group")
    # the values of structure.Ambient, written out so that parsing needs no structure
    p.add_argument("--ambient", choices=("m3", "gl3", "aff", "affx"), default="gl3")
    add_common(p)
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("center", help="center of the voicing group")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("count", help="order of GL3 or SL3 over Z/n, from the closed-form product")
    p.add_argument("ambient", choices=("gl3", "sl3"))
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("orbit", help="orbit of a seed voicing under a chosen group")
    p.add_argument("--seed", required=True, help="comma-separated voicing, e.g. 0,4,7")
    p.add_argument("--group", choices=sorted(_ORBIT_GENERATORS), default="extension")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("hook", help="convert between triadic transformations and group elements (mod 12)")
    p.add_argument("direction", choices=("to-utt", "from-utt"))
    p.add_argument("--element", help="group element, e.g. (13)W")
    p.add_argument("--utt", help="triadic transformation, e.g. <-,0,0>")
    add_common(p, with_mod=False, with_budget=False)
    p.set_defaults(func=_cmd_hook)

    p = sub.add_parser("rich", help="iterate retrograde inversion enchaining from a seed")
    p.add_argument("--seed", required=True)
    p.add_argument("--steps", type=_int_option, help=f"number of steps, at most {MAX_RICH_STEPS} (default: full cycle)")
    add_common(p, with_budget=False)
    p.set_defaults(func=_cmd_rich)

    p = sub.add_parser("export-dot", help="export a progression network")
    p.add_argument("progression")
    p.add_argument("--sigma", help="label edges with the first uniform solution for this case")
    p.add_argument("--k", type=_int_option, choices=(0, 1))
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--mod", type=_int_option, help="must equal the progression file's modulus")
    add_common(p, formats=("dot", "json"), with_mod=False)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = args.func(args)
        if document is not None:
            _emit(args, *document)
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`); send the rest of the
        # buffered output, flushed again at exit, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except NotInGroup as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_GROUP
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
