"""Voicing-transformation groups over Z/n.

The package is organized bottom-up: exact modular arithmetic and linear
solving (modring), 3-dimensional linear algebra and permutations (linalg),
the voicing-reflection group in normal-form coordinates (voicing), its
permutation extension (extension), structural computations such as centers,
centralizers and orders (structure), consonant triads and the uniform
triadic transformation representation (triadic), and the progression
analysis engine (analysis). The CLI entry point lives in cli.

Importing the package loads none of these modules. Each public name below
is imported from its module on first use (PEP 562), so a program, and each
CLI subcommand, pays only for the layers it runs.
"""

from importlib import import_module

# Each public name, mapped to the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "modring": (
            "BudgetExceeded",
            "Modulus",
            "solve_linear",
            "units",
        ),
        "linalg": (
            "ALL_PERMS",
            "AffineMap",
            "Mat3",
            "Perm3",
            "Vec3",
            "determinant",
            "mat_vec",
            "perm_matrix",
            "scalar_affine",
        ),
        "voicing": (
            "Generator",
            "JElement",
            "NotInGroup",
            "decode",
            "enumerate_J",
            "generator_matrix",
            "j_reflection",
            "sigma_conjugate_generator",
            "word_to_element",
        ),
        "extension": (
            "ExtElement",
            "conjugacy_class",
            "enumerate_extension",
            "ext_decode",
            "parse_element",
        ),
        "structure": (
            "Ambient",
            "CentralizerReport",
            "DualityReport",
            "center_of_J",
            "centralizer_in_Aff",
            "centralizer_in_GL3",
            "centralizer_in_M3",
            "check_duality",
            "count_GL3",
            "count_SL3",
            "index_of_J",
            "monoid_centralizer_closed_form",
            "orbit_restriction_table",
            "restrict_to_orbit",
            "ti_orbit",
        ),
        "triadic": (
            "Mode",
            "TriadClass",
            "TriadId",
            "UTT",
            "classify",
            "dualistic_tuple",
            "hook_normal_form_B",
            "orbit",
            "rho",
            "rho_inverse",
            "root_position_tuple",
            "stabilizer_of_set",
            "wreath_generators",
        ),
        "analysis": (
            "Progression",
            "UniformSolution",
            "export_network_dot",
            "export_network_json",
            "find_affine_morphisms",
            "find_rich_voicing_cycle",
            "orbit_of_element",
            "rich_element",
            "solve_step",
            "solve_step_bruteforce",
            "solve_uniform",
            "solve_uniform_all_cases",
            "verify_morphism_commutation",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in globals(): each lookup reads the defining module, so a
    # name patched there (by a tracer, say) is never shadowed by a stale copy.
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():  # a library module, e.g. voicegroup.structure
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
