"""Voicing-transformation groups over Z/n.

The package is organized bottom-up: exact modular arithmetic and linear
solving (modring), 3-dimensional linear algebra and permutations (linalg),
the voicing-reflection group in normal-form coordinates (voicing), its
permutation extension (extension), structural computations such as centers,
centralizers and orders (structure), consonant triads and the uniform
triadic transformation representation (triadic), and the progression
analysis engine (analysis). The CLI entry point lives in cli.
"""

from .modring import (
    BudgetExceeded,
    Modulus,
    Residue,
    crt_combine,
    crt_split,
    is_unit,
    normalize,
    solve_homogeneous,
    solve_linear,
    units,
)
from .linalg import (
    ALL_PERMS,
    AffineMap,
    Mat3,
    Perm3,
    Vec3,
    determinant,
    identity,
    is_invertible,
    mat_mul,
    mat_vec,
    perm_matrix,
    scalar_affine,
)
from .voicing import (
    Generator,
    JElement,
    NotInJ,
    decode,
    enumerate_J,
    generator_matrix,
    j_reflection,
    normal_form_matrix,
    word_to_element,
)
from .extension import (
    CosetTag,
    ExtElement,
    NotInExtension,
    conjugacy_class,
    conjugate_j,
    enumerate_coset,
    enumerate_extension,
    ext_decode,
    parse_element,
    sigma_conjugate_generator,
)
from .structure import (
    Ambient,
    CentralizerReport,
    DualityReport,
    center_of_J,
    centralizer_in_Aff,
    centralizer_in_GL3,
    centralizer_in_M3,
    check_duality,
    count_GL3,
    count_SL3,
    diagonal_product_family,
    index_of_J,
    monoid_centralizer_closed_form,
    orbit_restriction_table,
    restrict_to_orbit,
    ti_group,
    ti_orbit,
)
from .triadic import (
    HookElement,
    Mode,
    NotInHook,
    TriadClass,
    TriadId,
    UTT,
    classify,
    dualistic_tuple,
    hook_normal_form_A,
    hook_normal_form_B,
    orbit,
    rho,
    rho_inverse,
    root_position_tuple,
    stabilizer_of_set,
    utt_compose,
    wreath_generators,
)
from .analysis import (
    Progression,
    UniformSolution,
    export_network_dot,
    export_network_json,
    find_affine_morphisms,
    find_rich_voicing_cycle,
    orbit_of_element,
    rich,
    rich_element,
    solve_step,
    solve_step_bruteforce,
    solve_uniform,
    solve_uniform_all_cases,
    verify_morphism_commutation,
)

__version__ = "0.1.0"
