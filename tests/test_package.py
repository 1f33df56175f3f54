"""The package namespace: every public name resolves lazily to its module's object."""

import ast
import contextlib
import io
from importlib import import_module
from pathlib import Path

import pytest

import voicegroup
from voicegroup.extension import ext_decode, parse_element
from voicegroup.linalg import Mat3
from voicegroup.triadic import hook_normal_form_B, rho_inverse
from voicegroup.voicing import NotInGroup, decode


def test_all_and_dir_list_every_exported_name():
    assert voicegroup.__all__ == sorted(voicegroup._EXPORTS)
    assert set(voicegroup.__all__) <= set(dir(voicegroup))


def test_each_public_name_is_its_modules_object():
    wrong = [
        name
        for name, module in voicegroup._EXPORTS.items()
        if getattr(voicegroup, name) is not getattr(import_module(f"voicegroup.{module}"), name)
    ]
    assert wrong == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from voicegroup import *", namespace)
    for name in voicegroup.__all__:
        assert namespace[name] is getattr(voicegroup, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        voicegroup.no_such_name
    with pytest.raises(ImportError):
        exec("from voicegroup import no_such_name", {})
    assert not hasattr(voicegroup, "_is_int")


# Spellings retired in 0.1.0, each with its one surviving spelling in the README.
# affine_compose through rho_matrix, euler_phi and rho_from_wreath were never exported.
_RETIRED = {
    "crt_combine": "modring",
    "crt_split": "modring",
    "is_unit": "modring",
    "normalize": "modring",
    "Residue": "modring",
    "solve_homogeneous": "modring",
    "identity": "linalg",
    "normal_form_matrix": "voicing",
    "CosetTag": "extension",
    "conjugate_j": "extension",
    "enumerate_coset": "extension",
    "utt_compose": "triadic",
    "HookElement": "triadic",
    "hook_normal_form_A": "triadic",
    "affine_compose": "linalg",
    "apply": "voicing",
    "trace": "extension",
    "hook_generator_13U": "triadic",
    "hook_generator_13W": "triadic",
    "rho_matrix": "triadic",
    "diagonal_product_family": "structure",
    "mat_mul": "linalg",
    "TRANSPOSITION_12": "linalg",
    "TRANSPOSITION_23": "linalg",
    "CliError": "cli",
    "rich": "analysis",
    "is_invertible": "linalg",
    "ti_group": "structure",
    "euler_phi": "modring",
    "rho_from_wreath": "triadic",
    "NotInJ": "voicing",
    "NotInExtension": "extension",
    "NotInHook": "triadic",
}


@pytest.mark.parametrize("name, module", sorted(_RETIRED.items()))
def test_retired_spellings_are_gone(name, module):
    assert name not in voicegroup.__all__
    with pytest.raises(AttributeError):
        getattr(voicegroup, name)
    assert not hasattr(import_module(f"voicegroup.{module}"), name)


# Duplicate methods and properties retired in 0.1.0, as (class, name); the
# README names the one surviving spelling of each.
_RETIRED_ATTRIBUTES = [
    ("linalg", "Mat3", "of"),
    ("linalg", "Vec3", "x"),
    ("linalg", "Vec3", "y"),
    ("linalg", "Vec3", "z"),
    ("triadic", "UTT", "compose"),
    ("analysis", "Progression", "from_json"),
    ("voicing", "JElement", "from_generator"),
    ("voicing", "JElement", "is_mode_reversing"),
    ("extension", "ExtElement", "is_mode_reversing"),
    ("linalg", "AffineMap", "__call__"),
    ("extension", "ExtElement", "from_sigma"),
]


@pytest.mark.parametrize("module, cls, name", _RETIRED_ATTRIBUTES)
def test_retired_attributes_are_gone(module, cls, name):
    klass = getattr(import_module(f"voicegroup.{module}"), cls)
    assert not any(name in vars(base) for base in klass.__mro__)
    # every class has type's methods, __call__ among them, so hasattr reads only the others
    assert name in vars(type) or not hasattr(klass, name)


def test_library_modules_are_attributes_of_the_package():
    for module in set(voicegroup._EXPORTS.values()):
        assert getattr(voicegroup, module) is import_module(f"voicegroup.{module}")


def test_not_in_group_errors_share_one_base():
    # every membership refusal is NotInGroup itself, its message naming the group
    a = Mat3([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 7)
    e = parse_element("(12)", 12)
    for read, arg, message in [
        (decode, a, "matrix [[1,0,0],[0,1,0],[0,0,2]] is not a voicing-group element mod 7"),
        (ext_decode, a, "matrix [[1,0,0],[0,1,0],[0,0,2]] is not in the extended voicing group mod 7"),
        (rho_inverse, e, "(12) does not preserve root-position triads"),
        (hook_normal_form_B, e, "(12) does not preserve root-position triads"),
    ]:
        with pytest.raises(NotInGroup) as caught:
            read(arg)
        assert type(caught.value) is NotInGroup and str(caught.value) == message
    assert issubclass(NotInGroup, ValueError)


def _private_definitions(tree):
    """(name, statement) for each module-level function, class or assignment
    whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _referenced_name(node):
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_private_module_name_is_referenced():
    # a private helper that nothing in the package uses any more is dead code
    package = Path(voicegroup.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    references = [(module, _referenced_name(node), node) for module, tree in trees.items() for node in ast.walk(tree)]
    unused = []
    for module, tree in sorted(trees.items()):
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(n == name and (m != module or id(node) not in own) for m, n, node in references):
                unused.append(f"{module}: {name}")
    assert unused == []


_FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}


def test_no_module_caches_through_functools():
    # an unbounded cache would hide a slow algorithm, so none is imported or applied
    found = []
    for path in sorted(Path(voicegroup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)]
        aliases = {a.asname or a.name for node in imports for a in node.names if a.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [a.name for a in node.names if a.name in _FUNCTOOLS_CACHES | {"*"}]
                found += [f"{path.name}:{node.lineno} imports {name}" for name in names]
            elif isinstance(node, ast.Attribute) and node.attr in _FUNCTOOLS_CACHES:
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    found.append(f"{path.name}:{node.lineno} applies functools.{node.attr}")
    assert found == []


def test_matrices_multiply_and_act_only_through_matmul():
    # a @ b and a @ v are the library's one matrix product and action;
    # mat_vec(a, v) is kept, as a @ v, for callers outside the library
    package = Path(voicegroup.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno} names {name}"
            for node in ast.walk(tree)
            if (name := _referenced_name(node)) in ("mat_mul", "mat_vec")
        ]
    assert found == []


def _imported_names(node):
    """The dotted names an import statement reads: each module, and for a
    from-import each imported name under its module."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(f"{node.module or ''}.{a.name}" for a in node.names)]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    return []


def test_group_points_have_one_table_and_the_kernel_takes_the_point():
    # voicing maps each group name to its points; analysis reads them there, not
    # off triadic, and no module past voicing splits a point into its slots
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in Path(voicegroup.__file__).parent.glob("*.py")}
    tables = [
        module
        for module, tree in sorted(trees.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "_GROUP_POINTS"
    ]
    assert tables == ["voicing.py"]
    triadic = [
        node.lineno
        for node in ast.walk(trees["analysis.py"])
        if any("triadic" in name.split(".") for name in _imported_names(node))
    ]
    assert triadic == []
    slots = [
        f"{module}:{node.lineno}"
        for module in ("structure.py", "triadic.py")
        for node in ast.walk(trees[module])
        if _referenced_name(node) == "_SLOTS"
    ]
    assert slots == []


def _readme_quick_tour() -> str:
    """The python block under README's "Library quick tour" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_prints_what_its_comments_say():
    # Each top-level print must produce the text its trailing comment starts
    # with, whitespace normalised; the one loop, over the Grail's solutions,
    # prints one line per solution.
    source = _readme_quick_tour()
    lines = source.splitlines()
    namespace, prints, loops = {}, 0, 0
    for node in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module(body=[node], type_ignores=[]), "<README quick tour>", "exec"), namespace)
        printed = out.getvalue().splitlines()
        if isinstance(node, ast.For):
            assert len(printed) == 4
            loops += 1
        elif printed:
            comment = lines[node.lineno - 1].partition("#")[2]
            assert len(printed) == 1 and printed[0].strip()
            assert " ".join(comment.split()).startswith(" ".join(printed[0].split())), (printed[0], comment)
            prints += 1
    assert (prints, loops) == (4, 1)
