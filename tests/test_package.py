"""The package namespace: every public name resolves lazily to its module's object."""

from importlib import import_module

import pytest

import voicegroup
from voicegroup.extension import NotInExtension
from voicegroup.triadic import NotInHook
from voicegroup.voicing import NotInGroup, NotInJ


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
# The last six were never exported.
_RETIRED = {
    "crt_combine": "modring",
    "crt_split": "modring",
    "is_unit": "modring",
    "normalize": "modring",
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
}


@pytest.mark.parametrize("name, module", sorted(_RETIRED.items()))
def test_retired_spellings_are_gone(name, module):
    assert name not in voicegroup.__all__
    with pytest.raises(AttributeError):
        getattr(voicegroup, name)
    assert not hasattr(import_module(f"voicegroup.{module}"), name)


def test_library_modules_are_attributes_of_the_package():
    for module in set(voicegroup._EXPORTS.values()):
        assert getattr(voicegroup, module) is import_module(f"voicegroup.{module}")


def test_not_in_group_errors_share_one_base():
    for error in (NotInJ, NotInExtension, NotInHook):
        assert issubclass(error, NotInGroup)
    assert issubclass(NotInGroup, ValueError)
