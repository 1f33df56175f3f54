import pytest

from voicegroup.modring import Modulus
from voicegroup.linalg import mat_mul
from voicegroup.extension import enumerate_extension
from voicegroup.voicing import enumerate_J
from voicegroup.triadic import hook_elements


@pytest.fixture(scope="session")
def m12():
    return Modulus(12)


@pytest.fixture(scope="session")
def j12():
    return enumerate_J(12)


@pytest.fixture(scope="session")
def ext12():
    return enumerate_extension(12)


@pytest.fixture(scope="session")
def hooks():
    return hook_elements()


def _matrix_closure(mats):
    """The matrices the given ones generate under mat_mul, by breadth-first
    search; with the identity among them, the monoid they generate. The
    enumeration oracle of the group listings, independent of the normal form."""
    seen = set(mats)
    frontier = list(mats)
    while frontier:
        nxt = []
        for a in frontier:
            for g in mats:
                c = mat_mul(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


@pytest.fixture(scope="session")
def matrix_closure():
    return _matrix_closure
