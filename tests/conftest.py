import pytest

from voicegroup.modring import Modulus
from voicegroup.linalg import Mat3
from voicegroup.extension import enumerate_extension
from voicegroup.voicing import JElement, enumerate_J
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
    """The matrices the given ones generate under @, by breadth-first
    search; with the identity among them, the monoid they generate. The
    enumeration oracle of the group listings, independent of the normal form."""
    seen = set(mats)
    frontier = list(mats)
    while frontier:
        nxt = []
        for a in frontier:
            for g in mats:
                c = a @ g
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


@pytest.fixture(scope="session")
def matrix_closure():
    return _matrix_closure


@pytest.fixture(scope="session")
def diagonal_products12():
    """The 30 products diag(u) * c over Z/12, u in Z/12 and c one of the four
    central involutions Id, (UV)^6, (UW)^6 and (UV)^6 (UW)^6: the family once
    stated as the monoid centralizer, built here by matrix products."""
    m = Modulus(12)
    involutions = [JElement(0, a, b, m).matrix() for a in (0, 6) for b in (0, 6)]
    return {
        Mat3(((u, 0, 0), (0, u, 0), (0, 0, u)), m) @ c
        for u in range(12)
        for c in involutions
    }
