import pytest

from arrsheaf import build_lattice, catalog
from arrsheaf.arrangement import parse_arrangement

# ell = 4, not free, with nonzero H^1 and H^2 of D on the window 0:1
_NONFREE_4_7 = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1),
                (1, 0, 0, 0), (1, 1, -1, 1), (1, 2, 0, 0)]


@pytest.fixture(scope="session")
def arrangement_over():
    """arrangement_over(source, field): the catalog entry ``source`` (the
    arguments of ``catalog``) or ``"nonfree-4-7"``, over ``field``."""
    def build(source, field):
        if source == "nonfree-4-7":
            normals = _NONFREE_4_7
        else:
            cat = catalog(*source)
            normals = [cat.normal(h) for h in range(cat.size)]
        return parse_arrangement(f"field {field}\ndim {len(normals[0])}\n" + "".join(
            "hyperplane " + " ".join(map(str, n)) + "\n" for n in normals))
    return build


@pytest.fixture(scope="session")
def boolean2():
    return catalog("boolean", 2)


@pytest.fixture(scope="session")
def boolean3():
    return catalog("boolean", 3)


@pytest.fixture(scope="session")
def braid2():
    return catalog("braid", 2)


@pytest.fixture(scope="session")
def braid3():
    return catalog("braid", 3)


@pytest.fixture(scope="session")
def generic34():
    return catalog("generic", 3, 4)


@pytest.fixture(scope="session")
def boolean2_lattice(boolean2):
    return build_lattice(boolean2)


@pytest.fixture(scope="session")
def braid3_lattice(braid3):
    return build_lattice(braid3)


@pytest.fixture(scope="session")
def generic34_lattice(generic34):
    return build_lattice(generic34)
