import numpy as np
import pytest

from qmetric.groups import (FiniteGroupTable, FreeAbelian, GroupElement,
                            InfiniteDihedral, ProductZFinite)


@pytest.fixture
def z_group():
    return FreeAbelian(1)


@pytest.fixture
def z2_group():
    return FreeAbelian(2)


@pytest.fixture
def dihedral():
    return InfiniteDihedral()


@pytest.fixture
def z_x_z2():
    return ProductZFinite(FiniteGroupTable.cyclic(2))


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    for line in RESULTS:
        terminalreporter.write_line(line)


def random_element(rng: np.random.Generator, group) -> GroupElement:
    """Uniformly random canonical element with small integer part."""
    if isinstance(group, FreeAbelian):
        return GroupElement(tuple(int(x) for x in rng.integers(-5, 6, group.rank)))
    if isinstance(group, ProductZFinite):
        return GroupElement((int(rng.integers(-5, 6)),),
                            int(rng.integers(group.finite.order)))
    return GroupElement((int(rng.integers(-5, 6)),), int(rng.integers(2)))


def reference_mul(group, x, y) -> GroupElement:
    """(m, f)(m', f') = (m + sigma(f) m', f f'), written out for each family.

    An oracle for the group law, independent of ``mul_rows``: it reads only
    the family and its Cayley table.
    """
    if isinstance(group, FreeAbelian):
        return GroupElement(tuple(p + q for p, q in zip(x.z, y.z)))
    if isinstance(group, InfiniteDihedral):
        return GroupElement((x.z[0] + (-1) ** x.f * y.z[0],), x.f ^ y.f)
    return GroupElement((x.z[0] + y.z[0],), group.finite.table[x.f][y.f])


def reference_inv(group, x) -> GroupElement:
    """x^-1, written out for each family like reference_mul."""
    if isinstance(group, FreeAbelian):
        return GroupElement(tuple(-p for p in x.z))
    if isinstance(group, InfiniteDihedral):
        return GroupElement((-(-1) ** x.f * x.z[0],), x.f)
    return GroupElement((-x.z[0],), group.finite.inverse[x.f])


def z26_not_associative() -> list[list[int]]:
    """Z/26 with columns 2 and 15 swapped in rows 1 and 14.

    It keeps an identity and inverses but fails associativity at 368 triples,
    the first being (1, 1, 1).
    """
    rows = [[(i + j) % 26 for j in range(26)] for i in range(26)]
    for i in (1, 14):
        rows[i][2], rows[i][15] = rows[i][15], rows[i][2]
    return rows
