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


def z26_not_associative() -> list[list[int]]:
    """Z/26 with columns 2 and 15 swapped in rows 1 and 14.

    It keeps an identity and inverses but fails associativity at 368 triples,
    the first being (1, 1, 1).
    """
    rows = [[(i + j) % 26 for j in range(26)] for i in range(26)]
    for i in (1, 14):
        rows[i][2], rows[i][15] = rows[i][15], rows[i][2]
    return rows
