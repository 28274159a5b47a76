import numpy as np
import pytest

from gyrokit import validate_action, validate_gyrogroup
from gyrokit.catalog import (cyclic, dihedral, klein_four, quaternion,
                             symmetric, twisted21)


def group_tables():
    """All degenerate fixtures of orders 1..8 plus names."""
    tables = {f"Z{n}": cyclic(n) for n in range(1, 9)}
    tables["V4"] = klein_four()
    tables["S3"] = symmetric(3)
    tables["D4"] = dihedral(4)
    tables["Q8"] = quaternion()
    return tables


@pytest.fixture(scope="session")
def groups():
    return {name: validate_gyrogroup(t) for name, t in group_tables().items()}


@pytest.fixture(scope="session")
def z6(groups):
    return groups["Z6"]


@pytest.fixture(scope="session")
def s3(groups):
    return groups["S3"]


@pytest.fixture(scope="session")
def t21():
    """Nondegenerate order-21 carrier (square-root twist of Z7 : Z3)."""
    return validate_gyrogroup(twisted21())


def conjugation_table(g):
    n = g.order
    return np.array([[g.oplus(g.oplus(a, x), g.oinv(a)) for x in range(n)]
                     for a in range(n)])


@pytest.fixture(scope="session")
def s3_conjugation(s3):
    return validate_action(s3, conjugation_table(s3))


@pytest.fixture(scope="session")
def z6_mod3(z6):
    """Z6 acting on Z3 by reduction; kernel {0, 3}."""
    table = np.array([[(a + x) % 3 for x in range(3)] for a in range(6)])
    return validate_action(z6, table)


def trivial_action(g, points):
    return validate_action(g, np.tile(np.arange(points), (g.order, 1)))


def regular_action(g):
    return validate_action(g, np.array(g.table))


def classical_coset_table(g, members):
    """Independent oracle: the textbook group coset action, plain loops."""
    h = sorted(members)
    cosets = []
    for a in range(g.order):
        c = tuple(sorted(g.oplus(a, x) for x in h))
        if c not in cosets:
            cosets.append(c)
    table = []
    for a in range(g.order):
        row = []
        for c in cosets:
            image = tuple(sorted(g.oplus(a, x) for x in c))
            row.append(cosets.index(image))
        table.append(row)
    return np.array(table), cosets


# Reference loops for the FiniteGyrogroup gyration queries: plain row-major
# scans over single gyration values.

def gyration_leak_loop(g, members, over=None):
    """First (a, b, h) with gyr[a, b]h outside H, b ranging over ``over``."""
    h = sorted(members)
    bs = range(g.order) if over is None else sorted(over)
    for a in range(g.order):
        for b in bs:
            for x in h:
                if g.gyration(a, b, x) not in h:
                    return (a, b, x)
    return None


def defect_leak_loop(g, members):
    """First (a, b, x) with -x + gyr[a, b]x outside H."""
    n = g.order
    for a in range(n):
        for b in range(n):
            for x in range(n):
                if g.oplus(g.oinv(x), g.gyration(a, b, x)) not in members:
                    return (a, b, x)
    return None


def nontrivial_gyration_loop(g):
    """First (a, b, c) with gyr[a, b]c != c."""
    n = g.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if g.gyration(a, b, c) != c:
                    return (a, b, c)
    return None


# subsets of twisted21() that some gyration moves out of themselves; the
# last one is the index-3 L-subgyrogroup plus one element
T21_NON_INVARIANT = ((0, 1), (1, 2), (2, 7, 11), (0, 3, 6, 9, 12, 15, 18, 1))


@pytest.fixture(scope="session")
def fixture_carriers(groups, t21):
    """Every catalog fixture: the group tables and twisted21()."""
    return {**groups, "T21": t21}
