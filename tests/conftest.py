import numpy as np
import pytest

from gyrokit import BallGyrogroup, validate_action, validate_gyrogroup
from gyrokit.catalog import (cyclic, dihedral, frobenius, klein_four,
                             quaternion, square_root_twist, symmetric,
                             twisted21)
from gyrokit.core import violation
from gyrokit.finite import MAX_WITNESSES


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


# Reference oracle for validation stages 4-6: the dense algorithm, with the
# full (n, n, n) gyration array and the automorphism law checked once per
# pair (a, b).  It lives only here; the library stores each distinct
# gyration once.

GYRATION_CHECKS = ("gyration_bijective", "gyration_automorphism",
                   "left_gyroassociative", "left_gyroassociative_count",
                   "left_loop")


def two_sided_inverses(table):
    """inv[a] = the unique b with b + a = 0 = a + b, or None."""
    zeros = table == 0
    if not np.all(zeros.sum(axis=0) == 1):
        return None
    inv = np.argmax(zeros, axis=0)
    if not np.all(table[np.arange(len(table)), inv] == 0):
        return None
    return inv


def dense_gyration_diagnostics(table):
    """Stages 4-6 of the validator on a table with two-sided inverses."""
    table = np.asarray(table, dtype=np.int64)
    inv = two_sided_inverses(table)
    n = table.shape[0]
    ai = np.arange(n)
    a_bc = table[ai[:, None, None], table[None, :, :]]
    gyr = table[inv[table][:, :, None], a_bc]
    diags = []

    flat = gyr.reshape(n * n, n)
    not_bij = np.nonzero((np.sort(flat, axis=1) != ai).any(axis=1))[0]
    for k in not_bij[:MAX_WITNESSES]:
        a, b = divmod(int(k), n)
        diags.append(violation("gyration_bijective", (a, b),
                               f"gyr[{a},{b}] is not a bijection"))
    auto_count = 0
    for a in range(n):
        for b in range(n):
            p = gyr[a, b]
            lhs = p[table]
            rhs = table[np.ix_(p, p)]
            if not np.array_equal(lhs, rhs):
                auto_count += 1
                if auto_count <= MAX_WITNESSES:
                    u, v = map(int, np.argwhere(lhs != rhs)[0])
                    diags.append(violation(
                        "gyration_automorphism", (a, b, u, v),
                        f"gyr[{a},{b}]({u}+{v}) != gyr[{a},{b}]{u}+gyr[{a},{b}]{v}"))

    rhs = table[table[:, :, None], gyr]
    mism = np.argwhere(a_bc != rhs)
    for a, b, c in mism[:MAX_WITNESSES]:
        diags.append(violation(
            "left_gyroassociative", (int(a), int(b), int(c)),
            f"{a}+({b}+{c}) = {int(a_bc[a, b, c])} but "
            f"({a}+{b})+gyr[{a},{b}]{c} = {int(rhs[a, b, c])}"))
    if len(mism) > MAX_WITNESSES:
        diags.append(violation(
            "left_gyroassociative_count", (int(len(mism)),),
            f"{len(mism)} of {n ** 3} triples violate gyroassociativity"))

    shifted = gyr[table[:, :, None], ai[None, :, None], ai[None, None, :]]
    mism = np.argwhere(shifted != gyr)
    for a, b, c in mism[:MAX_WITNESSES]:
        diags.append(violation(
            "left_loop", (int(a), int(b), int(c)),
            f"gyr[{a}+{b},{b}]{c} = {int(shifted[a, b, c])} != "
            f"gyr[{a},{b}]{c} = {int(gyr[a, b, c])}"))
    return diags


def twisted39():
    """Order-39 nondegenerate carrier: square-root twist of Z13 : Z3."""
    return square_root_twist(frobenius(13, 3, 3))


# Reference oracle for the subgyrogroup lattice: the closure search over
# Python sets, closing s + {x} for every found s and every x outside it.
# It lives only here; the library extends by cyclic closures over masks.

def set_closure(g, seed):
    """Smallest subset containing seed and 0 closed under + and inverse."""
    return _set_closure(g.table.tolist(), g.inv.tolist(), seed)


def _set_closure(table, inv, seed):
    s = {int(x) for x in seed} | {0}
    while True:
        new = {inv[a] for a in s}
        new.update(table[a][b] for a in s for b in s)
        if new <= s:
            return tuple(sorted(s))
        s |= new


def closure_search_subgyrogroups(g):
    """Every subgyrogroup, sorted by (size, members)."""
    table, inv = g.table.tolist(), g.inv.tolist()
    found = {_set_closure(table, inv, ())}
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for x in range(g.order):
            if x not in s:
                c = _set_closure(table, inv, s + (x,))
                if c not in found:
                    found.add(c)
                    frontier.append(c)
    return sorted(found, key=lambda s: (len(s), s))


def is_subgyrogroup_loop(g, members):
    """Contains 0, lies in 0..n-1, closed under + and inverse."""
    s = {int(x) for x in members}
    if 0 not in s or not all(0 <= x < g.order for x in s):
        return False
    return all(g.oinv(a) in s and all(g.oplus(a, b) in s for b in s)
               for a in s)


def left_cosets_loop(g, h):
    """Reference for left_cosets: cosets a+H in order of first representative
    a, then overlaps (first coset, coset, element) in coset-then-element
    order, capped at MAX_WITNESSES; coset_of only for a partition."""
    h = sorted(h)
    cosets, reps = [], []
    for a in range(g.order):
        c = tuple(sorted(g.oplus(a, x) for x in h))
        if c not in cosets:
            cosets.append(c)
            reps.append(a)
    overlaps, hit = [], {}
    for i, c in enumerate(cosets):
        for x in c:
            if x in hit and len(overlaps) < MAX_WITNESSES:
                overlaps.append((hit[x], i, x))
            hit.setdefault(x, i)
    partition = not overlaps and len(hit) == g.order
    return (tuple(cosets), tuple(reps), tuple(overlaps), partition,
            tuple(hit[x] for x in range(g.order)) if partition else None)


class WrongGyrationBall(BallGyrogroup):
    """A ball whose gyr[a, b] is off by 1e-3 in the first coordinate exactly
    when a is the point ``bad``: every law that reads gyr[a, b] fails at
    the triples drawn with that a, and no other."""

    def __init__(self, bad, **kwargs):
        super().__init__(**kwargs)
        self.bad = np.asarray(bad)

    def gyration(self, a, b, c):
        hit = np.all(np.asarray(a) == self.bad, axis=-1)[..., None]
        return super().gyration(a, b, c) + 1e-3 * hit * np.eye(self.dim)[0]
