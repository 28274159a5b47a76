import numpy as np
import pytest

from gyrokit import BallGyrogroup, validate_action, validate_gyrogroup
from gyrokit.catalog import (cyclic, dihedral, frobenius, klein_four,
                             quaternion, square_root_twist, symmetric,
                             twisted21)
from gyrokit.core import GyrogroupCarrier, violation
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


# The twisted Frobenius ladder: Z_p : Z_q, with Z_q acting by the smallest
# r > 1 of order q mod p, for the orders p * q = 21, 39, 57, 93 and 129.
LADDER_GROUPS = {p * q: (p, q, next(r for r in range(2, p) if pow(r, q, p) == 1))
                 for p, q in ((7, 3), (13, 3), (19, 3), (31, 3), (43, 3))}


def twist_gyrations(group):
    """Reference for the gyrations of square_root_twist(group), read off the
    group side: in the twist a (+) b = sqrt(a) b sqrt(a) of an odd-order
    group, gyr[a, b] is the conjugation c -> h c h^-1 by
    h = sqrt(a (+) b)^-1 sqrt(a) sqrt(b).  Returns gyr[a, b, c] as an
    (n, n, n) array; it evaluates no gyrator identity in the loop."""
    g = np.asarray(group)
    ai = np.arange(len(g))
    inv = np.argmax(g == 0, axis=1)
    sqrt = np.argsort(g[ai, ai])  # squaring is a bijection at odd order
    s_ab = sqrt[g[g[sqrt[:, None], ai], sqrt[:, None]]]  # sqrt(a (+) b)
    h = g[g[inv[s_ab], sqrt[:, None]], sqrt[None, :]]
    return g[g[h[:, :, None], ai], inv[h][:, :, None]]


# Reference oracle for the subgyrogroup lattice: the closure search over
# Python sets, closing s + {x} for every found s and every x outside it
# (one x per class of the sums h + x, h in s, which close alike).  It
# lives only here; the library extends by cyclic closures over masks.

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
        # s + {h + x} closes to what s + {x} does for h in s, as each sum
        # holds the other element: x = -h + (h + x) by left cancellation
        done = set(s)
        for x in range(g.order):
            if x not in done:
                done.update(table[h][x] for h in s)
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


# Independent models of the two ball carriers, written from their textbook
# formulas (Ungar, Analytic Hyperbolic Geometry, 2005) and sharing no
# expression with gyrokit.ball.  Each takes point batches (N, dim) and
# returns (u + v, gyr[u, v]w), both (N, dim).

def lorentz_boost(u):
    """The boosts L(u) in SO(1, n) of the velocities u, with c = 1, as
    (N, n + 1, n + 1) matrices: time first, then space."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    gamma = 1 / np.sqrt(1 - np.sum(u * u, axis=-1))
    out = np.empty((len(u), n + 1, n + 1))
    out[:, 0, 0] = gamma
    out[:, 0, 1:] = out[:, 1:, 0] = gamma[:, None] * u
    out[:, 1:, 1:] = np.eye(n) + ((gamma * gamma / (1 + gamma))[:, None, None]
                                  * u[:, :, None] * u[:, None, :])
    return out


def einstein_boost_model(u, v, w):
    """Einstein by Lorentz boosts: u + v is the velocity of L(u)L(v), the
    frame it moves the rest frame to, and gyr[u, v] is the Thomas-Wigner
    rotation, the spatial block of L(u + v)^-1 L(u)L(v) = L(-(u + v))L(u)L(v)."""
    product = lorentz_boost(u) @ lorentz_boost(v)
    s = product[:, 1:, 0] / product[:, :1, 0]
    rotation = (lorentz_boost(-s) @ product)[:, 1:, 1:]
    return s, np.einsum("nij,nj->ni", rotation, w)


def mobius_disk_model(u, v, w):
    """Mobius in dimension 1 or 2 by the complex disk (dimension 1 its real
    diameter): u + v = (u + v)/(1 + conj(u) v), and gyr[u, v] multiplies by
    (1 + u conj(v))/(1 + conj(u) v)."""
    dim = np.shape(u)[-1]
    a, b, c = (p[:, 0] + 1j * p[:, 1] if dim == 2 else p[:, 0] + 0j
               for p in (u, v, w))
    s = (a + b) / (1 + np.conj(a) * b)
    g = (1 + a * np.conj(b)) / (1 + np.conj(a) * b) * c
    return tuple(np.stack([z.real, z.imag], axis=-1)[:, :dim] for z in (s, g))


def mobius_phi_model(u, v, w):
    """Mobius in every dimension through the isomorphism phi(x) =
    2x/(1 + |x|^2) onto the Einstein ball: u + v = phi^-1(phi(u) + phi(v))
    and gyr[u, v]w = phi^-1(gyr[phi(u), phi(v)]phi(w)), evaluated by the
    boost model, with phi^-1(y) = y/(1 + sqrt(1 - |y|^2))."""
    def phi(x):
        return 2 * x / (1 + np.sum(x * x, axis=-1, keepdims=True))

    def phi_inverse(y):
        return y / (1 + np.sqrt(1 - np.sum(y * y, axis=-1, keepdims=True)))
    return tuple(map(phi_inverse, einstein_boost_model(phi(u), phi(v), phi(w))))


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


class SubsetCarrier(GyrogroupCarrier):
    """The members of ``carrier`` that satisfy ``predicate``, in the carrier
    form ``coset_criterion_sampled`` takes for its subgroup: ``contains``
    is ``carrier.contains`` and ``predicate`` together.  It draws what
    ``carrier`` draws or, with ``zero_only``, ``carrier.zero`` alone,
    drawing nothing from the generator.  The subset need not be a
    subgroup, so that a failing criterion can be checked."""

    def __init__(self, carrier, predicate, zero_only=False):
        self.carrier, self.predicate = carrier, predicate
        self.zero_only = zero_only

    def contains(self, x):
        return self.carrier.contains(x) & self.predicate(x)

    def sample_batch(self, rng, count):
        if self.zero_only:
            zero = self.carrier.zero
            return np.full((count, *np.shape(zero)), zero)
        return self.carrier.sample_batch(rng, count)

    def draw_plan(self, rng, count, bounds):
        if self.zero_only:
            return lambda k: self.sample_batch(rng, bounds[k + 1] - bounds[k])
        return self.carrier.draw_plan(rng, count, bounds)
