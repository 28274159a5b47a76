"""Stock Cayley tables used as fixtures and demo inputs.

Group tables (cyclic, Klein four, symmetric, dihedral, quaternion) give
degenerate carriers: every gyration is the identity.  A genuinely
nondegenerate finite carrier is produced by :func:`square_root_twist`
applied to a nonabelian group of odd order -- the classical B-loop
operation a*b = sqrt(a) b sqrt(a), which has nontrivial gyrations exactly
where the underlying group fails to commute.  Nothing here is trusted:
tests re-certify each table through the exhaustive validator.
"""

from itertools import permutations

import numpy as np

from .core import _read_int
from .finite import CayleyTable


def cyclic(n):
    """Additive group Z/n."""
    ai = np.arange(n)
    return (ai[:, None] + ai[None, :]) % n


def klein_four():
    """Z/2 x Z/2 via bitwise xor on 0..3."""
    ai = np.arange(4)
    return ai[:, None] ^ ai[None, :]


def symmetric(k):
    """Sym(k) under composition; elements are one-line permutations in
    lexicographic order, so element 0 is the identity."""
    perms = sorted(permutations(range(k)))
    idx = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    t = np.empty((n, n), dtype=np.int64)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            t[a, b] = idx[tuple(p[q[i]] for i in range(k))]
    return t


def dihedral(k):
    """Dihedral group of order 2k; element r + k*s is rotation r, flip s."""
    n = 2 * k
    t = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        r1, s1 = a % k, a // k
        for b in range(n):
            r2, s2 = b % k, b // k
            r = (r1 + (r2 if s1 == 0 else -r2)) % k
            t[a, b] = r + k * (s1 ^ s2)
    return t


def quaternion():
    """Quaternion group of order 8 on units 1,-1,i,-i,j,-j,k,-k."""
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    idx = {u: i for i, u in enumerate(units)}

    def mul(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    t = np.empty((8, 8), dtype=np.int64)
    for a, p in enumerate(units):
        for b, q in enumerate(units):
            t[a, b] = idx[mul(p, q)]
    return t


def frobenius(p, q, r):
    """Z/p semidirect Z/q of order pq, the Z/q part acting by multiplication
    by r: (i, j) + (i', j') = (i + r^j i', j + j').  Element i*q + j is the
    pair (i, j).  Needs r^q = 1 (mod p), so that j may be read mod q."""
    p, q, r = (_read_int(x, name) for x, name in zip((p, q, r), "pqr"))
    if p < 2 or q < 1 or pow(r, q, p) != 1:
        raise ValueError(f"need p >= 2, q >= 1 and r^q = 1 (mod p), not {p, q, r}")
    i, j = np.arange(p * q) // q, np.arange(p * q) % q
    rj = np.array([pow(r, int(e), p) for e in j], dtype=np.int64)
    return ((i[:, None] + rj[:, None] * i[None, :]) % p) * q \
        + (j[:, None] + j[None, :]) % q


def frobenius21():
    """The nonabelian group of order 21: ``frobenius(7, 3, 2)``."""
    return frobenius(7, 3, 2)


def square_root_twist(group_table):
    """Twist an odd-order group table into a*b = sqrt(a) b sqrt(a).

    Square roots are unique in a group of odd order (sqrt(x) = x^((m+1)/2)
    for m = |x|), which makes the operation well defined.  For a nonabelian
    group the result is a nonassociative loop whose gyrations are nontrivial;
    run it through validate_gyrogroup to certify the gyrogroup axioms.
    Raises ValueError for an argument the table reader refuses (not
    square, not integers, entries outside 0..n-1), or if some
    x^((n+1)/2) does not square to x.
    """
    t = CayleyTable(order=len(group_table), table=group_table).table
    n = t.shape[0]
    if n % 2 == 0:
        raise ValueError("square-root twist needs a group of odd order")
    ai = np.arange(n)
    # x^(n+1) = x by Lagrange, so x^((n+1)/2) squares to x
    sqrt = np.zeros(n, dtype=np.int64)
    for _ in range((n + 1) // 2):
        sqrt = t[sqrt, ai]
    bad = np.flatnonzero(t[sqrt, sqrt] != ai)
    if len(bad):
        raise ValueError(f"not a group table: {bad[0]} has no square root")
    return t[t[sqrt[:, None], ai[None, :]], sqrt[:, None]]


def twisted21():
    """Order-21 nondegenerate gyrocommutative fixture (see square_root_twist)."""
    return square_root_twist(frobenius21())
