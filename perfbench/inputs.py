"""Input builders for the benchmark, written apart from ``gyrokit.catalog``.

Every table is an int64 numpy array over elements 0..n-1 with element 0 the
identity.  The catalog is used only to check these builders on the cases
where both exist (see ``selftest``).
"""

import numpy as np

# (p, q) of the Frobenius groups Z_p x| Z_q whose square-root twists form the
# size ladder: orders 21, 39, 57, 93, 129, 203.
LADDER = ((7, 3), (13, 3), (19, 3), (31, 3), (43, 3), (29, 7))


def unit_of_order(p, q):
    """Smallest r > 1 with r^q = 1 mod p (r has order q since q is prime)."""
    for r in range(2, p):
        if pow(r, q, p) == 1:
            return r
    raise ValueError(f"no element of order {q} mod {p}")


def frobenius(p, q, r):
    """Z_p x| Z_q with Z_q acting by multiplication by r.

    Element i*q + j is the pair (i, j); (i1, j1)(i2, j2) =
    (i1 + r^j1 i2 mod p, j1 + j2 mod q).
    """
    n = p * q
    i = np.arange(n) // q
    j = np.arange(n) % q
    rj = np.array([pow(r, int(k), p) for k in j], dtype=np.int64)
    ii = (i[:, None] + rj[:, None] * i[None, :]) % p
    jj = (j[:, None] + j[None, :]) % q
    return ii * q + jj


def dihedral(k):
    """Dihedral group of order 2k; element r + k*s is rotation r, flip s."""
    a = np.arange(2 * k)
    r, s = a % k, a // k
    rot = (r[:, None] + np.where(s[:, None] == 0, r[None, :], -r[None, :])) % k
    return rot + k * (s[:, None] ^ s[None, :])


def power_table(t, e):
    """x -> x^e for every element x of a group table, by repeated products."""
    n = t.shape[0]
    acc = np.zeros(n, dtype=np.int64)
    for _ in range(e):
        acc = t[acc, np.arange(n)]
    return acc


def square_root_twist(t):
    """a*b = sqrt(a) b sqrt(a) for a group of odd order n (sqrt(x) = x^((n+1)/2))."""
    n = t.shape[0]
    sqrt = power_table(t, (n + 1) // 2)
    if not np.array_equal(t[sqrt, sqrt], np.arange(n)):
        raise ValueError("square roots failed; is the group of odd order?")
    return t[t[sqrt[:, None], np.arange(n)[None, :]], sqrt[:, None]]


def ladder_twist(p, q):
    return square_root_twist(frobenius(p, q, unit_of_order(p, q)))


def normal_p_subgroup(p, q):
    """The normal subgroup Z_p = {(i, 0)} of frobenius(p, q, r), by label."""
    return tuple(i * q for i in range(p))


def relabelling(rng, n):
    """A seeded permutation of 0..n-1 that fixes the identity 0."""
    return np.concatenate(([0], 1 + rng.permutation(n - 1))).astype(np.int64)


def relabel_table(t, perm):
    """The isomorphic table with element x renamed perm[x]."""
    inv = np.argsort(perm)
    return perm[t[inv[:, None], inv[None, :]]]


def corrupt(t, rng, kind):
    """A seeded corruption of a gyrogroup table.

    ``swap``: exchange two entries of one non-identity row.  The row stays a
    permutation, but a column now repeats a value, so right cancellation
    fails and the table is no gyrogroup.
    ``overwrite``: copy one entry of a non-identity row onto another, so
    the row is no permutation.
    """
    n = t.shape[0]
    out = t.copy()
    a = int(rng.integers(1, n))
    b1, b2 = (int(x) for x in rng.choice(n, size=2, replace=False))
    if kind == "swap":
        out[a, b1], out[a, b2] = t[a, b2], t[a, b1]
    elif kind == "overwrite":
        out[a, b1] = t[a, b2]
    else:
        raise ValueError(kind)
    return out


def coset_labels(t, members):
    """coset_of[x] and one representative per left coset x + H, by bench code."""
    n = t.shape[0]
    h = np.array(sorted(members))
    coset_of = np.full(n, -1, dtype=np.int64)
    reps = []
    for x in range(n):
        if coset_of[x] < 0:
            coset_of[t[x, h]] = len(reps)
            reps.append(x)
    return coset_of, np.array(reps, dtype=np.int64)


def coset_action_table(t, members):
    """a.(x + H) = (a + x) + H as an (n, n/|H|) table."""
    coset_of, reps = coset_labels(t, members)
    return coset_of[t[:, reps]]


def union_table(tables):
    """Disjoint union of action tables of one carrier."""
    out, offset = [], 0
    for tab in tables:
        out.append(tab + offset)
        offset += tab.shape[1]
    return np.hstack(out)


def relabel_points(table, perm):
    """Rename point x to perm[x]."""
    return perm[table[:, np.argsort(perm)]]


def write_table(path, t):
    rows = "\n".join(" ".join(map(str, row)) for row in t.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"gyro {t.shape[0]}\n{rows}\n")
    return path


def write_action(path, table):
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"action {table.shape[0]} {table.shape[1]}\n{rows}\n")
    return path


def selftest(catalog):
    """The builders agree with the catalog where both exist."""
    f = frobenius(7, 3, 2)
    if unit_of_order(7, 3) != 2 or not np.array_equal(f, catalog.frobenius21()):
        raise AssertionError("frobenius(7, 3, 2) != catalog.frobenius21()")
    # associativity of every ladder group, exhaustively, one a at a time so
    # that memory stays O(n^2)
    for p, q in LADDER:
        g = frobenius(p, q, unit_of_order(p, q))
        for a in range(p * q):
            if not np.array_equal(g[g[a]], g[a][g]):
                raise AssertionError(f"frobenius({p}, {q}) is not associative")
    if not np.array_equal(square_root_twist(f), catalog.twisted21()):
        raise AssertionError("square_root_twist(frobenius21) != catalog.twisted21()")
    for k in (3, 4, 16):
        if not np.array_equal(dihedral(k), catalog.dihedral(k)):
            raise AssertionError(f"dihedral({k}) != catalog.dihedral({k})")
