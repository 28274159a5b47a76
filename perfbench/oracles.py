"""Checks of the program's outputs, computed apart from the program.

Finite checks read only the input Cayley table and evaluate the laws
directly; ball checks use the textbook formulas and Ungar's closed-form
Mobius gyration.  None of them compares against a stored copy of earlier
output.  ``selftest`` first runs every check on cases with a known answer.
"""

import numpy as np

# -- finite tables -----------------------------------------------------------


def inverses(t):
    """inv[a] = the unique b with b + a = 0; None unless unique and two-sided."""
    zeros = t == 0
    if not np.all(zeros.sum(axis=0) == 1):
        return None
    inv = np.argmax(zeros, axis=0)
    if not np.all(t[np.arange(t.shape[0]), inv] == 0):
        return None
    return inv


def gyr(t, inv, a, b, c):
    """gyr[a, b]c = -(a + b) + (a + (b + c)), broadcast over index arrays."""
    return t[inv[t[a, b]], t[a, t[b, c]]]


def sample_laws(t, g, rng, samples):
    """Problems found on seeded triples of an accepted table.

    Reads the program's carrier through its element methods only (``oplus``,
    ``oinv``, ``gyration``), so that any storage of the carrier is checked
    alike: its operation and inverses against the table, its gyrations
    against the gyrator identity; then evaluates gyroassociativity and the
    left loop property.
    """
    n = t.shape[0]
    inv = inverses(t)
    if inv is None:
        return ["accepted table has no two-sided inverses"]
    problems = []
    elements = range(n)
    if [[g.oplus(x, y) for y in elements] for x in elements] != t.tolist():
        problems.append("carrier table differs from the input")
    if [g.oinv(x) for x in elements] != inv.tolist():
        problems.append("carrier inverses differ from the table's")
    a, b, c = (rng.integers(0, n, samples) for _ in range(3))
    gy = gyr(t, inv, a, b, c)
    mine = [g.gyration(int(x), int(y), int(z)) for x, y, z in zip(a, b, c)]
    if not np.array_equal(mine, gy):
        problems.append("gyr[a,b]c differs from the gyrator identity")
    if not np.array_equal(t[a, t[b, c]], t[t[a, b], gy]):
        problems.append("gyroassociativity fails")
    if not np.array_equal(gyr(t, inv, t[a, b], b, c), gy):
        problems.append("left loop property fails")
    return problems


def distinct_gyrations(t):
    """Number of distinct maps gyr[a, b] (exhaustive, O(n^3) memory)."""
    n = t.shape[0]
    inv = inverses(t)
    ai = np.arange(n)
    full = gyr(t, inv, ai[:, None, None], ai[None, :, None], ai[None, None, :])
    return len(np.unique(full.reshape(n * n, n), axis=0))


def _left_inverses(t, a):
    return [int(b) for b in np.nonzero(t[:, a] == 0)[0]]


def confirm_witness(t, check, witness):
    """True iff the law named by a diagnostic visibly fails at its witness."""
    n = t.shape[0]
    w = tuple(int(x) for x in witness)
    if check == "identity_row":
        return len(w) == 1 and t[0, w[0]] != w[0]
    if check == "row_permutation":
        if len(w) == 3:
            a, c1, c2 = w
            return c1 != c2 and t[a, c1] == t[a, c2]
        return len(w) == 1 and len(set(t[w[0]].tolist())) < n
    if check == "left_inverse_exists":
        return len(w) == 1 and not _left_inverses(t, w[0])
    if check == "left_inverse_unique":
        a, b1, b2 = w
        return b1 != b2 and {b1, b2} <= set(_left_inverses(t, a))
    if check == "inverse_two_sided":
        a, b = w
        return t[b, a] == 0 and t[a, b] != 0
    if check == "gyration_checks_skipped":
        return inverses(t) is None
    inv = inverses(t)
    if inv is None:
        return False
    if check == "gyration_bijective":
        a, b = w
        return len(set(gyr(t, inv, a, b, np.arange(n)).tolist())) < n
    if check == "gyration_automorphism":
        a, b, u, v = w
        return gyr(t, inv, a, b, t[u, v]) != t[gyr(t, inv, a, b, u),
                                               gyr(t, inv, a, b, v)]
    if check == "left_gyroassociative":
        a, b, c = w
        return t[a, t[b, c]] != t[t[a, b], gyr(t, inv, a, b, c)]
    if check == "left_gyroassociative_count":
        ai = np.arange(n)
        a, b, c = ai[:, None, None], ai[None, :, None], ai[None, None, :]
        return int(np.count_nonzero(t[a, t[b, c]] != t[t[a, b], gyr(t, inv, a, b, c)])) == w[0]
    if check == "left_loop":
        a, b, c = w
        return gyr(t, inv, t[a, b], b, c) != gyr(t, inv, a, b, c)
    return False


def closure(t, inv, mask):
    """Smallest subgyrogroup containing a boolean mask, as a mask."""
    mask = mask.copy()
    mask[0] = True
    while True:
        s = np.nonzero(mask)[0]
        new = mask.copy()
        new[t[np.ix_(s, s)].ravel()] = True
        new[inv[s]] = True
        if np.array_equal(new, mask):
            return mask
        mask = new


def lattice(t):
    """All subgyrogroups, by joining cyclic closures <x> until a fixed point.

    Every subgyrogroup H is the join of the <x> for x in H, so repeated
    joins of found members with cyclic closures reach every one of them.
    Sorted as the program sorts: by size, then members.
    """
    n = t.shape[0]
    inv = inverses(t)
    eye = np.eye(n, dtype=bool)
    cyclic = {}
    for x in range(n):
        c = closure(t, inv, eye[x])
        cyclic.setdefault(c.tobytes(), c)
    cyclic = list(cyclic.values())
    found = {m.tobytes(): m for m in cyclic}
    frontier = list(found.values())
    while frontier:
        h = frontier.pop()
        for c in cyclic:
            if np.all(h[c]):
                continue
            j = closure(t, inv, h | c)
            key = j.tobytes()
            if key not in found:
                found[key] = j
                frontier.append(j)
    subs = [tuple(int(x) for x in np.nonzero(m)[0]) for m in found.values()]
    return sorted(subs, key=lambda s: (len(s), s))


def is_l_subgyrogroup(t, inv, members):
    """gyr[a, h](H) = H for all a in G and h in H."""
    h = np.array(sorted(members))
    mask = np.zeros(t.shape[0], dtype=bool)
    mask[h] = True
    a = np.arange(t.shape[0])[:, None, None]
    return bool(np.all(mask[gyr(t, inv, a, h[None, :, None], h[None, None, :])]))


def criterion_witness(t, inv, members, check, witness):
    """A coset-criterion failure confirmed from the table.

    condition 1 witness (a, b, h): h in H but gyr[a, b]h not in H;
    condition 2 witness (a, b, x): -x + gyr[a, b]x not in H.
    """
    h = set(members)
    a, b, x = (int(v) for v in witness)
    if check == 1:
        return x in h and int(gyr(t, inv, a, b, x)) not in h
    return int(t[inv[x], gyr(t, inv, a, b, x)]) not in h


def action_problems(t, act):
    """Problems with act as an action of the table: identity, a.(b.x) = (a+b).x."""
    n, k = act.shape
    if act.shape[0] != t.shape[0] or act.min() < 0 or act.max() >= k:
        return ["action table has the wrong shape or range"]
    out = []
    if not np.array_equal(act[0], np.arange(k)):
        out.append("identity does not act trivially")
    for a in range(n):
        if not np.array_equal(act[a][act], act[t[a]]):
            out.append(f"a.(b.x) != (a+b).x at a={a}")
            break
    return out


def transitive_action_problems(t, act, points):
    out = action_problems(t, act)
    if act.shape[1] != points:
        out.append(f"{act.shape[1]} points, expected {points}")
    elif set(act[:, 0].tolist()) != set(range(points)):
        out.append("action is not transitive")
    return out


def orbits(act):
    """Orbits by union-find over the edges x -- a.x, ordered by least point."""
    k = act.shape[1]
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in set(zip(np.tile(np.arange(k), act.shape[0]).tolist(),
                        act.ravel().tolist())):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups = {}
    for x in range(k):
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(g) for g in groups.values())


def stabilizer(act, x):
    return tuple(int(a) for a in np.nonzero(act[:, x] == x)[0])


def kernel(act):
    return tuple(int(a) for a in np.nonzero((act == np.arange(act.shape[1])).all(axis=1))[0])


def burnside(act):
    """(number of pairs a.x = x) / |G|, as (numerator, denominator)."""
    return int(np.count_nonzero(act == np.arange(act.shape[1]))), act.shape[0]


def is_bijective_gmap(src, tgt, mapping):
    m = np.asarray(mapping, dtype=np.int64)
    k = src.shape[1]
    return (tgt.shape[1] == k and sorted(m.tolist()) == list(range(k))
            and np.array_equal(m[src], tgt[:, m]))


# -- ball carriers -----------------------------------------------------------


def _dot(u, v):
    return np.sum(u * v, axis=-1, keepdims=True)


def mobius_textbook(u, v):
    """[(1 + 2<u,v> + |v|^2) u + (1 - |u|^2) v] / (1 + 2<u,v> + |u|^2 |v|^2)."""
    uv, uu, vv = _dot(u, v), _dot(u, u), _dot(v, v)
    return ((1 + 2 * uv + vv) * u + (1 - uu) * v) / (1 + 2 * uv + uu * vv)


def mobius_to_einstein(v):
    """The gyrogroup isomorphism v -> 2v / (1 + |v|^2)."""
    return 2 * v / (1 + _dot(v, v))


def ungar_gyration(u, v, w):
    """Ungar's closed form of the Mobius gyration gyr[u, v]w = w + 2(Au + Bv)/D.

    A = -<u,w>|v|^2 + <v,w> + 2<u,v><v,w>, B = -<v,w>|u|^2 - <u,w>,
    D = 1 + 2<u,v> + |u|^2 |v|^2 (Ungar, Analytic Hyperbolic Geometry, 2005).
    """
    uv, uw, vw = _dot(u, v), _dot(u, w), _dot(v, w)
    uu, vv = _dot(u, u), _dot(v, v)
    a = -uw * vv + vw + 2 * uv * vw
    b = -vw * uu - uw
    return w + 2 * (a * u + b * v) / (1 + 2 * uv + uu * vv)


def sample_ball(rng, count, dim, max_norm):
    """Points drawn as the program's sample_batch draws them: a uniform
    direction scaled to radius max_norm * U^(1/dim)."""
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    return g * (max_norm * rng.random((count, 1)) ** (1.0 / dim))


def worst(x, y):
    return float(np.max(np.linalg.norm(np.asarray(x) - np.asarray(y), axis=-1)))


# -- known answers -----------------------------------------------------------


def selftest(inputs, catalog):
    """Run every check on cases whose answer is known; raise on a mismatch."""
    def expect(cond, what):
        if not cond:
            raise AssertionError(f"oracle self-test: {what}")

    d3, d4, q8 = inputs.dihedral(3), inputs.dihedral(4), catalog.quaternion()
    expect(len(lattice(d3)) == 6, "S_3 has 6 subgroups")
    expect(len(lattice(q8)) == 6, "Q_8 has 6 subgroups")
    expect(len(lattice(d4)) == 10, "D_4 has 10 subgroups")

    t21 = inputs.ladder_twist(7, 3)
    inv21 = inverses(t21)
    expect(distinct_gyrations(d4) == 1, "a group has only the identity gyration")
    expect(distinct_gyrations(t21) == 7, "the order-21 twist has 7 gyrations")
    ai = np.arange(21)
    a, b, c = ai[:, None, None], ai[None, :, None], ai[None, None, :]
    g21 = gyr(t21, inv21, a, b, c)
    expect(np.array_equal(t21[a, t21[b, c]], t21[t21[a, b], g21]),
           "the order-21 twist is gyroassociative")
    expect(np.array_equal(gyr(t21, inv21, t21[a, b], b, c), g21),
           "the order-21 twist has the left loop property")
    expect(not np.array_equal(t21[a, t21[b, c]], t21[t21[a, b], c]),
           "the order-21 twist is not associative")

    bad = d4.copy()
    bad[0, [1, 2]] = bad[0, [2, 1]]
    expect(confirm_witness(bad, "identity_row", (1,)), "identity_row witness")
    expect(not confirm_witness(bad, "identity_row", (3,)), "false identity_row witness")
    expect(not confirm_witness(d4, "left_gyroassociative", (1, 2, 3)),
           "a group has no gyroassociativity witness")
    expect(confirm_witness(d4, "left_gyroassociative_count", (0,)),
           "a group has 0 gyroassociativity violations")

    # a group satisfies the coset criterion for every H; the order-21 twist
    # fails condition 2 for H = {0}, since it has a nonidentity gyration
    expect(not criterion_witness(d4, inverses(d4), (0,), 2, (1, 4, 5)),
           "a group has no criterion witness")
    w = np.argwhere(g21 != c)[0]
    expect(criterion_witness(t21, inv21, (0,), 2, w), "criterion witness")
    expect(is_l_subgyrogroup(t21, inv21, inputs.normal_p_subgroup(7, 3)),
           "Z_7 is an L-subgyrogroup of the order-21 twist")

    centre = inputs.coset_action_table(d4, (0, 2))
    expect(not transitive_action_problems(d4, centre, 4), "D_4 on G/Z(G)")
    expect(transitive_action_problems(d4, centre[[1, 0, 2, 3, 4, 5, 6, 7]], 4),
           "swapped rows are no action")
    trivial = np.zeros((8, 3), dtype=np.int64) + np.arange(3)
    expect(orbits(trivial) == [(0,), (1,), (2,)], "trivial action has 3 orbits")
    expect(burnside(trivial) == (24, 8), "trivial action: 24/8 fixed pairs")
    expect(orbits(centre) == [(0, 1, 2, 3)], "G/Z(G) is one orbit")
    expect(kernel(centre) == (0, 2), "the kernel of G/Z(G) is Z(G)")
    expect(is_bijective_gmap(d4, d4, range(8)), "identity is a G-map")
    expect(not is_bijective_gmap(d4, d4, (1, 0, 2, 3, 4, 5, 6, 7)),
           "a transposition is no G-map of the regular action")

    half = np.array([[0.5, 0.0]])
    expect(worst(mobius_textbook(half, half), [[0.8, 0.0]]) < 1e-15, "0.5 + 0.5 = 0.8")
    # Einstein addition of parallel velocities is (u + v) / (1 + uv)
    expect(worst(mobius_to_einstein(half), [[0.8, 0.0]]) < 1e-15, "phi(0.5) = 0.8")
    rng = np.random.default_rng(0)
    u, v, x = (sample_ball(rng, 1000, 3, 0.9) for _ in range(3))
    expect(worst(ungar_gyration(u, 0.5 * u, x), x) < 1e-14,
           "gyrations of parallel vectors are trivial")
    expect(worst(ungar_gyration(v, u, ungar_gyration(u, v, x)), x) < 1e-12,
           "gyr[v,u] inverts gyr[u,v]")
    expect(worst(ungar_gyration(mobius_textbook(u, v), v, x),
                 ungar_gyration(u, v, x)) < 1e-12, "left loop property")
    expect(abs(np.linalg.norm(ungar_gyration(u, v, x), axis=-1)
               - np.linalg.norm(x, axis=-1)).max() < 1e-12, "gyrations are isometries")
