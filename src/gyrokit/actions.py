"""Finite gyrogroup actions: validation, orbits, stabilizers, counting.

Everything in this module is exact: tables are integer arrays and the
orbit count is a Fraction.  The classical theorems are re-verified rather
than assumed.  Every computed decomposition checks that each stabilizer is
a subgyrogroup S containing every translate defect -y + gyr[a, b]y, as
``faithful_quotient_action`` checks its kernel; a failure raises, since the
action law puts every defect in the kernel (``coset_actions`` proves it).
That implies the rest: gyr[a, b]h = h + (-h + gyr[a, b]h) lies in S for h
in S, so S is gyration-invariant, and so an L-subgyrogroup.  The other
theorems are checked by the functions that use them:
``check_orbit_stabilizer`` (orbit-stabilizer) and
``orbit_decomposition_equation`` return a Check, while ``burnside_count``
(double counting) and ``stabilizer_of_translate`` (conjugate stabilizers)
raise on a failure.

Each G-set is decomposed once: ``FiniteGSet.decomposition`` is computed on
first use, kept, and read by every analysis; its stabilizer theorems are
checked once per distinct stabilizer.  The action law a.(b.x) = (a+b).x is
checked once, when a table is certified, over all n*n*k cells: both sides
are built as row gathers of the table, and the cells are searched for
witnesses only when an all-clear test on the two sides fails.

Action table file format (UTF-8 text)::

    action <n> <k>        # group order, point count
    <n rows of k integers, row a = a.0 .. a.(k-1)>

Comments start with '#'.
"""

from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (MAX_WITNESSES, Check, GyroError, Record, ValidationError,
                   _read_index, _read_seed, conjugate_set, violation)
from .finite import (SUBGROUP_ENUM_CAP, TableFormatError, _defect_closure,
                     _lattice, _quotient, _read_table, is_subgyrogroup,
                     left_cosets)

# random_action joins 1 to RANDOM_MAX_PARTS coset actions, and stops before
# one that would take it past RANDOM_MAX_POINTS points
RANDOM_MAX_PARTS = 3
RANDOM_MAX_POINTS = 16


class FiniteGSet(Record):
    """A validated action table of a finite carrier on points 0..k-1."""

    carrier: object
    table: np.ndarray
    point_labels: tuple

    @property
    def points(self):
        return self.table.shape[1]

    def act(self, a, x):
        a = _read_index(a, self.carrier.order, "element")
        return int(self.table[a, _read_index(x, self.points, "point")])

    @cached_property
    def decomposition(self):
        """The verified OrbitDecomposition, computed on first use and kept
        (the table is read-only)."""
        return _decompose(self)


class Representation(Record):
    """Permutations afforded by an action, with the kernel."""

    gset: FiniteGSet
    perms: np.ndarray
    kernel: tuple


class OrbitDecomposition(Record):
    """Orbits, stabilizers and fixed sets of a G-set, as ``_decompose``
    verified them."""

    orbits: tuple
    representatives: tuple
    orbit_of: tuple
    stabilizers: tuple          # one per point
    fixed_points: tuple         # Fix(X)
    fixed_by: tuple             # fix(a), one per carrier element


class ActionClassification(Record):
    """The five flags ``classify`` decides for a G-set."""

    faithful: bool
    transitive: bool
    free: bool
    semiregular: bool
    sharply_transitive: bool

    def as_dict(self):
        """The flags by name, in field order."""
        return {name: getattr(self, name) for name in self._fields}


def _sizes(args, lineno):
    try:
        n, k = int(args[0]), int(args[1])
    except ValueError:
        raise TableFormatError("non-integer sizes in header", lineno)
    if n < 1 or k < 1:
        raise TableFormatError("sizes must be >= 1", lineno)
    return n, k


def parse_action_table(text):
    """Parse the action file format; returns (group_order, points, table)."""
    return _read_table(text, "action <n> <k>", _sizes)[:3]


def serialize_action_table(gset):
    lines = [f"action {gset.carrier.order} {gset.points}"]
    lines += [" ".join(map(str, row)) for row in gset.table.tolist()]
    return "\n".join(lines) + "\n"


def diagnose_action(carrier, table):
    """Check both action axioms exhaustively; return all diagnostics."""
    t = np.asarray(table)
    n = carrier.order
    if t.ndim != 2 or t.shape[0] != n:
        return [violation("table_shape", t.shape,
                          f"expected {n} rows, one per carrier element")]
    k = t.shape[1]
    if k < 1:
        return [violation("table_shape", t.shape, "expected at least one point")]
    if not np.issubdtype(t.dtype, np.integer):  # bool is no integer type
        return [violation("table_range", (),
                          f"entries of type {t.dtype} are not integers")]
    if t.min() < 0 or t.max() >= k:
        return [violation("table_range", (), f"entries must lie in 0..{k - 1}")]
    t = np.ascontiguousarray(t, dtype=np.int64)
    diags = [violation("identity_acts_trivially", (int(x),),
                       f"0.{x} = {int(t[0, x])} != {x}")
             for x in np.nonzero(t[0] != np.arange(k))[0][:MAX_WITNESSES]]
    # a violation of the action law exhibits a nonidentity gyration at work
    for a, b, x, lhs, rhs in _action_law_violations(carrier, t)[:MAX_WITNESSES]:
        diags.append(violation(
            "action_compatible", (int(a), int(b), int(x)),
            f"{a}.({b}.{x}) = {lhs} != ({a}+{b}).{x} = {rhs} "
            f"(gyr[{a},{b}] obstruction)"))
    return diags


def _action_law_violations(carrier, t):
    """Every (a, b, x, a.(b.x), (a+b).x) with a.(b.x) != (a+b).x, in
    row-major order over (a, b, x), as an int64 array of shape (m, 5); t has
    entries in 0..k-1.

    Both sides are row gathers of t: a.(b.x) = t[a, t[b, x]] takes the
    columns t from every row a, and (a+b).x = t[a+b, x] takes the rows of
    t named by the Cayley table.  The cells are searched for witnesses only
    when the all-clear test finds a mismatch."""
    lhs = t.take(t, axis=1)
    rhs = t.take(carrier.table, axis=0)
    differ = lhs != rhs
    if not differ.any():
        return np.empty((0, 5), dtype=np.int64)
    bad = np.nonzero(differ)
    return np.column_stack((*bad, lhs[bad], rhs[bad]))


def _gset(carrier, table, point_labels=None):
    """A G-set over a read-only copy of a certified action table."""
    t = np.ascontiguousarray(table, dtype=np.int64).copy()
    t.flags.writeable = False
    if point_labels is None:
        point_labels = tuple(range(t.shape[1]))
    return FiniteGSet(carrier=carrier, table=t, point_labels=tuple(point_labels))


def validate_action(carrier, table, point_labels=None):
    """Certify an action table or raise ValidationError with witnesses."""
    diags = diagnose_action(carrier, table)
    if diags:
        raise ValidationError(diags)
    return _gset(carrier, table, point_labels)


def build_representation(gset):
    """The afforded homomorphism a -> sigma_a, with its kernel.

    Reads the kernel {a : sigma_a = id} off the certified table and checks
    nothing again: sigma_(a+b) = sigma_a o sigma_b and sigma_0 = id hold,
    so sigma_a o sigma_(-a) = id and each sigma_a is a permutation.
    """
    t = gset.table
    kernel = np.flatnonzero((t == np.arange(gset.points)).all(axis=1))
    return Representation(gset=gset, perms=t, kernel=tuple(kernel.tolist()))


def action_from_homomorphism(carrier, perms):
    """Build the action a.x = perms[a][x] from a homomorphism into
    permutations; rejects non-homomorphic assignments with a witness.  Such a
    homomorphism is an action: sigma_0 o sigma_0 = sigma_0, so sigma_0 = id.
    """
    p = np.asarray(perms)
    n = carrier.order
    if p.ndim != 2 or p.shape[0] != n:
        raise ValidationError([violation("perm_shape", p.shape,
                                         f"expected {n} permutations")])
    k = p.shape[1]
    if k < 1:
        raise ValidationError([violation("perm_shape", p.shape,
                                         "expected at least one point")])
    if np.issubdtype(p.dtype, np.integer):  # bool is no integer type
        p = np.ascontiguousarray(p, dtype=np.int64)
        bad = np.nonzero((np.sort(p, axis=1) != np.arange(k)).any(axis=1))[0]
    else:
        bad = np.arange(n)
    diags = [violation("permutation", (int(a),),
                       f"row {a} is not a permutation of 0..{k - 1}")
             for a in bad[:MAX_WITNESSES]]
    if not diags:
        bad = _action_law_violations(carrier, p)[:MAX_WITNESSES, :3]
        diags = [violation("homomorphism", (int(a), int(b)),
                           f"perm({a}+{b}) != perm({a}) o perm({b}) at point {x}")
                 for a, b, x in bad]
    if diags:
        raise ValidationError(diags)
    return _gset(carrier, p)


def orbits_and_stabilizers(gset):
    """Full orbit decomposition with per-point stabilizers and fixed sets.

    Returns ``gset.decomposition``, which is computed once per G-set.
    Column x of the table lists orb(x) and the orbits partition the points,
    so the orbits are read off the column minima, each represented by its
    smallest point (no generator closure: gyrogroups need not be generated
    efficiently).  The stabilizer theorems are re-verified on the result:
    each stabilizer must be a subgyrogroup containing every translate
    defect, and so gyration-invariant (see the module docstring).  Each
    distinct stabilizer is checked once; a failure names the first point
    with it.
    """
    return gset.decomposition


def _decompose(gset):
    t = gset.table
    k = gset.points
    carrier = gset.carrier
    # column x lists orb(x), so its minimum names the orbit
    reps, orbit_of = np.unique(t.min(axis=0), return_inverse=True)
    orbits = tuple(tuple(np.flatnonzero(orbit_of == i).tolist())
                   for i in range(len(reps)))
    fixes = t == np.arange(k)  # fixes[a, x]: a.x = x
    stabs = tuple(tuple(np.flatnonzero(col).tolist()) for col in fixes.T)
    first = {}  # each distinct stabilizer, keyed to the first point with it
    for x, s in enumerate(stabs):
        first.setdefault(s, x)
    for s, x in first.items():
        if not is_subgyrogroup(carrier, s):
            raise GyroError(f"stab({x}) fails the subgyrogroup criterion")
        _require_defects(carrier, s, f"stab({x})")
    return OrbitDecomposition(
        orbits=orbits, representatives=tuple(reps.tolist()),
        orbit_of=tuple(orbit_of.tolist()), stabilizers=stabs,
        fixed_points=tuple(np.flatnonzero(fixes.all(axis=0)).tolist()),
        fixed_by=tuple(tuple(np.flatnonzero(row).tolist()) for row in fixes))


def _require_defects(carrier, members, name):
    """Raise GyroError unless ``members``, named ``name``, holds every defect."""
    leak = carrier.defect_leak(members)
    if leak is not None:
        a, b, y = leak
        raise GyroError(f"{name} misses the translate defect -{y} + gyr[{a},{b}]{y}")


def _own_decomposition(gset, decomposition):
    """``gset.decomposition``.  Raises ValueError unless ``decomposition``
    is None or that very object: a decomposition verified for another
    G-set, or built by hand, says nothing about this one."""
    if decomposition is not None and decomposition is not gset.decomposition:
        raise ValueError("decomposition must be gset.decomposition")
    return gset.decomposition


def check_orbit_stabilizer(gset, decomposition=None):
    """Verify |G| = |orb(x)| |stab(x)| for every point, exactly.

    Also exhibits the bijection a.x -> a + stab(x) and verifies that it is
    well defined and injective: a.x = b.x iff (-b + a).x = x iff
    a + stab(x) = b + stab(x).
    """
    dec = _own_decomposition(gset, decomposition)
    t = gset.table
    carrier = gset.carrier
    n, k = t.shape
    beta = carrier.table[carrier.inv[:, None], np.arange(n)[None, :]]  # -b + a
    per_point = []
    same_coset = {}  # per distinct stabilizer: a + stab = b + stab at [a, b]
    for x in range(k):
        orb = dec.orbits[dec.orbit_of[x]]
        stab = dec.stabilizers[x]
        product_ok = n == len(orb) * len(stab)
        if stab not in same_coset:
            coset_of = np.array(left_cosets(carrier, stab).coset_of)
            same_coset[stab] = coset_of[:, None] == coset_of[None, :]
        images = t[:, x]
        # theta well defined and injective: equal cosets <-> equal images
        same_image = images[:, None] == images[None, :]
        lemma_mid = t[beta, x] == x  # (-b + a).x = x at [b, a]
        theta_ok = bool(np.array_equal(same_coset[stab], same_image)
                        and np.array_equal(lemma_mid.T, same_image))
        per_point.append({"point": x, "orbit": len(orb), "stabilizer": len(stab),
                          "product_ok": product_ok, "bijection_ok": theta_ok})
    bad = [p["point"] for p in per_point
           if not (p["product_ok"] and p["bijection_ok"])]
    return Check("orbit_stabilizer", not bad, (bad[0],) if bad else None,
                 detail={"order": n, "points": per_point})


def orbit_decomposition_equation(gset, decomposition=None):
    """Verify |X| = |Fix(X)| + sum of [G : stab(x_i)] over representatives
    of the nonsingleton orbits, with indexes from actual coset counts."""
    dec = _own_decomposition(gset, decomposition)
    carrier = gset.carrier
    indexes = sorted(left_cosets(carrier, dec.stabilizers[rep]).index
                     for rep, orbit in zip(dec.representatives, dec.orbits)
                     if len(orbit) > 1)
    total = len(dec.fixed_points) + sum(indexes)
    passed = total == gset.points
    return Check(
        "orbit_decomposition", passed, None if passed else (total,),
        detail={"points": gset.points, "fixed": len(dec.fixed_points),
                "indexes": indexes,
                "equation": f"{gset.points} = {len(dec.fixed_points)} + "
                            f"{' + '.join(map(str, indexes)) or '0'}"})


def burnside_count(gset, decomposition=None):
    """Orbit count as the exact rational (1/|G|) sum_a |fix(a)|.

    The result must be an integer equal to the direct orbit count; any
    discrepancy raises.
    """
    dec = _own_decomposition(gset, decomposition)
    n = gset.carrier.order
    count = Fraction(sum(len(f) for f in dec.fixed_by), n)
    if count.denominator != 1 or count != len(dec.orbits):
        raise GyroError(
            f"double counting failed: {count} vs {len(dec.orbits)} orbits")
    return count


def classify(gset, decomposition=None):
    """Faithful / transitive / free / semiregular / sharply transitive flags.

    Sharp transitivity is computed independently by unique-solution search
    and then checked against its two characterisations (transitive + free,
    transitive + semiregular); semiregular implies faithful, and free
    implies semiregular unchecked, as all implies any over k >= 1 points.
    """
    dec = _own_decomposition(gset, decomposition)
    t = gset.table
    k = gset.points
    kernel = build_representation(gset).kernel
    faithful = kernel == (0,)
    transitive = len(dec.orbits) == 1
    free = all(s == (0,) for s in dec.stabilizers)
    semiregular = any(s == (0,) for s in dec.stabilizers)
    # a.x = y has exactly one solution a for all x, y: columns permute 0..k-1
    sharply = t.shape[0] == k and \
        bool(np.all(np.sort(t, axis=0) == np.arange(k)[:, None]))
    if sharply != (transitive and free) or sharply != (transitive and semiregular):
        raise GyroError("sharp-transitivity characterisation violated")
    if semiregular and not faithful:
        raise GyroError("semiregular action must be faithful")
    return ActionClassification(faithful=faithful, transitive=transitive,
                                free=free, semiregular=semiregular,
                                sharply_transitive=sharply)


def stabilizer_of_translate(gset, a, x):
    """stab(a.x) computed two ways: direct scan, and as the conjugate of
    stab(x) by a.  The two must agree; returns the set."""
    x = _read_index(x, gset.points, "point")
    a = _read_index(a, gset.carrier.order, "element")
    t = gset.table
    y = int(t[a, x])
    direct = tuple(np.flatnonzero(t[:, y] == y).tolist())
    conj = conjugate_set(gset.carrier, a, gset.decomposition.stabilizers[x])
    if direct != conj:
        raise GyroError(
            f"stab({a}.{x}) != conjugate of stab({x}) by {a}: {direct} vs {conj}")
    return direct


def restrict_to_invariant(gset, points):
    """Restrict the action to an invariant subset (rejected with a witness
    pair if some a.y leaves the subset); points are relabelled 0..|Y|-1."""
    ys = sorted({_read_index(y, gset.points, "point") for y in points})
    if not ys:
        raise ValueError("empty subset")
    sub = gset.table[:, ys]
    position = np.full(gset.points, -1)
    position[ys] = np.arange(len(ys))
    new = position[sub]
    for a, j in np.argwhere(new < 0)[:1]:
        raise ValidationError([violation(
            "invariant_subset", (int(a), ys[int(j)], int(sub[a, j])),
            f"{a}.{ys[int(j)]} = {int(sub[a, j])} is outside the subset")])
    labels = tuple(gset.point_labels[y] for y in ys)
    return validate_action(gset.carrier, new, point_labels=labels)


def disjoint_union(gsets):
    """Disjoint union of actions of the same carrier."""
    if not gsets:
        raise ValueError("disjoint union of no actions")
    first = gsets[0]
    if not all(g.carrier.same_carrier(first.carrier) for g in gsets):
        raise ValueError("all actions must share one carrier")
    offsets = np.cumsum([0] + [g.points for g in gsets])
    table = np.hstack([g.table + o for g, o in zip(gsets, offsets)])
    labels = tuple(y for g in gsets for y in g.point_labels)
    return validate_action(first.carrier, table, point_labels=labels)


def relabel_points(gset, perm):
    """Conjugate the action by a permutation of the points."""
    k = gset.points
    try:
        perm = np.array([_read_index(y, k, "point") for y in perm],
                        dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"perm must be a permutation of 0..{k - 1}: {exc}") \
            from None
    if not np.array_equal(np.sort(perm), np.arange(k)):
        raise ValueError(f"perm must be a permutation of 0..{k - 1}")
    inv = np.argsort(perm)
    new = perm[gset.table[:, inv]]
    labels = tuple(gset.point_labels[int(inv[y])] for y in range(k))
    return validate_action(gset.carrier, new, point_labels=labels)


def faithful_quotient_action(gset):
    """The faithful action of the carrier's quotient by the kernel.

    G/K, for K = ker, is a group: K holds N, so G/K is a quotient of G/N.
    ``_quotient`` certifies it (well-definedness is checked exhaustively,
    not assumed), and it acts by (a + K).x = a.x.  The result is faithful.
    """
    carrier = gset.carrier
    kernel = build_representation(gset).kernel
    _require_defects(carrier, kernel, "the kernel")
    qcarrier, coset_of, reps = _quotient(carrier, kernel)
    qa = gset.table[reps, :]
    bad = np.argwhere(gset.table != qa[coset_of, :])
    if len(bad):
        a, x = map(int, bad[0])
        raise ValidationError([violation(
            "quotient_action_well_defined", (a, x),
            "action depends on the choice of coset representatives")])
    out = validate_action(qcarrier, qa, point_labels=gset.point_labels)
    if build_representation(out).kernel != (0,):
        raise GyroError("quotient action is not faithful")
    return out


def random_action(carrier, seed, subgroups=None):
    """A random verified action: a disjoint union of coset actions of
    criterion-passing subgyrogroups, its points randomly permuted (the
    permuted table verified by relabel_points) and labelled 0..k-1.

    Without ``subgroups``, the candidates are the subgyrogroups above N,
    the closure of the translate defects: exactly those that pass the
    criterion, the subgroups of the group G/N pulled back through a -> a + N.
    The search is refused, before G/N is built, when the index [G:N]
    exceeds ``SUBGROUP_ENUM_CAP`` (for a group, N = {0} and the index is the
    order).  A 2-D integer array of ``subgroups`` gives its rows.  Raises
    ValueError unless ``seed`` is a non-negative integer, and for an entry
    of ``subgroups`` that is not a collection of members."""
    # coset_actions imports this module, so it is imported on first call
    from .coset_actions import build_coset_action

    rng = np.random.default_rng(_read_seed(seed))
    if subgroups is None:
        n = _defect_closure(carrier)
        index = carrier.order // len(n)
        if index > SUBGROUP_ENUM_CAP:
            raise GyroError(
                f"index {index} of N, the closure of the translate defects, "
                f"exceeds enumeration cap {SUBGROUP_ENUM_CAP}; "
                f"pass subgroups= to random_action")
        q, coset_of, _ = _quotient(carrier, n)
        # representatives are least in their cosets and increase, so the
        # pull-back keeps the lattice order
        subgroups = [tuple(np.flatnonzero(np.isin(coset_of, s)).tolist())
                     for s in _lattice(q)]
    else:
        entries, subgroups = subgroups, []
        for h in entries:
            if not np.iterable(h):
                raise ValueError(
                    f"subgroups entry {h!r} is not a collection of members")
            subgroups.append(tuple(h))
        if not subgroups:  # the lattice above N holds G, so it is never empty
            raise GyroError("subgroups= is empty; pass at least one subgyrogroup")
    parts = []
    for _ in range(int(rng.integers(1, RANDOM_MAX_PARTS + 1))):
        h = subgroups[int(rng.integers(len(subgroups)))]
        g = build_coset_action(carrier, h)
        if sum(p.points for p in parts) + g.points > RANDOM_MAX_POINTS and parts:
            break
        parts.append(g)
    union = disjoint_union(parts)
    perm = rng.permutation(union.points)
    return _gset(carrier, relabel_points(union, perm).table)
