"""Finite gyrogroup actions: validation, orbits, stabilizers, counting.

Everything in this module is exact: tables are integer arrays and the
orbit count is a Fraction.  The classical theorem suite (orbit-stabilizer,
orbit decomposition, double counting, conjugate stabilizers, gyration
invariance of stabilizers) is re-verified on every computed decomposition
rather than assumed; a failure raises, since it cannot happen for a
validated input.

Each G-set is decomposed once: ``FiniteGSet.decomposition`` is computed on
first use, kept, and read by every analysis; its stabilizer theorems are
checked once per distinct stabilizer.  The action law a.(b.x) = (a+b).x is
checked once, when a table is certified.

Action table file format (UTF-8 text)::

    action <n> <k>        # group order, point count
    <n rows of k integers, row a = a.0 .. a.(k-1)>

Comments start with '#'.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import Check, GyroError, ValidationError, conjugate_set, violation
from .finite import (MAX_WITNESSES, TableFormatError, _read_table,
                     is_l_subgyrogroup, is_subgyrogroup, left_cosets,
                     validate_gyrogroup)


@dataclass(frozen=True)
class FiniteGSet:
    """A validated action table of a finite carrier on points 0..k-1."""

    carrier: object
    table: np.ndarray
    point_labels: tuple

    @property
    def points(self):
        return self.table.shape[1]

    def act(self, a, x):
        return int(self.table[a, x])

    @cached_property
    def decomposition(self):
        """The verified OrbitDecomposition, computed on first use and kept
        (the table is read-only)."""
        return _decompose(self)

    def _require_points(self, points):
        for y in points:
            if not 0 <= y < self.points:
                raise ValueError(f"point {y} is outside 0..{self.points - 1}")


@dataclass(frozen=True)
class Representation:
    """Permutations afforded by an action, with the kernel."""

    gset: FiniteGSet
    perms: np.ndarray
    kernel: tuple


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple
    representatives: tuple
    orbit_of: tuple
    stabilizers: tuple          # one per point
    fixed_points: tuple         # Fix(X)
    fixed_by: tuple             # fix(a), one per carrier element


@dataclass(frozen=True)
class ActionClassification:
    faithful: bool
    transitive: bool
    free: bool
    semiregular: bool
    sharply_transitive: bool

    def as_dict(self):
        return {"faithful": self.faithful, "transitive": self.transitive,
                "free": self.free, "semiregular": self.semiregular,
                "sharply_transitive": self.sharply_transitive}


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
    for row in gset.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def diagnose_action(carrier, table):
    """Check both action axioms exhaustively; return all diagnostics."""
    t = np.ascontiguousarray(table, dtype=np.int64)
    n = carrier.order
    if t.ndim != 2 or t.shape[0] != n:
        return [violation("table_shape", t.shape,
                          f"expected {n} rows, one per carrier element")]
    k = t.shape[1]
    if k < 1:
        return [violation("table_shape", t.shape, "expected at least one point")]
    if t.min() < 0 or t.max() >= k:
        return [violation("table_range", (), f"entries must lie in 0..{k - 1}")]
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
    row-major order over (a, b, x); t has entries in 0..k-1."""
    n, k = t.shape
    lhs = t[np.arange(n)[:, None, None], t[None, :, :]]
    rhs = t[carrier.table[:, :, None], np.arange(k)[None, None, :]]
    bad = np.nonzero(lhs != rhs)
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
    p = np.ascontiguousarray(perms, dtype=np.int64)
    n = carrier.order
    if p.ndim != 2 or p.shape[0] != n:
        raise ValidationError([violation("perm_shape", p.shape,
                                         f"expected {n} permutations")])
    k = p.shape[1]
    if k < 1:
        raise ValidationError([violation("perm_shape", p.shape,
                                         "expected at least one point")])
    bad = np.nonzero((np.sort(p, axis=1) != np.arange(k)).any(axis=1))[0]
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
    Orbits are computed by sweeping every carrier element per point (no
    generator closure: gyrogroups need not be generated efficiently).  The
    stabilizer theorems are re-verified on the result: each stabilizer must
    be an L-subgyrogroup invariant under every gyration.  Each distinct
    stabilizer is checked once; a failure names the first point with it.
    """
    return gset.decomposition


def _decompose(gset):
    t = gset.table
    k = gset.points
    carrier = gset.carrier
    orbit_of = [-1] * k
    orbits = []
    reps = []
    for x in range(k):
        if orbit_of[x] >= 0:
            continue
        members = tuple(np.unique(t[:, x]).tolist())
        for y in members:
            orbit_of[y] = len(orbits)
        orbits.append(members)
        reps.append(x)
    fixes = t == np.arange(k)  # fixes[a, x]: a.x = x
    stabs = tuple(tuple(np.flatnonzero(col).tolist()) for col in fixes.T)
    checked = set()
    for x, s in enumerate(stabs):
        if s in checked:
            continue
        checked.add(s)
        if not is_subgyrogroup(carrier, s):
            raise GyroError(f"stab({x}) fails the subgyrogroup criterion")
        if not is_l_subgyrogroup(carrier, s):
            raise GyroError(f"stab({x}) is not an L-subgyrogroup")
        leak = carrier.gyration_leak(s)
        if leak is not None:
            a, b, _ = leak
            raise GyroError(f"gyr[{a},{b}] does not preserve stab({x})")
    return OrbitDecomposition(
        orbits=tuple(orbits), representatives=tuple(reps),
        orbit_of=tuple(orbit_of), stabilizers=stabs,
        fixed_points=tuple(np.flatnonzero(fixes.all(axis=0)).tolist()),
        fixed_by=tuple(tuple(np.flatnonzero(row).tolist()) for row in fixes))


def check_orbit_stabilizer(gset, decomposition=None):
    """Verify |G| = |orb(x)| |stab(x)| for every point, exactly.

    Also exhibits the bijection a.x -> a + stab(x) and verifies that it is
    well defined and injective: a.x = b.x iff (-b + a).x = x iff
    a + stab(x) = b + stab(x).
    """
    dec = decomposition or gset.decomposition
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
    dec = decomposition or gset.decomposition
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
    dec = decomposition or gset.decomposition
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
    transitive + semiregular); free implies semiregular implies faithful.
    """
    dec = decomposition or gset.decomposition
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
    if free and not semiregular:
        raise GyroError("free action must be semiregular")
    if semiregular and not faithful:
        raise GyroError("semiregular action must be faithful")
    if transitive and (free != semiregular):
        raise GyroError("transitive action: free and semiregular must agree")
    return ActionClassification(faithful=faithful, transitive=transitive,
                                free=free, semiregular=semiregular,
                                sharply_transitive=sharply)


def stabilizer_of_translate(gset, a, x):
    """stab(a.x) computed two ways: direct scan, and as the conjugate of
    stab(x) by a.  The two must agree; returns the set."""
    gset._require_points([x])
    if not 0 <= a < gset.carrier.order:
        raise ValueError(f"element {a} is outside 0..{gset.carrier.order - 1}")
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
    ys = sorted(int(y) for y in set(points))
    if not ys:
        raise ValueError("empty subset")
    gset._require_points(ys)
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
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (gset.points,) or \
            not np.array_equal(np.sort(perm), np.arange(gset.points)):
        raise ValueError(f"perm must be a permutation of 0..{gset.points - 1}")
    inv = np.argsort(perm)
    new = perm[gset.table[:, inv]]
    labels = tuple(gset.point_labels[int(inv[y])] for y in range(gset.points))
    return validate_action(gset.carrier, new, point_labels=labels)


def faithful_quotient_action(gset):
    """The faithful action of the carrier's quotient by the kernel.

    Builds the coset space G/K for K = ker, certifies the quotient table as
    a gyrogroup in its own right (well-definedness is checked exhaustively,
    not assumed), and acts by (a + K).x = a.x.  The result is faithful.
    """
    carrier = gset.carrier
    kernel = build_representation(gset).kernel
    leak = carrier.gyration_leak(kernel)
    if leak is not None:
        a, b, _ = leak
        raise GyroError(f"gyr[{a},{b}] does not preserve the kernel")
    part = left_cosets(carrier, kernel)
    if not part.is_partition:
        raise GyroError("kernel cosets do not partition the carrier")
    coset_of = np.array(part.coset_of)
    reps = np.array(part.representatives)
    q = part.index
    qt = coset_of[carrier.table[reps[:, None], reps[None, :]]]
    bad = np.argwhere(coset_of[carrier.table]
                      != qt[coset_of[:, None], coset_of[None, :]])
    if len(bad):
        a, b = map(int, bad[0])
        raise ValidationError([violation(
            "quotient_well_defined", (a, b),
            "coset operation depends on the choice of representatives")])
    qcarrier = validate_gyrogroup(qt)
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


def random_action(carrier, seed, subgroups=None, max_points=16, max_parts=3):
    """A random verified-homomorphism action: a disjoint union of coset
    actions of criterion-passing subgyrogroups with randomly relabelled
    points, re-verified through action_from_homomorphism."""
    from .coset_actions import build_coset_action, coset_criterion
    from .finite import enumerate_subgyrogroups

    rng = np.random.default_rng(seed)
    if subgroups is None:
        subgroups = [h for h in enumerate_subgyrogroups(carrier)
                     if coset_criterion(carrier, h).passed]
    if not subgroups:
        raise GyroError("carrier has no criterion-passing subgyrogroups")
    parts = []
    total = 0
    for _ in range(int(rng.integers(1, max_parts + 1))):
        h = subgroups[int(rng.integers(len(subgroups)))]
        g = build_coset_action(carrier, h)
        if total + g.points > max_points and parts:
            break
        parts.append(g)
        total += g.points
    union = disjoint_union(parts)
    perm = rng.permutation(union.points)
    relabelled = relabel_points(union, perm)
    return action_from_homomorphism(carrier, relabelled.table)
