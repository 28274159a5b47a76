"""Finite gyrogroup actions: validation, orbits, stabilizers, counting.

Everything in this module is exact: tables are integer arrays and the
orbit count is a Fraction.  The classical theorem suite (orbit-stabilizer,
orbit decomposition, double counting, conjugate stabilizers, kernel as
intersection of stabilizers, gyration invariance of stabilizers) is
re-verified on every computed decomposition rather than assumed; a failure
raises, since it cannot happen for a validated input.

Action table file format (UTF-8 text)::

    action <n> <k>        # group order, point count
    <n rows of k integers, row a = a.0 .. a.(k-1)>

Comments start with '#'.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Diagnostic, GyroError, ValidationError, conjugate_set
from .finite import (MAX_WITNESSES, TableFormatError, is_l_subgyrogroup,
                     is_subgyrogroup, left_cosets, validate_gyrogroup)


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


@dataclass(frozen=True)
class CheckReport:
    check: str
    passed: bool
    detail: dict
    witness: tuple | None = None

    def as_dict(self):
        out = {"check": self.check, "status": "pass" if self.passed else "fail",
               "witness": None if self.witness is None else list(self.witness)}
        out.update(self.detail)
        return out


def parse_action_table(text):
    """Parse the action file format; returns (group_order, points, table)."""
    n = k = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "action" or len(parts) != 3:
                raise TableFormatError("expected header 'action <n> <k>'", lineno)
            try:
                n, k = int(parts[1]), int(parts[2])
            except ValueError:
                raise TableFormatError("non-integer sizes in header", lineno)
            if n < 1 or k < 1:
                raise TableFormatError("sizes must be >= 1", lineno)
            continue
        if len(rows) == n:
            raise TableFormatError(f"extra row; table already has {n} rows", lineno)
        if len(parts) != k:
            raise TableFormatError(
                f"row {len(rows)} has {len(parts)} entries, expected {k}", lineno)
        row = []
        for col, p in enumerate(parts):
            try:
                v = int(p)
            except ValueError:
                raise TableFormatError(f"entry {p!r} is not an integer", lineno, col)
            if not 0 <= v < k:
                raise TableFormatError(f"entry {v} out of range 0..{k - 1}",
                                       lineno, col)
            row.append(v)
        rows.append(row)
    if n is None:
        raise TableFormatError("missing 'action <n> <k>' header", 1)
    if len(rows) != n:
        raise TableFormatError(f"expected {n} rows, found {len(rows)}",
                               len(text.splitlines()) or 1)
    return n, k, np.array(rows, dtype=np.int64)


def serialize_action_table(gset):
    lines = [f"action {gset.carrier.order} {gset.points}"]
    for row in gset.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def diagnose_action(carrier, table):
    """Check both action axioms exhaustively; return all diagnostics."""
    t = np.ascontiguousarray(table, dtype=np.int64)
    n = carrier.order
    diags = []
    if t.ndim != 2 or t.shape[0] != n:
        diags.append(Diagnostic("table_shape", t.shape,
                                f"expected {n} rows, one per carrier element"))
        return diags
    k = t.shape[1]
    if t.size and (t.min() < 0 or t.max() >= k):
        diags.append(Diagnostic("table_range", (),
                                f"entries must lie in 0..{k - 1}"))
        return diags
    xi = np.arange(k)
    for x in np.nonzero(t[0] != xi)[0][:MAX_WITNESSES]:
        diags.append(Diagnostic("identity_acts_trivially", (int(x),),
                                f"0.{x} = {int(t[0, x])} != {x}"))
    # a.(b.x) = (a+b).x ; a violation exhibits a nonidentity gyration at work
    lhs = t[np.arange(n)[:, None, None], t[None, :, :]]
    rhs = t[carrier.table[:, :, None], xi[None, None, :]]
    mism = np.argwhere(lhs != rhs)
    for a, b, x in mism[:MAX_WITNESSES]:
        diags.append(Diagnostic(
            "action_compatible", (int(a), int(b), int(x)),
            f"{a}.({b}.{x}) = {int(lhs[a, b, x])} != ({a}+{b}).{x} = "
            f"{int(rhs[a, b, x])} (gyr[{a},{b}] obstruction)"))
    return diags


def validate_action(carrier, table, point_labels=None):
    """Certify an action table or raise ValidationError with witnesses."""
    diags = diagnose_action(carrier, table)
    if diags:
        raise ValidationError(diags)
    t = np.ascontiguousarray(table, dtype=np.int64).copy()
    t.flags.writeable = False
    if point_labels is None:
        point_labels = tuple(range(t.shape[1]))
    return FiniteGSet(carrier=carrier, table=t, point_labels=tuple(point_labels))


def build_representation(gset):
    """The afforded homomorphism a -> sigma_a, with its kernel.

    Re-verifies that each sigma_a is a permutation and that
    sigma_(a+b) = sigma_a o sigma_b, then reads off the kernel
    {a : sigma_a = id}.
    """
    t = gset.table
    n, k = t.shape
    xi = np.arange(k)
    if not np.all(np.sort(t, axis=1) == xi):
        bad = int(np.nonzero((np.sort(t, axis=1) != xi).any(axis=1))[0][0])
        raise GyroError(f"sigma_{bad} is not a permutation")
    comp = t[np.arange(n)[:, None, None], t[None, :, :]]
    direct = t[gset.carrier.table[:, :, None], xi[None, None, :]]
    if not np.array_equal(comp, direct):
        a, b, x = map(int, np.argwhere(comp != direct)[0])
        raise GyroError(f"homomorphism property fails at ({a}, {b}, {x})")
    kernel = tuple(int(a) for a in np.nonzero((t == xi).all(axis=1))[0])
    return Representation(gset=gset, perms=t, kernel=kernel)


def action_from_homomorphism(carrier, perms):
    """Build the action a.x = perms[a][x] from a homomorphism into
    permutations; rejects non-homomorphic assignments with a witness."""
    p = np.ascontiguousarray(perms, dtype=np.int64)
    n = carrier.order
    if p.ndim != 2 or p.shape[0] != n:
        raise ValidationError([Diagnostic("perm_shape", p.shape,
                                          f"expected {n} permutations")])
    k = p.shape[1]
    xi = np.arange(k)
    diags = []
    bad = np.nonzero((np.sort(p, axis=1) != xi).any(axis=1))[0]
    for a in bad[:MAX_WITNESSES]:
        diags.append(Diagnostic("permutation", (int(a),),
                                f"row {a} is not a permutation of 0..{k - 1}"))
    if not diags:
        comp = p[np.arange(n)[:, None, None], p[None, :, :]]
        direct = p[carrier.table[:, :, None], xi[None, None, :]]
        mism = np.argwhere(comp != direct)
        for a, b, x in mism[:MAX_WITNESSES]:
            diags.append(Diagnostic(
                "homomorphism", (int(a), int(b)),
                f"perm({a}+{b}) != perm({a}) o perm({b}) at point {x}"))
    if diags:
        raise ValidationError(diags)
    return validate_action(carrier, p)


def orbits_and_stabilizers(gset):
    """Full orbit decomposition with per-point stabilizers and fixed sets.

    Orbits are computed by sweeping every carrier element per point (no
    generator closure: gyrogroups need not be generated efficiently).  The
    stabilizer theorems are re-verified on the result: each stabilizer must
    be an L-subgyrogroup invariant under every gyration.
    """
    t = gset.table
    n, k = t.shape
    carrier = gset.carrier
    orbit_of = [-1] * k
    orbits = []
    reps = []
    for x in range(k):
        if orbit_of[x] >= 0:
            continue
        members = tuple(sorted(set(int(v) for v in t[:, x])))
        idx = len(orbits)
        for y in members:
            orbit_of[y] = idx
        orbits.append(members)
        reps.append(x)
    stabs = tuple(tuple(int(a) for a in np.nonzero(t[:, x] == x)[0])
                  for x in range(k))
    fixed_points = tuple(int(x) for x in range(k)
                         if np.all(t[:, x] == x))
    fixed_by = tuple(tuple(int(x) for x in np.nonzero(t[a] == np.arange(k))[0])
                     for a in range(n))
    for x, s in enumerate(stabs):
        if not is_subgyrogroup(carrier, s):
            raise GyroError(f"stab({x}) fails the subgyrogroup criterion")
        if not is_l_subgyrogroup(carrier, s):
            raise GyroError(f"stab({x}) is not an L-subgyrogroup")
        leak = carrier.gyration_leak(s)
        if leak is not None:
            a, b, _ = leak
            raise GyroError(f"gyr[{a},{b}] does not preserve stab({x})")
    return OrbitDecomposition(orbits=tuple(orbits), representatives=tuple(reps),
                              orbit_of=tuple(orbit_of), stabilizers=stabs,
                              fixed_points=fixed_points, fixed_by=fixed_by)


def check_orbit_stabilizer(gset, decomposition=None):
    """Verify |G| = |orb(x)| |stab(x)| for every point, exactly.

    Also exhibits the bijection a.x -> a + stab(x) and verifies that it is
    well defined and injective: a.x = b.x iff (-b + a).x = x iff
    a + stab(x) = b + stab(x).
    """
    dec = decomposition or orbits_and_stabilizers(gset)
    t = gset.table
    carrier = gset.carrier
    n, k = t.shape
    per_point = []
    passed = True
    witness = None
    coset_cache = {}
    for x in range(k):
        orb = dec.orbits[dec.orbit_of[x]]
        stab = dec.stabilizers[x]
        product_ok = n == len(orb) * len(stab)
        if stab not in coset_cache:
            coset_cache[stab] = left_cosets(carrier, stab)
        part = coset_cache[stab]
        coset_of = np.array(part.coset_of)
        images = t[:, x]
        # theta well defined and injective: equal cosets <-> equal images
        same_coset = coset_of[:, None] == coset_of[None, :]
        same_image = images[:, None] == images[None, :]
        beta = carrier.table[carrier.inv[:, None], np.arange(n)[None, :]]
        lemma_mid = t[beta, x] == x  # (-b + a).x = x at [b, a]
        theta_ok = bool(np.array_equal(same_coset, same_image)
                        and np.array_equal(lemma_mid.T, same_image))
        ok = product_ok and theta_ok
        per_point.append({"point": x, "orbit": len(orb), "stabilizer": len(stab),
                          "product_ok": product_ok, "bijection_ok": theta_ok})
        if not ok and witness is None:
            witness = (x,)
        passed = passed and ok
    return CheckReport(check="orbit_stabilizer", passed=passed,
                       detail={"order": n, "points": per_point}, witness=witness)


def orbit_decomposition_equation(gset, decomposition=None):
    """Verify |X| = |Fix(X)| + sum of [G : stab(x_i)] over representatives
    of the nonsingleton orbits, with indexes from actual coset counts."""
    dec = decomposition or orbits_and_stabilizers(gset)
    carrier = gset.carrier
    indexes = []
    for rep, orbit in zip(dec.representatives, dec.orbits):
        if len(orbit) > 1:
            part = left_cosets(carrier, dec.stabilizers[rep])
            indexes.append(part.index)
    indexes.sort()
    total = len(dec.fixed_points) + sum(indexes)
    passed = total == gset.points
    return CheckReport(
        check="orbit_decomposition", passed=passed,
        detail={"points": gset.points, "fixed": len(dec.fixed_points),
                "indexes": indexes,
                "equation": f"{gset.points} = {len(dec.fixed_points)} + "
                            f"{' + '.join(map(str, indexes)) or '0'}"},
        witness=None if passed else (total,))


def burnside_count(gset, decomposition=None):
    """Orbit count as the exact rational (1/|G|) sum_a |fix(a)|.

    The result must be an integer equal to the direct orbit count; any
    discrepancy raises.
    """
    dec = decomposition or orbits_and_stabilizers(gset)
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
    dec = decomposition or orbits_and_stabilizers(gset)
    t = gset.table
    k = gset.points
    kernel = build_representation(gset).kernel
    faithful = kernel == (0,)
    transitive = len(dec.orbits) == 1
    free = all(s == (0,) for s in dec.stabilizers)
    semiregular = any(s == (0,) for s in dec.stabilizers)
    sharply = True
    for x in range(k):
        counts = np.bincount(t[:, x], minlength=k)
        if not np.all(counts == 1):
            sharply = False
            break
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
    t = gset.table
    y = int(t[a, x])
    direct = tuple(int(g) for g in np.nonzero(t[:, y] == y)[0])
    stab_x = tuple(int(g) for g in np.nonzero(t[:, x] == x)[0])
    conj = conjugate_set(gset.carrier, a, stab_x)
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
    pos = {y: i for i, y in enumerate(ys)}
    t = gset.table
    sub = t[:, ys]
    for a, j in np.argwhere(~np.isin(sub, ys))[:1]:
        raise ValidationError([Diagnostic(
            "invariant_subset", (int(a), ys[int(j)], int(sub[a, j])),
            f"{a}.{ys[int(j)]} = {int(sub[a, j])} is outside the subset")])
    new = np.vectorize(pos.__getitem__)(sub)
    labels = tuple(gset.point_labels[y] for y in ys)
    return validate_action(gset.carrier, new, point_labels=labels)


def disjoint_union(gsets):
    """Disjoint union of actions of the same carrier."""
    first = gsets[0]
    if not all(g.carrier.same_carrier(first.carrier) for g in gsets):
        raise ValueError("all actions must share one carrier")
    tables = []
    labels = []
    offset = 0
    for g in gsets:
        tables.append(g.table + offset)
        labels.extend(g.point_labels)
        offset += g.points
    return validate_action(first.carrier, np.hstack(tables),
                           point_labels=tuple(labels))


def relabel_points(gset, perm):
    """Conjugate the action by a permutation of the points."""
    perm = np.asarray(perm, dtype=np.int64)
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
    full = coset_of[carrier.table]
    if not np.array_equal(full, qt[coset_of[:, None], coset_of[None, :]]):
        a, b = map(int, np.argwhere(
            full != qt[coset_of[:, None], coset_of[None, :]])[0])
        raise ValidationError([Diagnostic(
            "quotient_well_defined", (a, b),
            "coset operation depends on the choice of representatives")])
    qcarrier = validate_gyrogroup(qt)
    qa = gset.table[reps, :]
    if not np.array_equal(gset.table, qa[coset_of, :]):
        a, x = map(int, np.argwhere(gset.table != qa[coset_of, :])[0])
        raise ValidationError([Diagnostic(
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
