"""G-maps, the fundamental isomorphism, and equivalence of G-sets.

Every orbit is a coset space G/stab(x) (the fundamental isomorphism), so
two orbits are equivalent exactly when their point stabilizers are
conjugate, and two G-sets are equivalent exactly when their orbits pair up
so.  Orbit pairs are decided on the G-sets' own tables and decompositions,
with no sub-G-set built.  Decisions here are exact and every produced
witness map is verified as an equivalence.

The conjugacy verdict is cross-checked by fixed points.  For orbits O of
X and P of Y of one size and S = stab_X(x) for x in O, O = P exactly when
S fixes a point of P: an equivalence phi sends x to a point that S fixes,
since s.phi(x) = phi(s.x) = phi(x); conversely a point y of P that S fixes
gives the G-map a.x |-> a.y, well defined because a.x = b.x puts -b + a in
S, so b.y = b.((-b + a).y) = a.y, and bijective because both orbits are
transitive of one size.  The test reads only the two action tables.
"""

import numpy as np

from .actions import restrict_to_invariant
from .core import GyroError, Record, _read_index, conjugate
from .coset_actions import induced_action_over_subgyrogroup


class GMap(Record):
    """A point map between two G-sets over the same carrier."""

    source: object
    target: object
    mapping: tuple


def _require_same_carrier(x, y):
    if not x.carrier.same_carrier(y.carrier):
        raise ValueError("G-sets live over different carriers")


def is_gmap(phi):
    """True iff phi commutes with the action: phi(a.x) = a.phi(x) for all
    a, x (checked exhaustively)."""
    _require_same_carrier(phi.source, phi.target)
    try:
        m = np.array([_read_index(y, phi.target.points, "point")
                      for y in phi.mapping], dtype=np.int64)
    except ValueError:
        return False
    if len(m) != phi.source.points:
        return False
    return bool(np.array_equal(m[phi.source.table], phi.target.table[:, m]))


def is_equivalence(phi):
    """A bijective G-map."""
    k = phi.source.points
    if phi.target.points != k or sorted(phi.mapping) != list(range(k)):
        return False
    return is_gmap(phi)


def fundamental_isomorphism(gset, z):
    """The equivalence G/stab(z) -> orb(z) sending a + stab(z) to a.z.

    Builds the coset action on G/stab(z) by left gyroaddition, restricts the
    original action to the orbit of z, and verifies that the quoted map is
    a bijective G-map.
    """
    z = _read_index(z, gset.points, "point")
    dec = gset.decomposition
    cosets = induced_action_over_subgyrogroup(gset, dec.stabilizers[z])
    orbit = dec.orbits[dec.orbit_of[z]]
    target = restrict_to_invariant(gset, orbit)
    pos = {y: i for i, y in enumerate(orbit)}
    mapping = tuple(pos[int(gset.table[rep, z])] for rep in cosets.point_labels)
    phi = GMap(source=cosets, target=target, mapping=mapping)
    if not is_equivalence(phi):
        raise GyroError("fundamental isomorphism map failed verification")
    return phi


def _orbit_partner(x, i, y, j):
    """Where an equivalence of orbit i of X with orbit j of Y sends x_i, or
    None when the two orbits are not equivalent.

    x_i and y_j are the smallest points of the orbits.  The orbits are
    equivalent exactly when some a conjugates stab(y_j) onto stab(x_i); the
    first such a* gives the partner a*.y_j.  The fixed-point test of the
    module docstring, which does not use ``conjugate``, cross-checks it.
    """
    dec_x, dec_y = x.decomposition, y.decomposition
    orbit_y = list(dec_y.orbits[j])
    stab_x = list(dec_x.stabilizers[dec_x.orbits[i][0]])
    stab_y = dec_y.stabilizers[orbit_y[0]]
    # row a: the conjugate of stab_y by a; conjugation is injective, so it
    # is stab_x iff it lies in stab_x and the two have one size
    conj = conjugate(x.carrier, np.arange(x.carrier.order)[:, None],
                     np.array(stab_y))
    hits = np.flatnonzero(np.isin(conj, stab_x).all(axis=1)
                          & (len(stab_x) == len(stab_y)))
    fixed = len(dec_x.orbits[i]) == len(orbit_y) and bool(
        (y.table[np.ix_(stab_x, orbit_y)] == orbit_y).all(axis=0).any())
    if fixed != bool(len(hits)):
        raise GyroError(
            "stabilizer-conjugacy decision disagrees with the fixed-point test")
    return int(y.table[hits[0], orbit_y[0]]) if len(hits) else None


def are_equivalent_transitive(x, y):
    """Decide equivalence of two transitive G-sets over one carrier, as
    :func:`match_components` decides it on their single orbits.  Returns
    (equivalent, witness GMap or None).
    """
    _require_same_carrier(x, y)
    for g in (x, y):
        if len(g.decomposition.orbits) != 1:
            raise ValueError("both G-sets must be transitive")
    m = match_components(x, y)
    return m.equivalent, m.mapping


class ComponentMatch(Record):
    """Outcome of matching the orbits of two G-sets."""

    equivalent: bool
    pairs: tuple
    mapping: GMap | None
    unmatched: tuple | None
    message: str


def match_components(x, y):
    """Decide X = Y by matching the orbits of X and Y pairwise.

    Each orbit of X, in index order, takes the first unmatched one of Y,
    in index order, that ``_orbit_partner`` accepts.  Equivalence is an
    equivalence relation, so equivalent orbits form complete bipartite
    blocks, and first fit matches as many pairs in each block as a maximum
    matching does, leaving the same orbits unmatched.  Each match sends
    a.x_i to a.p for the partner p of x_i; on success the assembled map is
    verified as one equivalence.
    """
    _require_same_carrier(x, y)
    orbits_x, orbits_y = x.decomposition.orbits, y.decomposition.orbits
    free = list(range(len(orbits_y)))
    pairs = []
    mapping = np.full(x.points, -1)  # a gap fails the verification
    for i, orbit in enumerate(orbits_x):
        for j in free:
            if len(orbits_y[j]) != len(orbit):
                continue
            partner = _orbit_partner(x, i, y, j)
            if partner is not None:
                free.remove(j)
                pairs.append((i, j))
                mapping[x.table[:, orbit[0]]] = y.table[:, partner]
                break
        else:
            # the smallest unmatched orbit of the first G-set
            return _unmatched("first", orbit)
    if free:
        return _unmatched("second", orbits_y[free[0]])
    glob = GMap(source=x, target=y, mapping=tuple(mapping.tolist()))
    if not is_equivalence(glob):
        raise GyroError("assembled component matching failed verification")
    return ComponentMatch(True, tuple(pairs), glob, None,
                          f"matched {len(pairs)} component(s)")


def _unmatched(side, orbit):
    return ComponentMatch(
        equivalent=False, pairs=(), mapping=None, unmatched=tuple(orbit),
        message=f"component {set(orbit)} of the {side} G-set has no "
                f"equivalent partner")
