"""G-maps, the fundamental isomorphism, and equivalence of G-sets.

Two transitive G-sets over the same carrier are equivalent exactly when
their point stabilizers are conjugate; a general G-set is determined up to
rearrangement by its transitive components.  Decisions here are exact and
every produced witness map is re-verified as an equivalence.

The conjugacy verdict is cross-checked by fixed points.  For transitive X
and Y of k points each and S = stab_X(0), X = Y exactly when S fixes a
point of Y: an equivalence phi sends 0 to a point that S fixes, since
s.phi(0) = phi(s.0) = phi(0); conversely a point y that S fixes gives the
G-map a.0 |-> a.y, well defined because a.0 = b.0 puts -b + a in S, so
b.y = b.((-b + a).y) = a.y, and bijective because both sets are transitive
of one size.  The test reads only the two action tables.
"""

from dataclasses import dataclass

import numpy as np

from .actions import restrict_to_invariant
from .core import GyroError, conjugate
from .coset_actions import induced_action_over_subgyrogroup
from .finite import _read_index


@dataclass(frozen=True)
class GMap:
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


def are_equivalent_transitive(x, y):
    """Decide equivalence of two transitive G-sets over one carrier.

    Searches for a carrier element conjugating one point stabilizer onto
    the other; on success composes the two fundamental isomorphisms into an
    explicit equivalence witness.  The verdict is cross-checked at every
    point count by the fixed-point test of the module docstring, which does
    not use ``conjugate``.  Returns (equivalent, witness GMap or None).
    """
    _require_same_carrier(x, y)
    for g in (x, y):
        if len(g.decomposition.orbits) != 1:
            raise ValueError("both G-sets must be transitive")
    carrier = x.carrier
    stab_x, stab_y = (g.decomposition.stabilizers[0] for g in (x, y))
    # row a: the conjugate of stab_y by a; conjugation is injective, so it
    # is stab_x iff it lies in stab_x and the two have one size
    conj = conjugate(carrier, np.arange(carrier.order)[:, None],
                     np.array(stab_y))
    hits = np.flatnonzero(np.isin(conj, stab_x).all(axis=1)
                          & (len(stab_x) == len(stab_y)))
    found = int(hits[0]) if len(hits) else None
    witness = None
    if found is not None:
        # stab_x = stab(found . y0), so both fundamental isomorphisms factor
        # through the same coset space G/stab_x: the first c with c.0 = p
        # sends p to c.y0
        y0 = int(y.table[found, 0])
        _, c = np.unique(x.table[:, 0], return_index=True)
        witness = GMap(source=x, target=y, mapping=tuple(y.table[c, y0].tolist()))
        if not is_equivalence(witness):
            raise GyroError("conjugate stabilizers produced a non-equivalence")
    fixed = x.points == y.points and bool(
        (y.table[list(stab_x)] == np.arange(y.points)).all(axis=0).any())
    if fixed != (found is not None):
        raise GyroError(
            "stabilizer-conjugacy decision disagrees with the fixed-point test")
    return found is not None, witness


def transitive_components(gset):
    """The orbits of a G-set as transitive sub-G-sets, ordered by their
    smallest point."""
    return [restrict_to_invariant(gset, o) for o in gset.decomposition.orbits]


@dataclass(frozen=True)
class ComponentMatch:
    """Outcome of matching transitive components of two G-sets."""

    equivalent: bool
    pairs: tuple
    mapping: GMap | None
    unmatched: tuple | None
    message: str


def match_components(x, y):
    """Decide X = Y by matching transitive components pairwise.

    Each component of X, in index order, takes the first unmatched one of
    Y, in index order, that are_equivalent_transitive accepts.  Equivalence
    is an equivalence relation, so equivalent components form complete
    bipartite blocks, and first fit matches as many pairs in each block as
    a maximum matching does, leaving the same components unmatched.  On
    success the per-component witnesses are assembled into one global
    equivalence and re-verified.
    """
    _require_same_carrier(x, y)
    dec_x, dec_y = x.decomposition, y.decomposition
    comps_y = transitive_components(y)
    free = list(range(len(comps_y)))
    matched = []  # (i, j, witness)
    for i, cx in enumerate(transitive_components(x)):
        for j in free:
            if comps_y[j].points != cx.points:
                continue
            ok, phi = are_equivalent_transitive(cx, comps_y[j])
            if ok:
                free.remove(j)
                matched.append((i, j, phi))
                break
        else:
            # the smallest unmatched component of the first G-set
            return _unmatched("first", dec_x.orbits[i])
    if free:
        return _unmatched("second", dec_y.orbits[free[0]])
    mapping = [None] * x.points
    for i, j, phi in matched:
        for p, q in enumerate(phi.mapping):
            mapping[dec_x.orbits[i][p]] = dec_y.orbits[j][q]
    glob = GMap(source=x, target=y, mapping=tuple(mapping))
    if not is_equivalence(glob):
        raise GyroError("assembled component matching failed verification")
    return ComponentMatch(equivalent=True,
                          pairs=tuple((i, j) for i, j, _ in matched),
                          mapping=glob, unmatched=None,
                          message=f"matched {len(matched)} component(s)")


def _unmatched(side, orbit):
    return ComponentMatch(
        equivalent=False, pairs=(), mapping=None, unmatched=tuple(orbit),
        message=f"component {set(orbit)} of the {side} G-set has no "
                f"equivalent partner")
