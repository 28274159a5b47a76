"""G-maps, fundamental isomorphism, equivalence decisions, components."""

from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from gyrokit import (GMap, are_equivalent_transitive, build_coset_action,
                     coset_criterion, disjoint_union, enumerate_subgyrogroups,
                     fundamental_isomorphism, is_equivalence, is_gmap,
                     match_components, orbits_and_stabilizers, random_action,
                     relabel_points, validate_gyrogroup)
from gyrokit.catalog import dihedral, symmetric

from conftest import regular_action, trivial_action


def test_identity_map_is_equivalence(s3_conjugation):
    phi = GMap(s3_conjugation, s3_conjugation, tuple(range(6)))
    assert is_gmap(phi) and is_equivalence(phi)


def test_non_commuting_bijection_rejected(s3_conjugation):
    phi = GMap(s3_conjugation, s3_conjugation, (1, 0, 2, 3, 4, 5))
    assert not is_gmap(phi)


def test_gmap_carrier_mismatch_raises(z6, s3):
    x = trivial_action(z6, 2)
    y = trivial_action(s3, 2)
    with pytest.raises(ValueError):
        is_gmap(GMap(x, y, (0, 1)))


def test_non_bijective_gmap_is_not_equivalence(z6):
    x = trivial_action(z6, 2)
    y = trivial_action(z6, 1)
    collapse = GMap(x, y, (0, 0))
    assert is_gmap(collapse) and not is_equivalence(collapse)


def test_equivalences_preserve_stabilizers(z6):
    x = build_coset_action(z6, (0, 3))
    for perm in permutations(range(3)):
        phi = GMap(x, x, perm)
        if not is_equivalence(phi):
            continue
        dec = orbits_and_stabilizers(x)
        for p in range(3):
            assert dec.stabilizers[p] == dec.stabilizers[phi.mapping[p]]


def test_fundamental_isomorphism_trivial(s3):
    gset = trivial_action(s3, 3)
    phi = fundamental_isomorphism(gset, 1)
    assert phi.source.points == 1 and phi.target.points == 1
    assert is_equivalence(phi)


def test_fundamental_isomorphism_regular(z6):
    gset = regular_action(z6)
    phi = fundamental_isomorphism(gset, 0)
    assert phi.source.points == 6
    assert phi.mapping == tuple(range(6))


def test_fundamental_isomorphism_s3_orbit(s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    z = next(o for o in dec.orbits if len(o) == 3)[0]
    phi = fundamental_isomorphism(s3_conjugation, z)
    assert phi.source.points == 3 and phi.target.points == 3
    assert is_equivalence(phi)


def test_fundamental_isomorphism_every_point(s3_conjugation, z6_mod3, t21):
    from gyrokit import build_coset_action as bca
    fixtures = [s3_conjugation, z6_mod3, bca(t21, tuple(range(0, 21, 3)))]
    for gset in fixtures:
        for z in range(gset.points):
            assert is_equivalence(fundamental_isomorphism(gset, z))


def test_self_equivalence(z6):
    x = build_coset_action(z6, (0, 2, 4))
    eq, phi = are_equivalent_transitive(x, x)
    assert eq and is_equivalence(phi)


def test_conjugate_coset_actions_are_equivalent(s3):
    # two conjugate order-2 subgroups of S3 give equivalent coset actions
    subs = [h for h in enumerate_subgyrogroups(s3) if len(h) == 2]
    assert len(subs) == 3
    x = build_coset_action(s3, subs[0])
    y = build_coset_action(s3, subs[1])
    eq, phi = are_equivalent_transitive(x, y)
    assert eq and is_equivalence(phi)


def test_different_sizes_are_not_equivalent(z6):
    x = build_coset_action(z6, (0, 3))      # 3 points
    y = build_coset_action(z6, (0, 2, 4))   # 2 points
    eq, phi = are_equivalent_transitive(x, y)
    assert not eq and phi is None


def test_same_size_non_conjugate_stabilizers(z6):
    # Z6 regular action vs the 6-point union cannot arise here; instead use
    # the regular action against itself relabelled, which must match
    x = regular_action(z6)
    y = relabel_points(x, np.array([2, 3, 4, 5, 0, 1]))
    eq, phi = are_equivalent_transitive(x, y)
    assert eq and is_equivalence(phi)


def test_non_transitive_input_rejected(s3_conjugation, z6):
    x = build_coset_action(z6, (0, 3))
    with pytest.raises(ValueError):
        are_equivalent_transitive(s3_conjugation, x)
    with pytest.raises(ValueError, match="^both G-sets must be transitive$"):
        are_equivalent_transitive(x, disjoint_union([x, x]))


def test_agreement_with_brute_force_search(z6, s3, t21):
    """Conjugacy decision agrees with the test-side bijection search on
    small fixtures."""
    fixtures = []
    for g in (z6, s3):
        for h in enumerate_subgyrogroups(g):
            fixtures.append(build_coset_action(g, h))
    fixtures.append(build_coset_action(t21, tuple(range(0, 21, 3))))
    fixtures.append(build_coset_action(t21, tuple(range(21))))
    for x in fixtures:
        for y in fixtures:
            if not x.carrier.same_carrier(y.carrier):
                continue
            if x.points > 6 or y.points > 6:
                continue
            assert are_equivalent_transitive(x, y)[0] == \
                _equivalent_by_search(x, y)


def test_wrong_conjugate_is_caught_by_the_fixed_point_test(monkeypatch):
    """Beyond any bijection search: D_16 on the 8 cosets of a reflection
    subgroup, alone and in a union with its regular action, with conjugate
    returning no member of any stabilizer, so conjugacy says 'not
    equivalent' where the fixed-point test finds one."""
    from gyrokit import GyroError, equivalence
    d16 = validate_gyrogroup(dihedral(8))
    x = build_coset_action(d16, (0, 8))
    union = disjoint_union([x, build_coset_action(d16, (0,))])
    assert x.points == 8 and are_equivalent_transitive(x, x)[0]
    assert match_components(union, union).equivalent
    monkeypatch.setattr(equivalence, "conjugate",
                        lambda g, a, b: np.full(np.broadcast(a, b).shape, -1))
    with pytest.raises(GyroError, match="fixed-point test"):
        are_equivalent_transitive(x, x)
    with pytest.raises(GyroError, match="fixed-point test"):
        match_components(union, union)


def test_match_self_is_identity_assembly(s3_conjugation):
    m = match_components(s3_conjugation, s3_conjugation)
    assert m.equivalent
    assert is_equivalence(m.mapping)


def test_match_reordered_union(z6):
    a = build_coset_action(z6, (0, 3))
    b = build_coset_action(z6, (0, 2, 4))
    x = disjoint_union([a, b])
    y = disjoint_union([b, a])
    m = match_components(x, y)
    assert m.equivalent
    assert m.pairs == ((0, 1), (1, 0))
    assert is_equivalence(m.mapping)


def test_match_two_copies_swapped(z6):
    a = build_coset_action(z6, (0, 3))
    x = disjoint_union([a, a])
    y = relabel_points(x, np.array([3, 4, 5, 0, 1, 2]))
    m = match_components(x, y)
    assert m.equivalent and is_equivalence(m.mapping)


def test_match_refusal_names_component(z6):
    x = disjoint_union([build_coset_action(z6, (0, 3)),
                        build_coset_action(z6, (0, 2, 4))])
    y = disjoint_union([build_coset_action(z6, (0, 3)),
                        build_coset_action(z6, (0, 3))])
    m = match_components(x, y)
    assert not m.equivalent
    assert m.unmatched is not None
    assert "no equivalent partner" in m.message


@pytest.mark.parametrize("z", [-1, 6, True, 0.5])
def test_fundamental_isomorphism_rejects_outside_point(s3, z):
    reason = "is outside 0..5" if type(z) is int else "is not an integer"
    with pytest.raises(ValueError, match=f"point {z} {reason}"):
        fundamental_isomorphism(regular_action(s3), z)


def _equivalent_by_search(x, y):
    """Independent oracle: some bijection of the points commutes with every
    carrier element, found by trying all of them at once."""
    if x.points != y.points:
        return False
    maps = np.array(list(permutations(range(y.points))))  # one per row
    # row m works iff maps[m][x.table[a, p]] == y.table[a, maps[m][p]]
    lhs = np.take_along_axis(maps[:, None, :].repeat(x.carrier.order, 1),
                             x.table[None, :, :].repeat(len(maps), 0), axis=2)
    rhs = y.table[:, maps].transpose(1, 0, 2)
    return bool((lhs == rhs).all(axis=(1, 2)).any())


def test_match_components_agrees_with_bijection_search(groups):
    """Unions of at most 6 points, often with repeated components, matched
    against shuffled and relabelled rearrangements, half of them with one
    component swapped for another of its size; D4's same-size components
    (cosets of its centre and of a reflection, say) can be inequivalent."""
    rng = np.random.default_rng(15)
    verdicts, repeats = [], 0
    for name in ("Z6", "S3", "D4"):
        g = groups[name]
        pool = [build_coset_action(g, h) for h in enumerate_subgyrogroups(g)
                if g.order // len(h) <= 6]
        for _ in range(40):
            parts, room = [], 6
            while not parts or rng.random() < 0.75:
                # the parts so far are candidates again, so repeats are common
                fits = [c for c in pool + parts if c.points <= room]
                if not fits:
                    break
                parts.append(fits[int(rng.integers(len(fits)))])
                room -= parts[-1].points
            repeats += len({id(c) for c in parts}) < len(parts)
            x = disjoint_union(parts)
            others = [parts[int(i)] for i in rng.permutation(len(parts))]
            if rng.random() < 0.5:
                i = int(rng.integers(len(others)))
                same = [c for c in pool
                        if c.points == others[i].points and c is not others[i]]
                if same:
                    others[i] = same[int(rng.integers(len(same)))]
            y = relabel_points(disjoint_union(others),
                               rng.permutation(x.points))
            m = match_components(x, y)
            assert m.equivalent == _equivalent_by_search(x, y), (name, parts)
            if m.equivalent:
                assert is_equivalence(m.mapping)
                assert sorted(j for _, j in m.pairs) == \
                    list(range(len(m.pairs)))
            else:
                assert m.mapping is None and m.unmatched
            verdicts.append(m.equivalent)
    assert repeats >= 30
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


def test_d4_centre_and_reflection_cosets_are_inequivalent(groups):
    from gyrokit import conjugate_set
    d4 = groups["D4"]
    halves = [h for h in enumerate_subgyrogroups(d4) if len(h) == 2]
    normal = [h for h in halves
              if all(conjugate_set(d4, a, h) == h for a in range(8))]
    [centre] = normal
    reflection = next(h for h in halves if h not in normal)
    x = build_coset_action(d4, centre)
    y = build_coset_action(d4, reflection)
    assert x.points == y.points == 4
    assert not match_components(x, y).equivalent
    assert not _equivalent_by_search(x, y)


def test_first_fit_compares_each_component_with_the_free_ones(monkeypatch, z6):
    from gyrokit import equivalence
    calls = []
    real = equivalence._orbit_partner
    monkeypatch.setattr(equivalence, "_orbit_partner",
                        lambda x, i, y, j: calls.append(1) or real(x, i, y, j))
    c2, c3 = (build_coset_action(z6, h) for h in ((0, 2, 4), (0, 3)))
    x = disjoint_union([c3, c3, c2])
    y = disjoint_union([c2, c3, c3])
    m = match_components(x, y)
    assert m.equivalent and is_equivalence(m.mapping)
    assert m.pairs == ((0, 1), (1, 2), (2, 0))
    assert len(calls) == 3


def test_matching_reads_the_orbits_in_place(monkeypatch, s3_conjugation):
    """No sub-G-set is built or validated, and no transitive decision is
    delegated: match_components works on the two G-sets' own tables."""
    from gyrokit import actions, equivalence
    x = s3_conjugation
    y = relabel_points(disjoint_union([x, x]), np.arange(12)[::-1])

    def refuse(*args, **kwargs):
        raise AssertionError("called by match_components")

    for mod in (actions, equivalence):
        for name in ("restrict_to_invariant", "validate_action",
                     "are_equivalent_transitive"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    m = match_components(y, y)
    assert m.equivalent and is_equivalence(m.mapping)
    assert not match_components(x, y).equivalent


def _marks(gset, incidence):
    """Burnside's marks: row r of the 0/1 incidence matrix is a subgyrogroup
    K, and its mark is the number of points whose stabilizer contains K,
    that is, the points that no member of K moves."""
    moved = gset.table != np.arange(gset.points)
    return ((incidence @ moved) == 0).sum(axis=1)


def test_match_components_agrees_with_the_table_of_marks(groups, t21):
    """Every stabilizer contains the normal subgyrogroup N generated by the
    translate defects, so each G-set is a set over the group G/N, whose
    subgroups are the K/N; by Burnside two such sets are equivalent exactly
    when every subgyrogroup K fixes as many points in one as in the other.
    Unlike the bijection search, this reaches unions of up to 16 points."""
    carriers = [groups["Z6"], groups["S3"], groups["D4"], t21,
                validate_gyrogroup(symmetric(4)),
                validate_gyrogroup(dihedral(8))]
    rng = np.random.default_rng(17)
    verdicts = []
    for g in carriers:
        subs = enumerate_subgyrogroups(g)
        incidence = np.zeros((len(subs), g.order), dtype=np.int64)
        for r, h in enumerate(subs):
            incidence[r, list(h)] = 1
        passing = [h for h in subs if coset_criterion(g, h).passed]
        acts = [random_action(g, seed, subgroups=passing)
                for seed in range(20)]
        marks = [_marks(a, incidence) for a in acts]
        for a, b in combinations_with_replacement(range(len(acts)), 2):
            x, y = acts[a], acts[b]
            if x.points != y.points:
                continue
            y = relabel_points(y, rng.permutation(y.points))
            m = match_components(x, y)
            assert m.equivalent == np.array_equal(marks[a], marks[b]), \
                (g.order, a, b)
            if a != b:
                verdicts.append(m.equivalent)
    assert sum(verdicts) >= 20 and len(verdicts) - sum(verdicts) >= 50


def test_mappings_that_are_not_integers_are_no_gmaps(groups):
    reg = regular_action(groups["Z3"])
    assert not is_gmap(GMap(reg, reg, (0.5, 1.7, 2.2)))
    assert not is_equivalence(GMap(reg, reg, (False, True, 2)))
    assert not is_gmap(GMap(reg, reg, (0, 1, 3)))
    assert not is_gmap(GMap(reg, reg, (0, 1)))
    assert not is_gmap(GMap(reg, reg, (0, 1, 2, 0)))
    assert is_equivalence(GMap(reg, reg, tuple(np.arange(3))))
