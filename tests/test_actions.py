"""Action engine: validation, representations, orbits, counting, quotients."""

import re
from fractions import Fraction

import numpy as np
import pytest

from gyrokit import (GyroError, OrbitDecomposition, ValidationError,
                     action_from_homomorphism, build_coset_action,
                     build_representation, burnside_count,
                     check_orbit_stabilizer, classify, conjugate,
                     disjoint_union, faithful_quotient_action,
                     orbit_decomposition_equation, orbits_and_stabilizers,
                     parse_action_table, random_action, relabel_points,
                     restrict_to_invariant, serialize_action_table,
                     stabilizer_of_translate, validate_action,
                     validate_gyrogroup)
from gyrokit import finite
from gyrokit.actions import diagnose_action
from gyrokit.catalog import cyclic, dihedral
from gyrokit.finite import MAX_WITNESSES, SUBGROUP_ENUM_CAP

from conftest import regular_action, trivial_action


def brute_conjugacy_classes(table):
    """Independent oracle: conjugacy classes of a group table, plain loops."""
    n = len(table)
    inv = [next(b for b in range(n) if table[b][a] == 0) for a in range(n)]
    classes = []
    seen = set()
    for x in range(n):
        if x in seen:
            continue
        cls = {table[table[a][x]][inv[a]] for a in range(n)}
        classes.append(tuple(sorted(cls)))
        seen |= cls
    return classes


# -- validation -------------------------------------------------------------

def test_trivial_action_is_valid(s3):
    gset = trivial_action(s3, 4)
    assert gset.points == 4


def test_left_multiplication_of_group_is_valid(s3):
    regular_action(s3)


def test_left_gyroaddition_on_nondegenerate_carrier_invalid(t21):
    with pytest.raises(ValidationError) as exc:
        validate_action(t21, np.array(t21.table))
    diags = exc.value.diagnostics
    assert any(d.check == "action_compatible" for d in diags)
    a, b, x = next(d.witness for d in diags if d.check == "action_compatible")
    # the witness pinpoints a nonidentity gyration
    assert t21.gyration(a, b, x) != x


def test_identity_axiom_violation_detected(z6):
    table = np.array([[(a + x) % 3 for x in range(3)] for a in range(6)])
    table[0] = [1, 2, 0]
    with pytest.raises(ValidationError) as exc:
        validate_action(z6, table)
    assert any(d.check == "identity_acts_trivially"
               for d in exc.value.diagnostics)


def test_action_file_roundtrip(s3_conjugation):
    text = serialize_action_table(s3_conjugation)
    n, k, table = parse_action_table(text)
    assert (n, k) == (6, 6)
    assert np.array_equal(table, s3_conjugation.table)


def test_action_file_errors_carry_positions():
    from gyrokit import TableFormatError
    with pytest.raises(TableFormatError):
        parse_action_table("action 2\n0 1\n0 1\n")
    with pytest.raises(TableFormatError) as exc:
        parse_action_table("action 2 2\n0 1\n0 9\n")
    assert exc.value.line == 3


def law_cells_loop(g, t):
    """Independent oracle: the first MAX_WITNESSES cells (a, b, x,
    a.(b.x), (a+b).x) where the action law fails, by plain loops over
    (a, b, x) in that order; t is a list of rows over 0..k-1."""
    op = g.table.tolist()
    cells = []
    for a in range(len(t)):
        for b in range(len(t)):
            for x in range(len(t[0])):
                lhs, rhs = t[a][t[b][x]], t[op[a][b]][x]
                if lhs != rhs:
                    cells.append((a, b, x, lhs, rhs))
                    if len(cells) == MAX_WITNESSES:
                        return cells
    return cells


def diagnose_action_loop(g, table):
    """diagnose_action's (check, witness, message) list, from the loops."""
    k = len(table[0])
    out = [("identity_acts_trivially", (x,), f"0.{x} = {table[0][x]} != {x}")
           for x in range(k) if table[0][x] != x][:MAX_WITNESSES]
    return out + [("action_compatible", (a, b, x),
                   f"{a}.({b}.{x}) = {lhs} != ({a}+{b}).{x} = {rhs} "
                   f"(gyr[{a},{b}] obstruction)")
                  for a, b, x, lhs, rhs in law_cells_loop(g, table)]


def homomorphism_loop(g, perms):
    """action_from_homomorphism's (check, witness, message) list, from the
    loops."""
    k = len(perms[0])
    out = [("permutation", (a,), f"row {a} is not a permutation of 0..{k - 1}")
           for a in range(len(perms))
           if sorted(perms[a]) != list(range(k))][:MAX_WITNESSES]
    return out or [("homomorphism", (a, b),
                    f"perm({a}+{b}) != perm({a}) o perm({b}) at point {x}")
                   for a, b, x, _, _ in law_cells_loop(g, perms)]


def _assert_law_diagnostics_match_the_loops(g, bad):
    def triples(diags):
        return [(d.check, d.witness, d.detail["message"]) for d in diags]
    expected = diagnose_action_loop(g, bad.tolist())
    assert expected and triples(diagnose_action(g, bad)) == expected
    with pytest.raises(ValidationError) as exc:
        action_from_homomorphism(g, bad)
    assert triples(exc.value.diagnostics) == homomorphism_loop(g, bad.tolist())


def _corrupt(table, how, seed):
    """``table`` with two different rows swapped, or one entry overwritten
    by another point, both drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    t = table.copy()
    if how == "row_swap":
        i = rng.integers(len(t))
        j = rng.choice(np.flatnonzero((t != t[i]).any(axis=1)))
        t[[i, j]] = t[[j, i]]
    else:
        a, x = rng.integers(len(t)), rng.integers(t.shape[1])
        t[a, x] = (t[a, x] + rng.integers(1, t.shape[1])) % t.shape[1]
    return t


@pytest.fixture(scope="module")
def law_tables(t21):
    """(carrier, valid action table) pairs: the regular action of D16
    (order 32) and the action of the order-21 twist on the cosets of Z7."""
    d16 = validate_gyrogroup(dihedral(16))
    z7 = build_coset_action(t21, (0, 3, 6, 9, 12, 15, 18))
    return {"D16": (d16, np.array(d16.table)), "T21/Z7": (t21, np.array(z7.table))}


@pytest.mark.parametrize("name", ["D16", "T21/Z7"])
def test_valid_tables_give_no_law_diagnostics(law_tables, name):
    g, t = law_tables[name]
    assert diagnose_action_loop(g, t.tolist()) == [] == diagnose_action(g, t)
    assert homomorphism_loop(g, t.tolist()) == []
    assert np.array_equal(action_from_homomorphism(g, t).table, t)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("how", ["row_swap", "overwrite"])
@pytest.mark.parametrize("name", ["D16", "T21/Z7"])
def test_law_diagnostics_match_the_loop_oracle(law_tables, name, how, seed):
    g, t = law_tables[name]
    _assert_law_diagnostics_match_the_loops(g, _corrupt(t, how, seed))


def test_left_gyroaddition_diagnostics_match_the_loop_oracle(t21):
    _assert_law_diagnostics_match_the_loops(t21, np.array(t21.table))


# -- representations ----------------------------------------------------------

def test_trivial_action_kernel_is_whole_group(s3):
    rep = build_representation(trivial_action(s3, 3))
    assert rep.kernel == tuple(range(6))


def test_regular_action_is_faithful(s3):
    rep = build_representation(regular_action(s3))
    assert rep.kernel == (0,)


def test_kernel_is_intersection_of_stabilizers(s3_conjugation, z6_mod3):
    for gset in (s3_conjugation, z6_mod3):
        rep = build_representation(gset)
        dec = orbits_and_stabilizers(gset)
        inter = set(range(gset.carrier.order))
        for s in dec.stabilizers:
            inter &= set(s)
        assert set(rep.kernel) == inter


def test_action_from_homomorphism_roundtrip(s3_conjugation):
    rebuilt = action_from_homomorphism(
        s3_conjugation.carrier, build_representation(s3_conjugation).perms)
    assert np.array_equal(rebuilt.table, s3_conjugation.table)


def test_identity_homomorphism_gives_trivial_action(z6):
    perms = np.tile(np.arange(5), (6, 1))
    gset = action_from_homomorphism(z6, perms)
    assert np.array_equal(gset.table, trivial_action(z6, 5).table)


def test_non_homomorphic_assignment_rejected(z6):
    perms = np.tile(np.arange(3), (6, 1))
    perms[1] = [1, 2, 0]   # sigma_1 nontrivial but sigma_2 trivial
    with pytest.raises(ValidationError) as exc:
        action_from_homomorphism(z6, perms)
    assert any(d.check == "homomorphism" for d in exc.value.diagnostics)


def test_non_permutation_rejected(z6):
    perms = np.tile(np.arange(3), (6, 1))
    perms[2] = [0, 0, 1]
    with pytest.raises(ValidationError) as exc:
        action_from_homomorphism(z6, perms)
    assert any(d.check == "permutation" for d in exc.value.diagnostics)


# -- orbits and stabilizers ---------------------------------------------------

def test_trivial_action_orbits(s3):
    dec = orbits_and_stabilizers(trivial_action(s3, 4))
    assert all(len(o) == 1 for o in dec.orbits)
    assert dec.fixed_points == (0, 1, 2, 3)
    assert all(s == tuple(range(6)) for s in dec.stabilizers)


def test_s3_conjugation_matches_independent_class_oracle(s3, s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    oracle = brute_conjugacy_classes([list(map(int, row)) for row in s3.table])
    assert sorted(dec.orbits) == sorted(oracle)
    assert sorted(len(o) for o in dec.orbits) == [1, 2, 3]
    assert dec.fixed_points == (0,)          # the center


def test_s3_conjugation_stabilizers_are_centralizers(s3, s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    for x in range(6):
        centralizer = tuple(a for a in range(6)
                            if s3.oplus(a, x) == s3.oplus(x, a))
        assert dec.stabilizers[x] == centralizer


def test_gyration_invariance_of_stabilizers(t21):
    # coset action of the order-7 L-subgyrogroup; nondegenerate carrier
    from gyrokit import build_coset_action
    gset = build_coset_action(t21, tuple(range(0, 21, 3)))
    dec = orbits_and_stabilizers(gset)
    for x in range(gset.points):
        s = set(dec.stabilizers[x])
        for a in range(21):
            for b in range(21):
                assert {t21.gyration(a, b, c) for c in s} == s


# -- the counting theorems ----------------------------------------------------

def test_orbit_stabilizer_trivial(s3):
    report = check_orbit_stabilizer(trivial_action(s3, 3))
    assert report.passed
    assert all(p["orbit"] * p["stabilizer"] == 6 for p in report.detail["points"])


def test_orbit_stabilizer_s3_conjugation(s3_conjugation):
    report = check_orbit_stabilizer(s3_conjugation)
    assert report.passed
    sizes = {(p["orbit"], p["stabilizer"]) for p in report.detail["points"]}
    assert (2, 3) in sizes and (3, 2) in sizes and (1, 6) in sizes


def test_orbit_decomposition_trivial(s3):
    report = orbit_decomposition_equation(trivial_action(s3, 5))
    assert report.passed
    assert report.detail["equation"] == "5 = 5 + 0"


def test_s3_class_equation(s3_conjugation):
    report = orbit_decomposition_equation(s3_conjugation)
    assert report.passed
    assert report.detail["equation"] == "6 = 1 + 2 + 3"


def test_transitive_orbit_decomposition(z6):
    from gyrokit import build_coset_action
    gset = build_coset_action(z6, (0, 3))
    report = orbit_decomposition_equation(gset)
    assert report.passed
    assert report.detail["fixed"] == 0 and report.detail["indexes"] == [3]


def test_burnside_trivial_and_regular(s3):
    assert burnside_count(trivial_action(s3, 7)) == 7
    assert burnside_count(regular_action(s3)) == 1


def test_burnside_z3_left_addition():
    from gyrokit import validate_gyrogroup
    z3 = validate_gyrogroup(cyclic(3))
    reg = regular_action(z3)
    dec = orbits_and_stabilizers(reg)
    assert [len(f) for f in dec.fixed_by] == [3, 0, 0]
    assert burnside_count(reg, dec) == Fraction(3, 3)


def test_burnside_s3_conjugation(s3_conjugation):
    assert burnside_count(s3_conjugation) == 3


def test_burnside_is_exact_on_random_actions(z6, s3, t21):
    for carrier in (z6, s3, t21):
        for seed in range(5):
            gset = random_action(carrier, seed=seed)
            dec = orbits_and_stabilizers(gset)
            count = burnside_count(gset, dec)
            assert count.denominator == 1
            assert count == len(dec.orbits)


# -- classification ------------------------------------------------------------

def test_trivial_action_flags(s3):
    flags = classify(trivial_action(s3, 3))
    assert not any([flags.faithful, flags.transitive, flags.free,
                    flags.semiregular, flags.sharply_transitive])


def test_regular_action_flags():
    from gyrokit import validate_gyrogroup
    z3 = validate_gyrogroup(cyclic(3))
    flags = classify(regular_action(z3))
    assert all([flags.faithful, flags.transitive, flags.free,
                flags.semiregular, flags.sharply_transitive])


def test_coset_action_flags(z6):
    from gyrokit import build_coset_action
    flags = classify(build_coset_action(z6, (0, 2, 4)))
    assert flags.transitive and not flags.semiregular and not flags.free


# -- conjugate stabilizers -------------------------------------------------------

def test_stabilizer_of_translate_identity(s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    for x in range(6):
        assert stabilizer_of_translate(s3_conjugation, 0, x) == \
            dec.stabilizers[x]


def test_stabilizer_of_translate_group_case(s3, s3_conjugation):
    for a in range(6):
        for x in range(6):
            got = stabilizer_of_translate(s3_conjugation, a, x)
            stab_x = orbits_and_stabilizers(s3_conjugation).stabilizers[x]
            expected = tuple(sorted(
                s3.oplus(s3.oplus(a, c), s3.oinv(a)) for c in stab_x))
            assert got == expected


def test_stabilizer_of_translate_nondegenerate(t21):
    # both sides brute-forced over all elements on a nondegenerate carrier
    from gyrokit import build_coset_action
    gset = build_coset_action(t21, tuple(range(0, 21, 3)))
    for a in range(21):
        for x in range(gset.points):
            got = stabilizer_of_translate(gset, a, x)
            y = gset.act(a, x)
            scan = tuple(g for g in range(21) if gset.act(g, y) == y)
            assert got == scan


def test_points_in_one_orbit_have_conjugate_stabilizers(t21):
    from gyrokit import build_coset_action
    gset = build_coset_action(t21, tuple(range(0, 21, 3)))
    dec = orbits_and_stabilizers(gset)
    for orbit in dec.orbits:
        for x in orbit:
            for y in orbit:
                conjugates = {tuple(sorted(conjugate(t21, a, c)
                                           for c in dec.stabilizers[x]))
                              for a in range(21)}
                assert dec.stabilizers[y] in conjugates


# -- quotients and restrictions ---------------------------------------------------

def test_faithful_input_quotient_is_relabelling(s3_conjugation):
    out = faithful_quotient_action(s3_conjugation)
    assert out.carrier.order == 6
    assert np.array_equal(out.table, s3_conjugation.table)


def test_trivial_action_quotient_is_order_one(s3):
    out = faithful_quotient_action(trivial_action(s3, 4))
    assert out.carrier.order == 1
    assert classify(out).faithful


def test_z6_mod3_quotient(z6_mod3):
    assert build_representation(z6_mod3).kernel == (0, 3)
    out = faithful_quotient_action(z6_mod3)
    assert out.carrier.order == 3
    assert build_representation(out).kernel == (0,)
    assert np.array_equal(out.table,
                          np.array([[(a + x) % 3 for x in range(3)]
                                    for a in range(3)]))


def test_restrict_to_orbit_is_transitive(s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    orbit = next(o for o in dec.orbits if len(o) == 3)
    sub = restrict_to_invariant(s3_conjugation, orbit)
    assert classify(sub).transitive
    assert sub.point_labels == orbit


def test_restrict_to_whole_set_is_identity(s3_conjugation):
    sub = restrict_to_invariant(s3_conjugation, range(6))
    assert np.array_equal(sub.table, s3_conjugation.table)


def test_restrict_rejects_non_invariant_subset(s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    orbit = next(o for o in dec.orbits if len(o) == 3)
    with pytest.raises(ValidationError) as exc:
        restrict_to_invariant(s3_conjugation, orbit[:-1])
    d = next(d for d in exc.value.diagnostics if d.check == "invariant_subset")
    a, y, image = d.witness
    assert s3_conjugation.table[a, y] == image and image not in orbit[:-1]


# -- combinators -------------------------------------------------------------------

def test_disjoint_union_and_relabel(z6):
    from gyrokit import build_coset_action
    a = build_coset_action(z6, (0, 3))
    b = build_coset_action(z6, (0, 2, 4))
    u = disjoint_union([a, b])
    assert u.points == 5
    dec = orbits_and_stabilizers(u)
    assert sorted(len(o) for o in dec.orbits) == [2, 3]
    perm = np.array([4, 2, 0, 1, 3])
    r = relabel_points(u, perm)
    dec2 = orbits_and_stabilizers(r)
    assert sorted(len(o) for o in dec2.orbits) == [2, 3]
    assert burnside_count(r) == 2


def test_random_actions_are_seeded_and_verified(t21):
    g1 = random_action(t21, seed=123)
    g2 = random_action(t21, seed=123)
    assert np.array_equal(g1.table, g2.table)
    g3 = random_action(t21, seed=124)
    assert g1.points != g3.points or not np.array_equal(g1.table, g3.table)


def test_random_action_checks_the_law_on_its_table_once(monkeypatch, t21):
    from gyrokit import actions
    seen = []
    real = actions._action_law_violations
    monkeypatch.setattr(actions, "_action_law_violations",
                        lambda carrier, t: seen.append(np.array(t))
                        or real(carrier, t))
    g = random_action(t21, seed=2)  # nine points, in more than one orbit
    assert len(g.decomposition.orbits) > 1
    assert g.point_labels == tuple(range(g.points))
    assert sum(np.array_equal(t, g.table) for t in seen) == 1


def test_relabel_and_restrict_check_the_law_on_their_output_once(
        monkeypatch, s3_conjugation):
    from gyrokit import actions
    orbit = next(o for o in s3_conjugation.decomposition.orbits if len(o) == 3)
    seen = []
    real = actions._action_law_violations
    monkeypatch.setattr(actions, "_action_law_violations",
                        lambda carrier, t: seen.append(np.array(t))
                        or real(carrier, t))
    outs = (relabel_points(s3_conjugation, [5, 4, 3, 2, 1, 0]),
            restrict_to_invariant(s3_conjugation, orbit))
    assert len(seen) == 2
    assert all(np.array_equal(t, out.table) for t, out in zip(seen, outs))


def test_random_action_beyond_the_cap_asks_for_subgroups(monkeypatch):
    g = validate_gyrogroup(cyclic(SUBGROUP_ENUM_CAP + 1))

    def refuse(t):
        raise AssertionError("G/N was built before the cap was checked")

    # the cap is checked before G/N is built and validated
    with monkeypatch.context() as m:
        m.setattr(finite, "validate_gyrogroup", refuse)
        with pytest.raises(GyroError,
                           match="pass subgroups= to random_action") as exc:
            random_action(g, seed=1)
    assert "raise cap" not in str(exc.value)
    assert random_action(g, seed=1, subgroups=[(0,)]).points == g.order


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
def test_random_action_reads_its_seed_as_an_integer(t21, seed):
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not"):
        random_action(t21, seed)


def test_random_action_refuses_a_negative_seed(t21):
    with pytest.raises(ValueError, match="^seed -1 is negative$"):
        random_action(t21, -1)


def test_random_action_refuses_an_empty_subgroups_argument(t21):
    # the lattice above N always holds G, so only an empty argument is empty
    with pytest.raises(GyroError, match="^subgroups= is empty; "):
        random_action(t21, seed=1, subgroups=[])


def test_random_action_reads_a_2d_array_of_subgroups_as_its_rows(z6):
    given = random_action(z6, seed=3, subgroups=np.array([[0, 3]]))
    listed = random_action(z6, seed=3, subgroups=[(0, 3)])
    assert np.array_equal(given.table, listed.table)


def test_random_action_names_a_subgroups_entry_that_is_no_collection(z6):
    # a flat tuple of members, in place of a collection of subgroups
    with pytest.raises(ValueError,
                       match="^subgroups entry 0 is not a collection of members$"):
        random_action(z6, seed=1, subgroups=(0, 3))


# -- arguments outside the G-set --------------------------------------------

def outside(x):
    """The error message for ``x`` read as a point or element of 0..5."""
    return "is outside 0..5" if type(x) is int else "is not an integer"


@pytest.mark.parametrize("x", [-1, 6, 1.5, True])
def test_stabilizer_of_translate_rejects_outside_point(s3, x):
    with pytest.raises(ValueError, match=f"point {x} {outside(x)}"):
        stabilizer_of_translate(regular_action(s3), 1, x)


@pytest.mark.parametrize("a", [-1, 6, 2.5, True])
def test_stabilizer_of_translate_rejects_outside_element(s3, a):
    with pytest.raises(ValueError, match=f"element {a} {outside(a)}"):
        stabilizer_of_translate(regular_action(s3), a, 1)


def test_act_reads_its_indices_strictly(s3):
    # unchecked, act(-1, 0) acted by element 5, act(1.5, 0) and act(0, 3)
    # raised a bare IndexError and act(True, 0) a TypeError
    gset = build_coset_action(s3, (0, 1))
    assert gset.points == 3
    for a, x, message in [(-1, 0, "element -1 is outside 0..5"),
                          (6, 0, "element 6 is outside 0..5"),
                          (1.5, 0, "element 1.5 is not an integer"),
                          (True, 0, "element True is not an integer"),
                          (0, 3, "point 3 is outside 0..2"),
                          (0, -1, "point -1 is outside 0..2"),
                          (0, False, "point False is not an integer")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gset.act(a, x)
    assert [gset.act(np.int64(a), np.int64(0)) for a in range(6)] == \
        gset.table[:, 0].tolist()


@pytest.mark.parametrize("points, bad", [([6], 6), ([-1], -1), ([0, 2, 7], 7),
                                         ([1.7, 0.2, 2, 3, 4, 5], 1.7),
                                         ([0, True], True)])
def test_restrict_rejects_outside_points(s3, points, bad):
    with pytest.raises(ValueError, match=f"point {bad} {outside(bad)}"):
        restrict_to_invariant(regular_action(s3), points)


@pytest.mark.parametrize("perm", [[0, 0, 1, 2, 3, 4], [2, 0, 1],
                                  [0, 1, 2, 3, 4, 6], [[0, 1, 2, 3, 4, 5]],
                                  [0.9, 1, 2, 3, 4, 5],
                                  [True, False, 2, 3, 4, 5]])
def test_relabel_rejects_non_permutation(s3, perm):
    with pytest.raises(ValueError, match="permutation of 0..5"):
        relabel_points(regular_action(s3), perm)


def test_disjoint_union_of_nothing_is_rejected():
    with pytest.raises(ValueError, match="no actions"):
        disjoint_union([])


@pytest.mark.parametrize("table, check, message", [
    (np.zeros((5, 6), dtype=np.int64), "table_shape",
     "expected 6 rows, one per carrier element"),
    (np.zeros(6, dtype=np.int64), "table_shape",
     "expected 6 rows, one per carrier element"),
    (np.full((6, 3), 3), "table_range", "entries must lie in 0..2"),
    (np.full((6, 3), -1), "table_range", "entries must lie in 0..2")])
def test_malformed_action_tables_are_rejected(s3, table, check, message):
    [d] = diagnose_action(s3, table)
    assert (d.check, d.detail["message"]) == (check, message)
    with pytest.raises(ValidationError, match=f"{check}: {message}"):
        validate_action(s3, table)


@pytest.mark.parametrize("shape", [(5, 6), (7, 6), (6,)])
def test_homomorphisms_of_the_wrong_shape_are_rejected(s3, shape):
    with pytest.raises(ValidationError) as exc:
        action_from_homomorphism(s3, np.zeros(shape, dtype=np.int64))
    [d] = exc.value.diagnostics
    assert (d.check, d.witness, d.detail["message"]) == \
        ("perm_shape", shape, "expected 6 permutations")


def test_restrict_to_no_points_is_rejected(s3):
    with pytest.raises(ValueError, match="^empty subset$"):
        restrict_to_invariant(regular_action(s3), [])


def test_disjoint_union_over_two_carriers_is_rejected(z6, s3):
    with pytest.raises(ValueError, match="^all actions must share one carrier$"):
        disjoint_union([trivial_action(z6, 2), trivial_action(s3, 2)])


def test_zero_point_table_is_rejected(s3):
    from gyrokit.actions import diagnose_action
    empty = np.zeros((6, 0), dtype=np.int64)
    [d] = diagnose_action(s3, empty)
    assert (d.check, d.witness) == ("table_shape", (6, 0))
    for build in (validate_action, action_from_homomorphism):
        with pytest.raises(ValidationError) as exc:
            build(s3, empty)
        assert "at least one point" in str(exc.value)


# -- one analysis per G-set ---------------------------------------------------

def test_one_decomposition_per_gset(monkeypatch, s3):
    from gyrokit import actions, equivalence
    from gyrokit.coset_actions import build_coset_action
    decomposed = []
    real = actions._decompose
    monkeypatch.setattr(actions, "_decompose",
                        lambda g: decomposed.append(g) or real(g))
    gset = validate_action(s3, build_coset_action(s3, (0, 1)).table)
    dec = orbits_and_stabilizers(gset)
    classify(gset)
    check_orbit_stabilizer(gset)
    orbit_decomposition_equation(gset)
    burnside_count(gset)
    equivalence.match_components(gset, gset)
    equivalence.are_equivalent_transitive(gset, gset)
    assert orbits_and_stabilizers(gset) is dec is gset.decomposition
    assert sum(g is gset for g in decomposed) == 1
    # every G-set built along the way is decomposed at most once too
    assert len({id(g) for g in decomposed}) == len(decomposed)


def test_analyses_refuse_a_foreign_decomposition():
    # one orbit, but the forgery claims three fixed points: Burnside gave 3
    gset = regular_action(validate_gyrogroup(cyclic(3)))
    forged = OrbitDecomposition(
        orbits=((0,), (1,), (2,)), representatives=(0, 1, 2),
        orbit_of=(0, 1, 2), stabilizers=((0, 1, 2),) * 3,
        fixed_points=(0, 1, 2), fixed_by=((0, 1, 2),) * 3)
    other = regular_action(validate_gyrogroup(cyclic(3))).decomposition
    for analysis in (check_orbit_stabilizer, orbit_decomposition_equation,
                     burnside_count, classify):
        for dec in (forged, other):
            with pytest.raises(ValueError, match="gset.decomposition"):
                analysis(gset, dec)
        assert analysis(gset, gset.decomposition) == analysis(gset)
    assert burnside_count(gset) == 1


def test_each_distinct_stabilizer_is_checked_once(monkeypatch):
    from gyrokit import actions, validate_gyrogroup
    from gyrokit.catalog import dihedral
    calls, leaks = [], []
    real = actions.is_subgyrogroup
    monkeypatch.setattr(actions, "is_subgyrogroup",
                        lambda g, h: calls.append(h) or real(g, h))
    d32 = validate_gyrogroup(dihedral(32))
    real_leak = d32.defect_leak
    monkeypatch.setattr(d32, "defect_leak",
                        lambda h: leaks.append(h) or real_leak(h))
    regular = regular_action(d32)
    assert orbits_and_stabilizers(regular).stabilizers == ((0,),) * 64
    assert calls == leaks == [(0,)]


def test_stabilizer_failure_names_first_point_with_it(t21):
    from gyrokit import GyroError
    from gyrokit.actions import FiniteGSet
    # not an action: point x is fixed exactly by the members of stabs[x];
    # (0, 1, 2) is a subgyrogroup of twisted21() but not an L-subgyrogroup
    stabs = [(0, 3, 6, 9, 12, 15, 18), (0, 1, 2), (0, 3, 6, 9, 12, 15, 18),
             (0, 1, 2)]
    table = np.array([[x if a in s else (x + 1) % 4 for x, s in enumerate(stabs)]
                      for a in range(21)])
    fake = FiniteGSet(carrier=t21, table=table, point_labels=(0, 1, 2, 3))
    with pytest.raises(GyroError, match=r"^stab\(1\) misses the translate defect "):
        orbits_and_stabilizers(fake)
    # nor is left gyroaddition, though every stabilizer is the L-subgyrogroup
    # {0}: the kernel of an action contains every translate defect
    forged = FiniteGSet(carrier=t21, table=t21.table, point_labels=tuple(range(21)))
    with pytest.raises(GyroError, match=r"^stab\(0\) misses the translate defect "):
        orbits_and_stabilizers(forged)


def test_homomorphism_is_certified_by_one_law_check(monkeypatch, s3_conjugation):
    from gyrokit import actions
    calls = []
    real = actions._action_law_violations
    monkeypatch.setattr(actions, "_action_law_violations",
                        lambda g, t: calls.append(t) or real(g, t))
    monkeypatch.setattr(actions, "diagnose_action", None)
    out = action_from_homomorphism(s3_conjugation.carrier, s3_conjugation.table)
    assert np.array_equal(out.table, s3_conjugation.table)
    assert len(calls) == 1 and not out.table.flags.writeable
    assert build_representation(out).kernel == (0,)


def _orbits_by_union_find(table):
    """Independent oracle: the classes of the edges x -> a.x, merged by
    union-find, as (orbits, representatives, orbit_of)."""
    parent = list(range(table.shape[1]))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in range(table.shape[0]):
        for x in range(table.shape[1]):
            rx, ry = root(x), root(int(table[a, x]))
            parent[max(rx, ry)] = min(rx, ry)  # roots stay the smallest
    reps = sorted({root(x) for x in range(len(parent))})
    orbits = tuple(tuple(x for x in range(len(parent)) if root(x) == r)
                   for r in reps)
    return orbits, tuple(reps), tuple(reps.index(root(x))
                                      for x in range(len(parent)))


def test_orbits_match_union_find_on_relabelled_random_actions(z6, s3, t21):
    rng = np.random.default_rng(7)
    for g in (z6, s3, t21):
        for seed in range(12):
            gset = random_action(g, seed=seed)
            gset = relabel_points(gset, rng.permutation(gset.points))
            dec = orbits_and_stabilizers(gset)
            got = (dec.orbits, dec.representatives, dec.orbit_of)
            assert got == _orbits_by_union_find(gset.table), (g, seed)
            assert all(type(x) is int for x in dec.representatives + dec.orbit_of)


def test_action_tables_that_are_not_integers_are_rejected():
    from gyrokit.actions import diagnose_action
    z3 = validate_gyrogroup(cyclic(3))
    z2 = validate_gyrogroup(cyclic(2))
    for carrier, table in ((z3, cyclic(3) + 0.5), (z3, cyclic(3).astype(float)),
                           (z2, cyclic(2).astype(bool))):
        [d] = diagnose_action(carrier, table)
        assert d.check == "table_range" and "not integers" in d.detail["message"]
        with pytest.raises(ValidationError, match="table_range"):
            validate_action(carrier, table)
        with pytest.raises(ValidationError) as exc:
            action_from_homomorphism(carrier, table)
        assert [(d.check, d.witness) for d in exc.value.diagnostics] == \
            [("permutation", (a,)) for a in range(carrier.order)]
