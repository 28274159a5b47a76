"""Cayley-table ingestion, exhaustive validation, subgyrogroups, cosets."""

import re

import numpy as np
import pytest

from gyrokit import finite
from gyrokit import (CayleyTable, GyroError, TableFormatError,
                     ValidationError, coset_criterion, diagnose_gyrogroup,
                     enumerate_subgyrogroups, is_l_subgyrogroup,
                     is_subgyrogroup, left_cosets, parse_cayley_table,
                     serialize_cayley_table, subgyrogroup_closure,
                     validate_gyrogroup)
from gyrokit.catalog import (cyclic, dihedral, frobenius, frobenius21,
                             square_root_twist, symmetric, twisted21)

from conftest import (GYRATION_CHECKS, LADDER_GROUPS, T21_NON_INVARIANT,
                      closure_search_subgyrogroups, defect_leak_loop,
                      dense_gyration_diagnostics, group_tables,
                      gyration_leak_loop, is_subgyrogroup_loop,
                      left_cosets_loop, nontrivial_gyration_loop, set_closure,
                      twist_gyrations, twisted39, two_sided_inverses)


def group_axioms_hold(table):
    """Independent group-axiom oracle: plain loops over all triples."""
    n = len(table)
    if any(table[0][b] != b for b in range(n)):
        return False
    if any(table[a][0] != a for a in range(n)):
        return False
    for a in range(n):
        if sorted(table[a]) != list(range(n)):
            return False
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


# -- parsing and serialization -----------------------------------------

def test_parse_z2():
    t = parse_cayley_table("gyro 2\n0 1\n1 0\n")
    assert t.order == 2
    assert t.table.tolist() == [[0, 1], [1, 0]]


def test_parse_labels_and_comments():
    text = "# a comment\ngyro 2\nlabels e g\n0 1  # row\n1 0\n"
    t = parse_cayley_table(text)
    assert t.labels == ("e", "g")


def test_parse_short_row_rejected_with_position():
    text = "gyro 4\n0 1 2 3\n1 2 3\n2 3 0 1\n3 0 1 2\n"
    with pytest.raises(TableFormatError) as exc:
        parse_cayley_table(text)
    assert exc.value.line == 3


def test_parse_non_integer_rejected():
    with pytest.raises(TableFormatError):
        parse_cayley_table("gyro 2\n0 x\n1 0\n")


def test_parse_out_of_range_rejected():
    with pytest.raises(TableFormatError):
        parse_cayley_table("gyro 2\n0 5\n1 0\n")


def test_parse_missing_rows_rejected():
    with pytest.raises(TableFormatError):
        parse_cayley_table("gyro 3\n0 1 2\n")


def test_serialize_roundtrip_is_canonical():
    ct = CayleyTable(3, cyclic(3), labels=("e", "a", "b"))
    text = serialize_cayley_table(ct)
    again = parse_cayley_table(text)
    assert serialize_cayley_table(again) == text
    assert again.table.tolist() == ct.table.tolist()
    assert again.labels == ct.labels


@pytest.mark.parametrize("labels, bad", [
    (("e", "g#h"), "g#h"), (("e", "g h"), "g h"), ((1, 2), 1), (("e", ""), ""),
    (("e", "g\t"), "g\t"), (("a", "a"), "a")])
def test_labels_the_text_format_cannot_hold_are_rejected(labels, bad):
    # '#' starts a comment and whitespace splits a label, so these would
    # serialize to text that parses back wrong or not at all; a repeated
    # label names two elements at once
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r} ")):
        CayleyTable(2, cyclic(2), labels=labels)


def test_label_count_must_match_the_order():
    for labels in (("e",), ("e", "a", "b")):
        with pytest.raises(ValueError, match="^label count != order$"):
            CayleyTable(2, cyclic(2), labels=labels)


# -- validation ---------------------------------------------------------

def test_all_group_tables_validate_as_degenerate():
    for name, table in group_tables().items():
        assert group_axioms_hold(table.tolist()), name
        g = validate_gyrogroup(table)
        assert g.is_degenerate(), name


def test_twisted21_validates_and_is_nondegenerate():
    g = validate_gyrogroup(square_root_twist(frobenius(7, 3, 2)))
    assert not g.is_degenerate()
    assert g.order == 21


def test_frobenius_matches_pair_loop():
    # (i, j) + (i', j') = (i + 2^j i', j + j') on Z7 x Z3, element 3i + j
    els = [(i, j) for i in range(7) for j in range(3)]
    loop = [[els.index(((i1 + pow(2, j1, 7) * i2) % 7, (j1 + j2) % 3))
             for i2, j2 in els] for i1, j1 in els]
    t = frobenius(7, 3, 2)
    assert t.dtype == np.int64 and t.tolist() == loop
    assert np.array_equal(frobenius21(), t)
    assert validate_gyrogroup(frobenius(19, 3, 7)).is_degenerate()


@pytest.mark.parametrize("args", [(7, 3, 3), (7, 3, 0), (13, 3, 2), (7, 0, 2),
                                  (1, 1, 1)])
def test_frobenius_rejects_bad_parameters(args):
    with pytest.raises(ValueError, match="r\\^q = 1"):
        frobenius(*args)


@pytest.mark.parametrize("args, bad", [((7, 3, 2.0), "r 2.0"), ((7.0, 3, 2), "p 7.0"),
                                       ((7, "3", 2), "q '3'"), ((7, 3, True), "r True")])
def test_frobenius_parameters_must_be_integers(args, bad):
    # pow raised a bare TypeError on a float or a string, and read True as 1
    with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not an integer$"):
        frobenius(*args)
    assert np.array_equal(frobenius(*map(np.int64, (7, 3, 2))), frobenius21())


def test_swapped_entries_rejected_with_witness():
    table = cyclic(6).copy()
    table[1, 1], table[1, 2] = table[1, 2], table[1, 1]
    diags = diagnose_gyrogroup(table)
    assert diags
    checks = {d.check for d in diags}
    assert checks & {"row_permutation", "left_gyroassociative", "left_loop",
                     "gyration_automorphism"}


def test_single_entry_change_rejected():
    table = symmetric(3).copy()
    table[2, 3] = table[2, 2]
    with pytest.raises(ValidationError) as exc:
        validate_gyrogroup(table)
    assert any(d.check == "row_permutation" for d in exc.value.diagnostics)


def test_identity_row_violation_detected():
    table = cyclic(4).copy()
    table[0] = [1, 0, 3, 2]
    diags = diagnose_gyrogroup(table)
    assert any(d.check == "identity_row" for d in diags)


def test_missing_inverse_detected():
    # left-zero row pattern: a+b = b has no b with b+a = 0 for a != 0
    n = 3
    table = np.tile(np.arange(n), (n, 1))
    diags = diagnose_gyrogroup(table)
    assert any(d.check.startswith("left_inverse") for d in diags)


def test_order_zero_table_is_rejected():
    empty = np.zeros((0, 0), dtype=np.int64)
    for check in (diagnose_gyrogroup, validate_gyrogroup,
                  lambda t: CayleyTable(0, t),
                  lambda t: CayleyTable(order=0, table=t)):
        with pytest.raises(ValueError, match="order must be >= 1"):
            check(empty)


def test_table_orders_that_are_not_integers_are_rejected():
    # unchecked, CayleyTable(True, ...) was written as 'gyro True', which
    # parse_cayley_table refuses
    for order, table in ((True, [[0]]), (2.0, cyclic(2))):
        with pytest.raises(ValueError, match=re.escape(
                f"order {order!r} is not an integer")):
            CayleyTable(order, table)
    ct = CayleyTable(np.int64(2), cyclic(2))
    assert type(ct.order) is int and ct.order == 2
    assert serialize_cayley_table(ct).startswith("gyro 2\n")


def test_tables_that_are_not_integers_are_rejected():
    # a cast to int64 would truncate 2.7 and read bools as 0 and 1, and
    # certify a table other than the one passed in
    rounded = cyclic(3).astype(float)
    rounded[1, 1] = 2.7
    for table in (rounded, cyclic(3).astype(float), cyclic(2).astype(bool)):
        for check in (diagnose_gyrogroup, validate_gyrogroup,
                      lambda t: CayleyTable(len(t), t),
                      lambda t: CayleyTable(table=t, order=len(t))):
            with pytest.raises(ValueError, match="are not integers"):
                check(table)
    for dtype in (np.int8, np.uint16, np.int64):
        assert validate_gyrogroup(cyclic(3).astype(dtype)).order == 3


def test_validation_never_stops_at_first_witness():
    table = cyclic(6).copy()
    table[1, 1], table[1, 2] = table[1, 2], table[1, 1]
    diags = diagnose_gyrogroup(table)
    gyro_fails = [d for d in diags if d.check == "left_gyroassociative"]
    assert len(gyro_fails) > 1


# -- subgyrogroups -------------------------------------------------------

def test_trivial_and_full_subgyrogroups(z6):
    assert is_subgyrogroup(z6, {0})
    assert is_subgyrogroup(z6, range(6))
    assert not is_subgyrogroup(z6, {1, 2})     # no identity
    assert not is_subgyrogroup(z6, {0, 1})     # not closed


def test_enumerate_z6_subgroup_orders(z6):
    subs = enumerate_subgyrogroups(z6)
    assert sorted(len(h) for h in subs) == [1, 2, 3, 6]


def brute_force_subgroups(g):
    from itertools import combinations
    found = []
    for r in range(1, g.order + 1):
        for members in combinations(range(g.order), r):
            if is_subgyrogroup(g, members):
                found.append(tuple(members))
    return sorted(found, key=lambda s: (len(s), s))


def test_enumeration_matches_brute_force(z6, s3):
    for g in (z6, s3):
        assert enumerate_subgyrogroups(g) == brute_force_subgroups(g)


def test_enumeration_orders_divide_group_order(groups, t21):
    for g in list(groups.values()) + [t21]:
        for h in enumerate_subgyrogroups(g):
            assert g.order % len(h) == 0


def test_order_one_carrier_has_one_subgyrogroup():
    g = validate_gyrogroup(cyclic(1))
    assert enumerate_subgyrogroups(g) == [(0,)]


def test_enumeration_cap_refuses():
    g = validate_gyrogroup(cyclic(12))
    with pytest.raises(GyroError):
        enumerate_subgyrogroups(g, cap=8)
    assert enumerate_subgyrogroups(g, cap=12)


@pytest.mark.parametrize("cap", ["x", 2.5, True, None])
def test_enumeration_cap_must_be_an_integer(cap):
    # "x" raised a bare TypeError, while 2.5 and True were compared as numbers
    g = validate_gyrogroup(cyclic(2))
    with pytest.raises(ValueError, match=f"^cap {re.escape(repr(cap))} is not an integer$"):
        enumerate_subgyrogroups(g, cap=cap)
    assert enumerate_subgyrogroups(g, cap=np.int64(2)) == [(0,), (0, 1)]


def test_closure_generates_cyclic_subgroup(z6):
    assert subgyrogroup_closure(z6, (2,)) == (0, 2, 4)
    assert subgyrogroup_closure(z6, ()) == (0,)


def test_t21_subgyrogroup_inventory(t21):
    subs = enumerate_subgyrogroups(t21)
    assert sorted(len(h) for h in subs) == [1, 3, 3, 3, 3, 3, 3, 3, 7, 21]
    assert (0, 3, 6, 9, 12, 15, 18) in subs


def test_enumeration_matches_closure_search(fixture_carriers):
    # S4 has members of order 3 and 4, whose inverses the closure under +
    # alone reaches only as sums; the oracle adds inverses explicitly.  T57
    # and T93 have 19 and 31 distinct gyrations, and D32 is at the cap
    carriers = dict(fixture_carriers, T39=validate_gyrogroup(twisted39()),
                    F57=validate_gyrogroup(frobenius(19, 3, 7)),
                    S4=validate_gyrogroup(symmetric(4)),
                    D32=validate_gyrogroup(dihedral(32)))
    for n in (57, 93):
        carriers[f"T{n}"] = validate_gyrogroup(
            square_root_twist(frobenius(*LADDER_GROUPS[n])))
    for name, g in carriers.items():
        subs = enumerate_subgyrogroups(g, cap=g.order)
        assert subs == closure_search_subgyrogroups(g), name
        # plain ints, as the CLI serialises them to JSON
        assert all(type(x) is int for h in subs for x in h), name


@pytest.mark.parametrize("table, count", [
    (square_root_twist(frobenius(43, 3, 6)), 46), (dihedral(32), 69),
    (square_root_twist(frobenius(29, 7, 7)), 32)],
    ids=["twist129", "D32", "twist203"])
def test_enumeration_is_complete(table, count):
    g = validate_gyrogroup(table)
    subs = enumerate_subgyrogroups(g, cap=g.order)
    assert len(set(subs)) == len(subs) == count
    assert subs == sorted(subs, key=lambda s: (len(s), s))
    assert all(is_subgyrogroup(g, h) for h in subs)
    # the list holds {0} and every closure of a member plus one element, so
    # it holds every subgyrogroup: each is the top of such a chain from {0}
    found = set(subs)
    assert (0,) in found
    for h in subs:
        for x in range(g.order):
            if x not in h:
                assert subgyrogroup_closure(g, h + (x,)) in found, (h, x)


def test_proper_subgyrogroups_have_at_most_half_the_order(fixture_carriers):
    # the bound the search's early exit rests on: x + H misses H for x
    # outside H, and the translate has |H| members
    carriers = dict(fixture_carriers, D32=validate_gyrogroup(dihedral(32)))
    for n, (p, q, r) in LADDER_GROUPS.items():
        carriers[f"T{n}"] = validate_gyrogroup(square_root_twist(frobenius(p, q, r)))
    for name, g in carriers.items():
        for h in enumerate_subgyrogroups(g, cap=g.order)[:-1]:
            assert 2 * len(h) <= g.order, (name, h)


@pytest.mark.parametrize("table", [
    square_root_twist(frobenius(31, 3, 5)), square_root_twist(frobenius(29, 7, 7)),
    dihedral(32)], ids=["twist93", "twist203", "D32"])
def test_closure_of_random_seeds_matches_set_loop(table):
    g = validate_gyrogroup(table)
    rng = np.random.default_rng(2024)
    for _ in range(34):
        seed = tuple(rng.choice(g.order, size=rng.integers(1, 4)).tolist())
        assert subgyrogroup_closure(g, seed) == set_closure(g, seed), seed


@pytest.mark.parametrize("seed", [(6,), (-1,), (2, 7)])
def test_closure_rejects_seed_outside_the_carrier(z6, seed):
    bad = next(x for x in seed if not 0 <= x < 6)
    with pytest.raises(ValueError, match=f"member {bad} is outside 0..5"):
        subgyrogroup_closure(z6, seed)


@pytest.mark.parametrize("seed", [(1.5,), ("3",), (True,), (2, 3.0)])
def test_closure_rejects_seed_members_that_are_not_integers(z6, seed):
    bad = next(x for x in seed if type(x) is not int)
    with pytest.raises(ValueError, match=f"member {bad!r} is not an integer"):
        subgyrogroup_closure(z6, seed)


@pytest.mark.parametrize("members", [[0, 3.7], ["0", "3"], [0, 3.0],
                                     [False, 3], [True, 0]])
def test_members_that_are_not_integers_are_no_subgyrogroup(z6, members):
    assert not is_subgyrogroup(z6, members)
    assert not is_l_subgyrogroup(z6, members)
    with pytest.raises(ValueError, match="is not a subgyrogroup"):
        left_cosets(z6, members)
    with pytest.raises(ValueError, match="is not a subgyrogroup"):
        coset_criterion(z6, members)


def test_numpy_integer_members_are_read_as_elements(z6):
    h = np.array([0, 3], dtype=np.int32)
    assert is_subgyrogroup(z6, h) and is_subgyrogroup(z6, list(h))
    assert subgyrogroup_closure(z6, (np.int64(2),)) == (0, 2, 4)
    assert left_cosets(z6, h).subgroup == (0, 3)


def test_closure_of_every_singleton_matches_set_loop(fixture_carriers):
    carriers = dict(fixture_carriers, T39=validate_gyrogroup(twisted39()))
    for name, g in carriers.items():
        for x in range(g.order):
            assert subgyrogroup_closure(g, (x,)) == set_closure(g, (x,)), (name, x)


def test_is_subgyrogroup_matches_loop(fixture_carriers):
    rng = np.random.default_rng(5)
    verdicts = set()
    for name, g in fixture_carriers.items():
        n = g.order
        subsets = [(), (n,), (0, n), (-1, 0), (0, 2 ** 70), tuple(range(1, n))]
        for h in enumerate_subgyrogroups(g):
            subsets += [h, h + (n,), h[1:]]
        for _ in range(20):
            s = tuple(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
            subsets += [s, s + (0,), tuple(x for x in s if x)]
        for s in subsets:
            want = is_subgyrogroup_loop(g, s)
            assert is_subgyrogroup(g, s) == want, (name, s)
            verdicts.add(want)
    assert verdicts == {True, False}


# -- L-subgyrogroups and cosets ------------------------------------------

def test_group_subgroups_are_l_subgyrogroups(z6, s3):
    for g in (z6, s3):
        for h in enumerate_subgyrogroups(g):
            assert is_l_subgyrogroup(g, h)


def test_t21_l_subgyrogroups(t21):
    assert is_l_subgyrogroup(t21, (0,))
    assert is_l_subgyrogroup(t21, tuple(range(0, 21, 3)))
    assert is_l_subgyrogroup(t21, tuple(range(21)))
    # the order-3 subloops are genuinely non-L
    h3 = [h for h in enumerate_subgyrogroups(t21) if len(h) == 3]
    assert h3 and all(not is_l_subgyrogroup(t21, h) for h in h3)
    # members given as a one-shot iterator are read once
    assert not is_l_subgyrogroup(t21, [0, 1, 2])
    assert not is_l_subgyrogroup(t21, iter([0, 1, 2]))
    assert all(not is_l_subgyrogroup(t21, iter(h)) for h in h3)


def test_cosets_of_trivial_and_full(z6):
    singletons = left_cosets(z6, (0,))
    assert singletons.index == 6
    assert all(len(c) == 1 for c in singletons.cosets)
    whole = left_cosets(z6, tuple(range(6)))
    assert whole.index == 1 and whole.is_partition


def test_coset_partition_z6(z6):
    part = left_cosets(z6, (0, 3))
    assert part.cosets == ((0, 3), (1, 4), (2, 5))
    assert part.representatives == (0, 1, 2)
    assert part.index_formula_holds(6)
    assert left_cosets(z6, iter([0, 3])) == part


def test_left_cosets_ignore_repeated_members(z6, t21):
    assert left_cosets(z6, (0, 0, 3)) == left_cosets(z6, (0, 3))
    assert left_cosets(z6, (0, 0, 3)).is_partition
    h = tuple(range(0, 21, 3))
    assert left_cosets(t21, h + h[::-1]) == left_cosets(t21, h)


def test_t21_coset_partition_for_l_subgyrogroup(t21):
    h = tuple(range(0, 21, 3))
    part = left_cosets(t21, h)
    assert part.index == 3 and part.is_partition
    assert all(len(c) == len(part.subgroup) for c in part.cosets)
    assert part.index_formula_holds(21)


def test_non_l_subgyrogroup_cosets_overlap(t21):
    h3 = next(h for h in enumerate_subgyrogroups(t21) if len(h) == 3)
    part = left_cosets(t21, h3)
    assert not part.is_partition
    assert part.overlaps
    i, j, x = part.overlaps[0]
    assert x in part.cosets[i] and x in part.cosets[j]
    assert not part.index_formula_holds(21)


def test_left_cosets_match_loop(fixture_carriers):
    carriers = dict(fixture_carriers, T39=validate_gyrogroup(twisted39()),
                    D8=validate_gyrogroup(dihedral(8)))
    overlapping = 0
    for g in carriers.values():
        for h in enumerate_subgyrogroups(g):
            part = left_cosets(g, h)
            got = (part.cosets, part.representatives, part.overlaps,
                   part.is_partition, part.coset_of)
            assert got == left_cosets_loop(g, h), h
            assert part.index == len(part.cosets)
            assert all(len(c) == len(part.subgroup) for c in part.cosets)
            overlapping += not part.is_partition
    assert overlapping >= 10  # the non-L subgyrogroups of the twists


def test_left_cosets_rejects_non_subgyrogroup(z6):
    with pytest.raises(ValueError):
        left_cosets(z6, (0, 1))


# -- gyration queries against the reference loops ------------------------

def test_gyration_leak_matches_loop(fixture_carriers):
    leaks, non_l = [], 0
    for name, g in fixture_carriers.items():
        subsets = list(enumerate_subgyrogroups(g))
        if name == "T21":
            subsets += T21_NON_INVARIANT
        for s in subsets:
            leak = g.gyration_leak(s)
            assert leak == gyration_leak_loop(g, s), (name, s)
            leaks.append(leak)
            # the L-verdict against the loop over the pairs (a, h), h in H
            want = is_subgyrogroup(g, s) and gyration_leak_loop(g, s, over=s) is None
            assert is_l_subgyrogroup(g, s) == want, (name, s)
            non_l += not want
    # the non-L order-3 subgroups and the non-invariant subsets do leak
    assert sum(leak is not None for leak in leaks) == 7 + len(T21_NON_INVARIANT)
    assert non_l == 7 + len(T21_NON_INVARIANT)


def test_nontrivial_gyration_matches_loop(fixture_carriers):
    for name, g in fixture_carriers.items():
        witness = nontrivial_gyration_loop(g)
        assert g.nontrivial_gyration() == witness, name
        assert g.is_degenerate() == (witness is None), name
        assert (witness is None) == (name != "T21")


def first_true(hits):
    """Index tuple of the first True entry of ``hits`` in row-major order."""
    at = np.argwhere(hits)
    return tuple(map(int, at[0])) if len(at) else None


@pytest.mark.parametrize("n", [57, 93])
def test_gyration_queries_match_dense_oracle(n):
    # the dense (n, n, n) gyrations, read off the group side; the queries
    # answer from each distinct gyration's first pair, and some defect
    # leaks lie past the first pair of the first nontrivial gyration
    group = frobenius(*LADDER_GROUPS[n])
    gyr = twist_gyrations(group)
    t = square_root_twist(group)
    g = validate_gyrogroup(t)
    defects = t[two_sided_inverses(t), gyr]  # [a, b, x]: -x + gyr[a, b]x
    moved = gyr != np.arange(n)
    assert g.nontrivial_gyration() == first_true(moved)
    # unions of orbits of the first nontrivial gyration gyr[a, b], which
    # it leaves invariant; sets holding its defects, which leak only at a
    # later gyration; and a set without 0, whose defects leak at gyr[0, 0]
    a, b, _ = first_true(moved)
    subsets = [(1, 2), *enumerate_subgyrogroups(g, cap=n)]
    orbit = {0}
    for x in (1, 2, n - 1):
        while x not in orbit:
            orbit.add(x)
            x = int(gyr[a, b, x])
        subsets.append(tuple(sorted(orbit)))
        subsets.append(tuple(sorted(orbit | set(defects[a, b].tolist()))))
    later = 0  # defect leaks found past the first pair (a, b)
    for s in subsets:
        h = np.array(s)
        inside = np.isin(np.arange(n), h)
        leak = first_true(~inside[defects])
        assert g.defect_leak(s) == leak, s
        later += leak is not None and leak[:2] > (a, b)
        leak = first_true(~inside[gyr[:, :, h]])
        want = None if leak is None else (leak[0], leak[1], s[leak[2]])
        assert g.gyration_leak(s) == want, s
        leak = first_true(~inside[gyr[:, h][:, :, h]])
        assert is_l_subgyrogroup(g, s) == (is_subgyrogroup(g, s) and leak is None), s
    assert later


# -- the distinct-gyration store ------------------------------------------

def test_validation_leaves_callers_array_writable():
    t = cyclic(4)
    g = validate_gyrogroup(t)
    ct = CayleyTable(order=4, table=t)
    assert ct.table is not t and not ct.table.flags.writeable
    t[0, 0] = 1
    assert g.oplus(0, 0) == 0 and ct.table[0, 0] == 0


def test_gyr_perm_matches_gyrator_identity(t21):
    t = twisted21()
    inv = two_sided_inverses(t)
    for a in range(21):
        for b in range(21):
            expected = [t[inv[t[a, b]], t[a, t[b, c]]] for c in range(21)]
            assert t21.gyr_perm(a, b).tolist() == expected, (a, b)


def test_distinct_gyrations_are_stored_once(groups, t21):
    assert len(t21.gyr_perms) == 7
    for name, g in groups.items():
        assert len(g.gyr_perms) == 1, name


def test_query_caches_are_read_only_and_per_carrier(t21):
    # two carriers of one order keep their own translate defects and first
    # pairs, each computed once and read-only
    z21 = validate_gyrogroup(cyclic(21))
    for g, d in ((z21, 1), (t21, 7)):
        flat = g.gyr_index.ravel()
        assert g._first_pairs.tolist() == [int(np.argmax(flat == k)) for k in range(d)]
        assert np.array_equal(g._defects, g.table[g.inv, g.gyr_perms])
        for cache in (g._defects, g._first_pairs):
            assert not cache.flags.writeable
        assert g._defects is g._defects and g._first_pairs is g._first_pairs
    assert not z21._defects.any() and t21._defects.any()


def test_trusting_constructor_carrier_gives_the_loop_witnesses(t21):
    # as in test_core: the first nontrivial gyration replaced by the
    # identity, so this store is no gyrogroup's and its first hits move on
    identity = np.arange(21)
    perms = t21.gyr_perms.copy()
    perms[1] = identity
    g = finite.FiniteGyrogroup(t21.table, t21.inv, t21.gyr_index, perms)
    assert not np.array_equal(g._defects, t21._defects)
    assert g.nontrivial_gyration() == nontrivial_gyration_loop(g) \
        != t21.nontrivial_gyration()
    for s in (*enumerate_subgyrogroups(t21), *T21_NON_INVARIANT):
        assert g.defect_leak(s) == defect_leak_loop(g, s), s
        assert g.gyration_leak(s) == gyration_leak_loop(g, s), s
        assert is_l_subgyrogroup(g, s) == (
            is_subgyrogroup(g, s) and gyration_leak_loop(g, s, over=s) is None), s


def entry_transpositions(table, axis, count, seed):
    """``count`` seeded copies of ``table`` with two entries of one row
    (axis 1) or of one column (axis 0) exchanged, each keeping unique
    two-sided inverses so that the gyration stages run."""
    rng = np.random.default_rng(seed)
    n = len(table)
    out = []
    while len(out) < count:
        bad = np.array(table)
        line = int(rng.integers(1, n))
        i, j = rng.choice(n, 2, replace=False)
        if axis == 1:
            bad[line, [i, j]] = bad[line, [j, i]]
        else:
            bad[[i, j], line] = bad[[j, i], line]
        if two_sided_inverses(bad) is not None:
            out.append(bad)
    return out


def gyration_part(diags):
    return [(d.check, d.witness, d.detail["message"]) for d in diags
            if d.check in GYRATION_CHECKS]


def test_gyration_diagnostics_match_dense_oracle(monkeypatch):
    seen = set()
    for seed, table in enumerate((twisted21(), twisted39(), dihedral(6))):
        for axis in (0, 1):
            for bad in entry_transpositions(table, axis, 12, [seed, axis]):
                want = gyration_part(dense_gyration_diagnostics(bad))
                assert gyration_part(diagnose_gyrogroup(bad)) == want
                with monkeypatch.context() as m:
                    # one row a per block and one gyration per automorphism
                    # chunk, so that witnesses past the first block count
                    m.setattr(finite, "_BLOCK_CELLS", 1)
                    assert gyration_part(diagnose_gyrogroup(bad)) == want
                seen.update(check for check, _, _ in want)
    # every gyration check fired somewhere, so no stage was compared vacuously
    assert seen == set(GYRATION_CHECKS)


def test_gyrations_match_group_side_oracle():
    for n, (p, q, r) in LADDER_GROUPS.items():
        group = frobenius(p, q, r)
        g = validate_gyrogroup(square_root_twist(group))
        assert np.array_equal(g.gyr_perms[g.gyr_index],
                              twist_gyrations(group)), n


def diagnosis(table):
    """Every diagnostic, with the gyration store it was computed from."""
    diags, _, _, gyr_index, gyr_perms = finite._diagnose(table)
    store = None if gyr_index is None else (gyr_index.tolist(), gyr_perms.tolist())
    return [(d.check, d.witness, d.detail) for d in diags], store


def store_modes(monkeypatch):
    """After each block the gyration store indexes, whether it keys rows
    exactly (by their bytes) rather than by fingerprint."""
    modes = []
    index = finite._RowStore.index

    def recorded(self, rows):
        ids = index(self, rows)
        modes.append(self.exact)
        return ids

    monkeypatch.setattr(finite._RowStore, "index", recorded)
    return modes


def test_fingerprint_collisions_switch_to_exact_keys(monkeypatch):
    tables = [twisted21(), twisted39()]
    for seed, table in enumerate((twisted21(), twisted39(), dihedral(6))):
        for axis in (0, 1):
            tables += entry_transpositions(table, axis, 2, [seed, axis])
    want = [diagnosis(t) for t in tables]
    # equal weights give every permutation the same fingerprint, so the
    # first block with two distinct gyrations collides
    monkeypatch.setattr(finite, "_FINGERPRINT_WEIGHTS",
                        np.ones_like(finite._FINGERPRINT_WEIGHTS))
    modes = store_modes(monkeypatch)
    for block in (finite._BLOCK_CELLS, 1):
        monkeypatch.setattr(finite, "_BLOCK_CELLS", block)
        for table, expected in zip(tables, want):
            modes.clear()
            assert diagnosis(table) == expected
            # the store switched, and for good
            assert modes[-1] and modes == sorted(modes)


def test_valid_tables_keep_fingerprint_keys(monkeypatch):
    # a fingerprint that collided on valid tables would only slow
    # validation, so no other test would notice it
    modes = store_modes(monkeypatch)
    for p, q, r in LADDER_GROUPS.values():
        validate_gyrogroup(square_root_twist(frobenius(p, q, r)))
    for k in (16, 32):
        validate_gyrogroup(dihedral(k))
    assert modes and not any(modes)


def test_gyroassociativity_matches_dense_oracle_at_order_57():
    p, q, r = LADDER_GROUPS[57]
    t57 = square_root_twist(frobenius(p, q, r))
    # rows 1 and 2, the elements (0, 1) and (0, 2), composed with the group
    # automorphism (i, j) -> (-i, j), which fixes both
    i, j = np.arange(57) // q, np.arange(57) % q
    alpha = (-i % p) * q + j
    tables = []
    for rows in ([1], [1, 2]):
        bad = t57.copy()
        bad[rows] = t57[rows][:, alpha]
        tables.append(bad)
    for axis in (0, 1):
        tables += entry_transpositions(t57, axis, 4, [57, axis])
    counts = []
    for bad in tables:
        want = gyration_part(dense_gyration_diagnostics(bad))
        assert gyration_part(diagnose_gyrogroup(bad)) == want
        total = [w[0] for c, w, _ in want if c == "left_gyroassociative_count"]
        counts.append(total[0] if total else
                      sum(c == "left_gyroassociative" for c, _, _ in want))
    # both sides of the witness cap: tables that pass the law, and tables
    # whose exact count beyond MAX_WITNESSES is compared
    assert 0 in counts and min(c for c in counts if c) > finite.MAX_WITNESSES


def test_square_root_twist_refuses_tables_without_square_roots():
    # the roots were checked by assert: a bare AssertionError, and under
    # python -O an all-zero table
    for table in (np.zeros((3, 3), dtype=np.int64), cyclic(3)[:, ::-1]):
        with pytest.raises(ValueError, match="^not a group table: "):
            square_root_twist(table)


def test_square_root_twist_reads_its_argument_as_a_table():
    # a 3x4 array gave a 3x3 twist of its first columns, an entry 5 and a
    # float table bare numpy IndexErrors
    for table, message in ((np.arange(12).reshape(3, 4) % 3, "shape"),
                           (np.array([[0, 1, 2], [1, 2, 0], [2, 0, 5]]), "range"),
                           (cyclic(3).astype(float), "not integers"),
                           (cyclic(4), "needs a group of odd order")):
        with pytest.raises(ValueError, match=message):
            square_root_twist(table)


def test_square_root_twist_matches_a_loop_of_powers():
    for p, q, r in list(LADDER_GROUPS.values())[:3]:
        t = frobenius(p, q, r)
        n = len(t)

        def power(a, k):
            x = 0
            for _ in range(k):
                x = int(t[x, a])
            return x

        sqrt = [power(a, (n + 1) // 2) for a in range(n)]
        oracle = [[t[t[sqrt[a], b], sqrt[a]] for b in range(n)] for a in range(n)]
        assert np.array_equal(square_root_twist(t), oracle), n
