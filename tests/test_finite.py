"""Cayley-table ingestion, exhaustive validation, subgyrogroups, cosets."""

import numpy as np
import pytest

from gyrokit import finite
from gyrokit import (CayleyTable, GyroError, TableFormatError,
                     ValidationError, diagnose_gyrogroup,
                     enumerate_subgyrogroups, is_l_subgyrogroup,
                     is_subgyrogroup, left_cosets, parse_cayley_table,
                     serialize_cayley_table, subgyrogroup_closure,
                     validate_gyrogroup)
from gyrokit.catalog import (cyclic, dihedral, frobenius, frobenius21,
                             square_root_twist, symmetric, twisted21)

from conftest import (GYRATION_CHECKS, T21_NON_INVARIANT,
                      closure_search_subgyrogroups,
                      dense_gyration_diagnostics, group_tables,
                      gyration_leak_loop, is_subgyrogroup_loop,
                      left_cosets_loop, nontrivial_gyration_loop, set_closure,
                      twisted39, two_sided_inverses)


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
                  lambda t: CayleyTable(0, t)):
        with pytest.raises(ValueError, match="order must be >= 1"):
            check(empty)


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


def test_closure_generates_cyclic_subgroup(z6):
    assert subgyrogroup_closure(z6, (2,)) == (0, 2, 4)
    assert subgyrogroup_closure(z6, ()) == (0,)


def test_t21_subgyrogroup_inventory(t21):
    subs = enumerate_subgyrogroups(t21)
    assert sorted(len(h) for h in subs) == [1, 3, 3, 3, 3, 3, 3, 3, 7, 21]
    assert (0, 3, 6, 9, 12, 15, 18) in subs


def test_enumeration_matches_closure_search(fixture_carriers):
    carriers = dict(fixture_carriers, T39=validate_gyrogroup(twisted39()),
                    F57=validate_gyrogroup(frobenius(19, 3, 7)))
    for name, g in carriers.items():
        subs = enumerate_subgyrogroups(g)
        assert subs == closure_search_subgyrogroups(g), name
        # plain ints, as the CLI serialises them to JSON
        assert all(type(x) is int for h in subs for x in h), name


@pytest.mark.parametrize("table, count", [
    (square_root_twist(frobenius(43, 3, 6)), 46), (dihedral(32), 69)],
    ids=["twist129", "D32"])
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


@pytest.mark.parametrize("seed", [(6,), (-1,), (2, 7)])
def test_closure_rejects_seed_outside_the_carrier(z6, seed):
    bad = next(x for x in seed if not 0 <= x < 6)
    with pytest.raises(ValueError, match=f"member {bad} is outside 0..5"):
        subgyrogroup_closure(z6, seed)


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


def test_left_cosets_ignore_repeated_members(z6, t21):
    assert left_cosets(z6, (0, 0, 3)) == left_cosets(z6, (0, 3))
    assert left_cosets(z6, (0, 0, 3)).is_partition
    h = tuple(range(0, 21, 3))
    assert left_cosets(t21, h + h[::-1]) == left_cosets(t21, h)


def test_t21_coset_partition_for_l_subgyrogroup(t21):
    h = tuple(range(0, 21, 3))
    part = left_cosets(t21, h)
    assert part.index == 3 and part.is_partition and part.equal_sizes
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
            assert part.index == len(part.cosets) and part.equal_sizes
            overlapping += not part.is_partition
    assert overlapping >= 10  # the non-L subgyrogroups of the twists


def test_left_cosets_rejects_non_subgyrogroup(z6):
    with pytest.raises(ValueError):
        left_cosets(z6, (0, 1))


# -- gyration queries against the reference loops ------------------------

def test_gyration_leak_matches_loop(fixture_carriers):
    leaks = []
    for name, g in fixture_carriers.items():
        subsets = list(enumerate_subgyrogroups(g))
        if name == "T21":
            subsets += T21_NON_INVARIANT
        for s in subsets:
            for over in (None, s):
                leak = g.gyration_leak(s, over=over)
                assert leak == gyration_leak_loop(g, s, over=over), (name, s, over)
                leaks.append(leak)
    # the non-L order-3 subgroups and the non-invariant subsets do leak
    assert sum(leak is not None for leak in leaks) == 2 * (7 + len(T21_NON_INVARIANT))


def test_nontrivial_gyration_matches_loop(fixture_carriers):
    for name, g in fixture_carriers.items():
        witness = nontrivial_gyration_loop(g)
        assert g.nontrivial_gyration() == witness, name
        assert g.is_degenerate() == (witness is None), name
        assert (witness is None) == (name != "T21")


# -- the distinct-gyration store ------------------------------------------

def test_validation_leaves_callers_array_writable():
    t = cyclic(4)
    g = validate_gyrogroup(t)
    t[0, 0] = 1
    assert g.oplus(0, 0) == 0


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
