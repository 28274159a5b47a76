"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 needs an externally supplied 15-element table (set
GYROKIT_G15_TABLE or drop it at tests/data/g15.gyro) and is skipped, not
failed, without one.
"""

import os
import time
from itertools import permutations

import numpy as np
import pytest

from gyrokit import (BallGyrogroup, are_equivalent_transitive,
                     ball_gyration_matrix, build_coset_action,
                     burnside_count, check_ball_laws,
                     check_cancellation_laws_exhaustive,
                     check_orbit_stabilizer, check_pair_axioms, classify,
                     coset_criterion, diagnose_gyrogroup,
                     enumerate_subgyrogroups, fundamental_isomorphism,
                     gyration, is_equivalence, is_l_subgyrogroup, left_cosets,
                     lorentz_gamma, orbit_decomposition_equation,
                     orbits_and_stabilizers, parse_cayley_table,
                     random_action, validate_action, validate_gyrogroup)
from gyrokit.catalog import twisted21
from gyrokit.pairs import PairGyrogroup

from conftest import (classical_coset_table, conjugation_table, group_tables,
                      regular_action, trivial_action)

SEED = 20160106


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:>2} {name}: {status}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# -- independent witness verification for criterion 1 -----------------------

def _inv_map(t):
    n = len(t)
    inv = {}
    for a in range(n):
        lefts = [b for b in range(n) if t[b][a] == 0]
        if len(lefts) == 1 and t[a][lefts[0]] == 0:
            inv[a] = lefts[0]
    return inv


def _gyr(t, inv, a, b, c):
    d = inv[t[a][b]]
    return t[d][t[a][t[b][c]]]


def witness_confirms(table, diag):
    """Re-check a validator witness on the raw table with plain loops."""
    t = [list(map(int, row)) for row in table]
    n = len(t)
    w = diag.witness
    if diag.check == "identity_row":
        return t[0][w[0]] != w[0]
    if diag.check == "row_permutation":
        if len(w) == 3:
            a, c1, c2 = w
            return c1 != c2 and t[a][c1] == t[a][c2]
        return sorted(t[w[0]]) != list(range(n))
    if diag.check == "left_inverse_exists":
        return not any(t[b][w[0]] == 0 for b in range(n))
    if diag.check == "left_inverse_unique":
        a, b1, b2 = w
        return b1 != b2 and t[b1][a] == 0 and t[b2][a] == 0
    if diag.check == "inverse_two_sided":
        a, b = w
        return t[b][a] == 0 and t[a][b] != 0
    inv = _inv_map(t)
    if len(inv) != n:
        return False
    if diag.check == "gyration_bijective":
        a, b = w[:2]
        perm = [_gyr(t, inv, a, b, c) for c in range(n)]
        return sorted(perm) != list(range(n))
    if diag.check == "gyration_automorphism":
        a, b, u, v = w
        return _gyr(t, inv, a, b, t[u][v]) != \
            t[_gyr(t, inv, a, b, u)][_gyr(t, inv, a, b, v)]
    if diag.check == "left_gyroassociative":
        a, b, c = w
        return t[a][t[b][c]] != t[t[a][b]][_gyr(t, inv, a, b, c)]
    if diag.check == "left_loop":
        a, b, c = w
        return _gyr(t, inv, t[a][b], b, c) != _gyr(t, inv, a, b, c)
    return False


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    tables = group_tables()
    assert len(tables) >= 10
    for name, table in tables.items():
        g = validate_gyrogroup(table)
        assert g.is_degenerate(), name
    rng = np.random.default_rng(SEED)
    names = [n for n, t in tables.items() if len(t) >= 2]
    rejected = 0
    for _ in range(20):
        name = names[int(rng.integers(len(names)))]
        table = tables[name].copy()
        n = len(table)
        a, b = int(rng.integers(n)), int(rng.integers(n))
        old = table[a, b]
        table[a, b] = (old + 1 + int(rng.integers(n - 1))) % n
        diags = diagnose_gyrogroup(table)
        assert diags, f"perturbed {name} not rejected"
        confirmable = [d for d in diags if witness_confirms(table, d)]
        assert confirmable, f"no verifiable witness for perturbed {name}"
        rejected += 1
    elapsed = time.perf_counter() - start
    report(1, "axiom suite", rejected == 20 and elapsed < 1.0,
           f"{len(tables)} fixtures accepted, {rejected}/20 perturbations "
           f"rejected with confirmed witnesses, {elapsed:.3f}s")


def test_criterion_2_cancellation_laws():
    start = time.perf_counter()
    carriers = [validate_gyrogroup(t) for t in group_tables().values()]
    carriers.append(validate_gyrogroup(twisted21()))
    for g in carriers:
        for law in check_cancellation_laws_exhaustive(g):
            assert law.passed, (g, law)
    worst = 0.0
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=2, variant=variant)
        out = check_ball_laws(ball, 1000, seed=SEED)
        for law in ("general_left_cancellation", "left_cancellation",
                    "right_cancellation_1", "right_cancellation_2"):
            assert out[law] <= 1e-9, (variant, law, out[law])
            worst = max(worst, out[law])
    elapsed = time.perf_counter() - start
    report(2, "cancellation laws", elapsed < 5.0,
           f"exhaustive on {len(carriers)} finite fixtures; sampled worst "
           f"residual {worst:.2e} <= 1e-9 on 1000 pairs/variant, "
           f"{elapsed:.3f}s")


def test_criterion_3_ball_formulas():
    u = np.array([0.5, 0.0])
    mob = BallGyrogroup(dim=2, variant="mobius").oplus(u, u)
    ein = BallGyrogroup(dim=2, variant="einstein").oplus(u, u)
    e1 = float(np.max(np.abs(mob - np.array([0.8, 0.0]))))
    e2 = float(np.max(np.abs(ein - np.array([0.8, 0.0]))))
    e3 = abs(lorentz_gamma(np.array([0.8, 0.0])) - 5.0 / 3.0)
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-12
    report(3, "ball formulas", ok,
           f"mobius err {e1:.1e}, einstein err {e2:.1e}, gamma err {e3:.1e} "
           f"(tol 1e-12)")


def test_criterion_4_gyration_structure():
    worst_orth = worst_loop = 0.0
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=2, variant=variant)
        rng = np.random.default_rng(SEED)
        a = ball.sample_batch(rng, 200)
        b = ball.sample_batch(rng, 200)
        c = ball.sample_batch(rng, 200)
        ab = ball.oplus(a, b)
        loop = np.linalg.norm(gyration(ball, ab, b, c)
                              - gyration(ball, a, b, c), axis=1)
        worst_loop = max(worst_loop, float(np.max(loop)))
        for i in range(200):
            m = ball_gyration_matrix(ball, a[i], b[i], samples=4,
                                     seed=SEED + i)
            worst_orth = max(worst_orth, m.orthogonality_residual)
    ok = worst_orth <= 1e-8 and worst_loop <= 1e-9
    report(4, "gyration structure", ok,
           f"200 pairs/variant: worst |M^T M - I| {worst_orth:.2e} <= 1e-8, "
           f"worst loop residual {worst_loop:.2e} <= 1e-9")


def _action_inventory():
    """Finite fixture actions reused by criteria 5, 6 and 9."""
    carriers = {name: validate_gyrogroup(t) for name, t in
                group_tables().items()}
    t21 = validate_gyrogroup(twisted21())
    gsets = []
    for name in ("Z4", "Z6", "S3", "D4"):
        g = carriers[name]
        gsets.append(trivial_action(g, 3))
        gsets.append(regular_action(g))
        gsets.append(validate_action(g, conjugation_table(g)))
        for h in enumerate_subgyrogroups(g):
            gsets.append(build_coset_action(g, h))
    z6 = carriers["Z6"]
    gsets.append(validate_action(
        z6, np.array([[(a + x) % 3 for x in range(3)] for a in range(6)])))
    gsets.append(trivial_action(t21, 2))
    gsets.append(build_coset_action(t21, tuple(range(0, 21, 3))))
    gsets.append(build_coset_action(t21, tuple(range(21))))
    return carriers, t21, gsets


def _random_inventory(carriers, t21, count_per_carrier=17):
    out = []
    for g in [carriers["Z6"], carriers["S3"], t21]:
        subs = [h for h in enumerate_subgyrogroups(g)
                if coset_criterion(g, h).passed]
        for seed in range(count_per_carrier):
            out.append(random_action(g, seed=SEED + seed, subgroups=subs))
    return out


def test_criterion_5_orbit_stabilizer():
    carriers, t21, gsets = _action_inventory()
    randomized = _random_inventory(carriers, t21)
    assert len(randomized) >= 50
    checked_points = 0
    for gset in gsets + randomized:
        rep = check_orbit_stabilizer(gset)
        assert rep.passed, rep
        checked_points += gset.points
    report(5, "orbit-stabilizer theorem", True,
           f"exact on {checked_points} points across {len(gsets)} fixture "
           f"actions + {len(randomized)} randomized actions")


def test_criterion_6_burnside():
    carriers, t21, gsets = _action_inventory()
    for gset in gsets:
        dec = orbits_and_stabilizers(gset)
        count = burnside_count(gset, dec)
        assert count.denominator == 1 and count == len(dec.orbits)
    s3 = carriers["S3"]
    conj = validate_action(s3, conjugation_table(s3))
    count = burnside_count(conj)
    ode = orbit_decomposition_equation(conj)
    ok = count == 3 and ode.detail["equation"] == "6 = 1 + 2 + 3"
    report(6, "Burnside lemma", ok,
           f"exact rational = orbit count on {len(gsets)} fixtures; "
           f"conjugation count {count}, class equation "
           f"{ode.detail['equation']}")


def test_criterion_7_coset_actions_degenerate():
    checked = 0
    for name, table in group_tables().items():
        g = validate_gyrogroup(table)
        for h in enumerate_subgyrogroups(g):
            crit = coset_criterion(g, h)
            assert crit.passed, (name, h)
            gset = build_coset_action(g, h)
            oracle, _ = classical_coset_table(g, h)
            assert np.array_equal(gset.table, oracle), (name, h)
            flags = classify(gset)
            assert flags.transitive
            if len(h) > 1:
                assert not flags.semiregular, (name, h)
            assert g.order == gset.points * len(h), (name, h)
            checked += 1
    report(7, "degenerate coset actions", True,
           f"{checked} subgroup coset actions match the classical tables; "
           f"criterion, flags and index formula all hold")


def test_criterion_8_pair_carrier():
    start = time.perf_counter()
    carrier = PairGyrogroup(m=6, variant="mobius")
    out = check_pair_axioms(carrier, 10000, seed=SEED)
    for law in ("gyroassociativity", "left_loop", "left_identity",
                "left_inverse", "right_inverse", "gyration_closed_form",
                "general_left_cancellation", "left_cancellation",
                "right_cancellation_1", "right_cancellation_2"):
        assert out[law] <= 1e-9, (law, out[law])
    assert out["closure"]
    assert carrier.verify_hat_criterion(10000, seed=SEED)["status"] == "pass"
    rng = np.random.default_rng(SEED)
    batch = carrier.sample_batch(rng, 10000)
    cosets_seen = sorted(set(int(r) for r in batch.r))
    assert cosets_seen == list(range(6))
    reached = sorted(set(int(v) for v in
                         np.asarray(carrier.hat_coset_action(batch, 0))))
    assert reached == list(range(6))
    stabilizing = np.asarray(carrier.hat_coset_action(batch, 0)) == 0
    assert np.all(carrier.in_hat(batch)[stabilizing.nonzero()])
    elapsed = time.perf_counter() - start
    worst = max(out[k] for k in ("gyroassociativity", "left_loop"))
    report(8, "pair carrier", elapsed < 10.0,
           f"10^4 triples, worst core residual {worst:.2e} <= 1e-9; "
           f"6 cosets observed, transitive, stab(coset 0) inside the "
           f"translation part, {elapsed:.3f}s")


def _brute_equivalent(x, y):
    """Independent exhaustive bijection search, plain loops."""
    if x.points != y.points:
        return False
    k = x.points
    n = x.carrier.order
    for perm in permutations(range(k)):
        if all(perm[x.table[a, p]] == y.table[a, perm[p]]
               for a in range(n) for p in range(k)):
            return True
    return False


def test_criterion_9_equivalence():
    carriers, t21, gsets = _action_inventory()
    transitive = [g for g in gsets
                  if len(orbits_and_stabilizers(g).orbits) == 1
                  and g.points <= 6]
    compared = 0
    for x in transitive:
        for y in transitive:
            if not x.carrier.same_carrier(y.carrier):
                continue
            decided, phi = are_equivalent_transitive(x, y)
            assert decided == _brute_equivalent(x, y)
            if decided:
                assert is_equivalence(phi)
            compared += 1
    verified = 0
    for gset in gsets:
        for z in range(gset.points):
            assert is_equivalence(fundamental_isomorphism(gset, z))
            verified += 1
    report(9, "equivalence decisions", True,
           f"{compared} transitive pairs agree with bijection search; "
           f"{verified} fundamental isomorphisms verified")


G15_PERMUTATION = {1: 7, 7: 5, 5: 10, 10: 6, 6: 1,
                   2: 3, 3: 8, 8: 11, 11: 14, 14: 2}
G15_SUBGROUP = (0, 4, 9, 12, 13)
G15_COSETS = ((0, 4, 9, 12, 13), (1, 5, 6, 7, 10), (2, 3, 8, 11, 14))


def _g15_path():
    env = os.environ.get("GYROKIT_G15_TABLE")
    if env:
        return env
    local = os.path.join(os.path.dirname(__file__), "data", "g15.gyro")
    return local if os.path.exists(local) else None


def _skip_10(reason):
    print(f"\nACCEPTANCE 10 order-15 fixture: SKIP  ({reason})")
    pytest.skip(reason)


def test_criterion_10_g15_conditional():
    """Runs only against a user-supplied order-15 table that validates and
    whose gyration set matches the expected five-element cyclic group; any
    other input means the fixture does not apply and the suite is skipped."""
    path = _g15_path()
    if path is None or not os.path.exists(path):
        _skip_10("no user-supplied table; set GYROKIT_G15_TABLE or add "
                 "tests/data/g15.gyro")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        g = validate_gyrogroup(parse_cayley_table(text))
    except Exception as exc:
        _skip_10(f"supplied table is not a valid gyrogroup: {exc}")
    if g.order != 15:
        _skip_10(f"supplied table has order {g.order}, expected 15")
    a_perm = tuple(G15_PERMUTATION.get(c, c) for c in range(15))
    powers = {tuple(range(15))}
    current = a_perm
    for _ in range(4):
        powers.add(current)
        current = tuple(a_perm[c] for c in current)
    observed = {tuple(int(v) for v in g.gyr_perm(a, b))
                for a in range(15) for b in range(15)}
    if observed != powers:
        _skip_10("gyration set does not match the expected cyclic group")
    assert is_l_subgyrogroup(g, G15_SUBGROUP)
    part = left_cosets(g, G15_SUBGROUP)
    assert part.cosets == G15_COSETS
    assert part.index_formula_holds(15)
    gset = build_coset_action(g, G15_SUBGROUP)
    flags = classify(gset)
    ok = gset.points == 3 and flags.transitive
    report(10, "order-15 fixture", ok,
           "cosets and transitive 3-point action reproduced")
