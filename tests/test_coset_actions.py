"""Coset-action criterion and the left-gyroaddition construction."""

import numpy as np
import pytest

from gyrokit import (CriterionError, GyroError, PairGyrogroup,
                     ValidationError, build_coset_action, build_representation,
                     check_pair_axioms, classify,
                     coset_criterion, coset_criterion_sampled,
                     enumerate_subgyrogroups, gyration,
                     induced_action_over_subgyrogroup, left_cosets,
                     orbits_and_stabilizers, random_action,
                     self_action_possible_sampled, subgyrogroup_closure,
                     validate_action, validate_gyrogroup)
from gyrokit.actions import diagnose_action
from gyrokit.catalog import (dihedral, frobenius, quaternion,
                             square_root_twist, symmetric)
from gyrokit.finite import _defect_closure, _lattice, _quotient

from conftest import (LADDER_GROUPS, SubsetCarrier, classical_coset_table,
                      defect_leak_loop, gyration_leak_loop, trivial_action)


def test_self_action_possible_for_groups(groups):
    for name, g in groups.items():
        assert g.is_degenerate(), name
        assert g.nontrivial_gyration() is None
        # a.x = a + x really validates as an action
        validate_action(g, np.array(g.table))


def test_self_action_impossible_nondegenerate(t21):
    assert not t21.is_degenerate()
    a, b, c = t21.nontrivial_gyration()
    assert t21.gyration(a, b, c) != c
    assert diagnose_action(t21, t21.table) != []


def test_left_addition_acts_exactly_on_degenerate_carriers(fixture_carriers):
    # a.x = a + x satisfies the action law iff every gyration is the identity
    for name, g in fixture_carriers.items():
        assert (diagnose_action(g, g.table) == []) == g.is_degenerate(), name


def test_criterion_passes_for_every_group_subgroup(groups):
    for g in groups.values():
        for h in enumerate_subgyrogroups(g):
            assert coset_criterion(g, h).passed
            assert coset_criterion(g, iter(h)).passed


def test_criterion_t21(t21):
    assert coset_criterion(t21, tuple(range(0, 21, 3))).passed
    assert coset_criterion(t21, tuple(range(21))).passed
    rep = coset_criterion(t21, (0,))
    assert not rep.passed
    # gyrations fix {0}, so only the translate-defect condition can fail
    assert rep.condition_gyr_preserves_subgroup
    assert not rep.condition_translate_defect_in_subgroup
    a, b, x = rep.witness2
    assert t21.oplus(t21.oinv(x), t21.gyration(a, b, x)) != 0


def test_criterion_witness_for_non_l_subgyrogroup(t21):
    h3 = next(h for h in enumerate_subgyrogroups(t21) if len(h) == 3)
    rep = coset_criterion(t21, h3)
    assert not rep.passed and not rep.condition_gyr_preserves_subgroup
    a, b, x = rep.witness1
    assert x in h3 and t21.gyration(a, b, x) not in h3


def test_criterion_witnesses_match_loops(fixture_carriers):
    for name, g in fixture_carriers.items():
        for h in enumerate_subgyrogroups(g):
            rep = coset_criterion(g, h)
            assert rep.witness1 == gyration_leak_loop(g, h), (name, h)
            assert rep.witness2 == defect_leak_loop(g, h), (name, h)
            assert rep.passed == (rep.witness1 is None and rep.witness2 is None)


def test_translate_defects_decide_kernels_criterion_and_quotient(
        fixture_carriers):
    """The translate defects D = {-x + gyr[a, b]x}, read off the gyrator
    identity: every action's kernel, and so every point stabilizer,
    contains D, the coset criterion holds for H exactly when D lies in H,
    and G/N, for N the closure of D, is a group."""
    carriers = dict(fixture_carriers, T57=validate_gyrogroup(
        square_root_twist(frobenius(19, 3, 7))))
    for name, g in carriers.items():
        n = np.arange(g.order)
        a, b, x = n[:, None, None], n[None, :, None], n[None, None, :]
        defects = np.unique(g.oplus(g.oinv(x), gyration(g, a, b, x)))
        passing = []
        for h in enumerate_subgyrogroups(g):
            holds = bool(np.isin(defects, h).all())
            assert coset_criterion(g, h).passed == holds, (name, h)
            if holds:
                passing.append(h)
        for seed in range(5):
            gset = random_action(g, seed, subgroups=passing)
            assert np.isin(defects, build_representation(gset).kernel).all(), \
                (name, seed)
            for stab in gset.decomposition.stabilizers:
                assert np.isin(defects, stab).all(), (name, seed)
        closure = subgyrogroup_closure(g, defects.tolist())
        assert _defect_closure(g) == closure, name
        part = left_cosets(g, closure)
        coset_of, reps = np.array(part.coset_of), np.array(part.representatives)
        quotient = coset_of[g.table[np.ix_(reps, reps)]]
        # (x + N) + (y + N) = (x + y) + N does not depend on x and y
        assert np.array_equal(coset_of[g.table],
                              quotient[np.ix_(coset_of, coset_of)]), name
        assert validate_gyrogroup(quotient).is_degenerate(), name


@pytest.fixture(scope="module")
def criterion_lattices():
    """Carriers with the criterion-passing part of their full lattices."""
    tables = {f"T{n}": square_root_twist(frobenius(*pqr))
              for n, pqr in LADDER_GROUPS.items() if n <= 93}
    tables.update(S3=symmetric(3), S4=symmetric(4), D16=dihedral(8),
                  D32=dihedral(16), Q8=quaternion())
    out = {}
    for name, t in tables.items():
        g = validate_gyrogroup(t)
        out[name] = g, [h for h in enumerate_subgyrogroups(g, cap=g.order)
                        if coset_criterion(g, h).passed]
    return out


def test_lattice_above_the_defect_closure_is_the_passing_lattice(
        criterion_lattices):
    # the subgroups of G/N, pulled back through a -> a + N, in lattice order
    for name, (g, passing) in criterion_lattices.items():
        q, coset_of, _ = _quotient(g, _defect_closure(g))
        pulled = [tuple(np.flatnonzero(np.isin(coset_of, s)).tolist())
                  for s in _lattice(q)]
        assert pulled == passing, name


def test_random_action_draws_from_the_lattice_above_the_defect_closure(
        criterion_lattices):
    for name, (g, passing) in criterion_lattices.items():
        for seed in range(10):
            found = random_action(g, seed)
            given = random_action(g, seed, subgroups=passing)
            assert np.array_equal(found.table, given.table), (name, seed)
            assert found.point_labels == given.point_labels, (name, seed)


def test_quotient_by_the_defect_closure_is_a_group_and_refuses_the_rest(
        s3, t21):
    tables = {f"T{n}": square_root_twist(frobenius(*pqr))
              for n, pqr in LADDER_GROUPS.items()}
    tables.update(T203=square_root_twist(frobenius(29, 7, 7)), S4=symmetric(4),
                  D16=dihedral(8), D32=dihedral(16), Q8=quaternion())
    for name, t in tables.items():
        g = validate_gyrogroup(t)
        n = _defect_closure(g)
        q, coset_of, reps = _quotient(g, n)
        assert q.order == g.order // len(n) and q.is_degenerate(), name
        assert np.array_equal(coset_of[reps], np.arange(q.order)), name
        # every action factors through G/N: a acts as its representative
        for seed in range(3):
            acts = random_action(g, seed).table
            assert np.array_equal(acts, acts[reps[coset_of]]), (name, seed)
    # {0, 1} is a subgroup of S3 that is not normal: its cosets partition
    # S3, but their sum depends on the representatives
    with pytest.raises(GyroError, match="depends on the choice"):
        _quotient(s3, (0, 1))
    # a subgyrogroup of order 3 of T21 is not an L-subgyrogroup: its cosets
    # overlap
    h3 = next(h for h in enumerate_subgyrogroups(t21) if len(h) == 3)
    with pytest.raises(GyroError, match="do not partition"):
        _quotient(t21, h3)


@pytest.mark.parametrize("p, q, r", [(31, 3, 5), (43, 3, 6), (29, 7, 7)],
                         ids=["T93", "T129", "T203"])
def test_random_action_beyond_order_64_needs_no_subgroups(p, q, r):
    # the cap bounds [G:N] = q, not the order pq
    g = validate_gyrogroup(square_root_twist(frobenius(p, q, r)))
    n = list(_defect_closure(g))
    assert len(n) == p
    gset = random_action(g, seed=1)
    # every point stabilizer contains N: each member of N fixes every point
    assert (gset.table[n] == np.arange(gset.points)).all()


def test_criterion_rejects_non_subgyrogroup(z6):
    with pytest.raises(ValueError):
        coset_criterion(z6, (0, 1))


def test_build_matches_classical_coset_action(groups):
    for g in groups.values():
        for h in enumerate_subgyrogroups(g):
            gset = build_coset_action(g, h)
            oracle, cosets = classical_coset_table(g, h)
            assert np.array_equal(gset.table, oracle)
            assert gset.points == len(cosets)


def test_build_full_subgroup_gives_one_point(z6):
    gset = build_coset_action(z6, tuple(range(6)))
    assert gset.points == 1
    assert classify(gset).transitive


def test_build_ignores_repeated_members(z6):
    assert coset_criterion(z6, (0, 0, 3)).passed
    gset = build_coset_action(z6, (0, 0, 3))
    assert np.array_equal(gset.table, build_coset_action(z6, (0, 3)).table)


def test_build_z6_mod_h2(z6):
    gset = build_coset_action(z6, (0, 3))
    assert gset.points == 3
    assert np.array_equal(build_coset_action(z6, iter([0, 3])).table,
                          gset.table)
    dec = orbits_and_stabilizers(gset)
    assert all(s == (0, 3) for s in dec.stabilizers)
    flags = classify(gset)
    assert flags.transitive and not flags.semiregular


def test_build_t21_h7(t21):
    h = tuple(range(0, 21, 3))
    gset = build_coset_action(t21, h)
    assert gset.points == 3
    assert 21 == gset.points * len(h)
    flags = classify(gset)
    assert flags.transitive and not flags.semiregular
    dec = orbits_and_stabilizers(gset)
    assert all(len(s) == 7 for s in dec.stabilizers)


def test_build_refuses_without_criterion(t21):
    with pytest.raises(CriterionError):
        build_coset_action(t21, (0,))
    h3 = next(h for h in enumerate_subgyrogroups(t21) if len(h) == 3)
    with pytest.raises(CriterionError) as exc:
        build_coset_action(t21, h3)
    assert "overlap" in str(exc.value)


def test_build_with_a_given_criterion_report(t21):
    # a report of H's own gives the same G-set as the criterion computed
    # inside; a passing report of another H does not get a failing H past
    # the exhaustive checks, which refuse it
    whole = coset_criterion(t21, range(21))
    refused = []
    for h in enumerate_subgyrogroups(t21):
        own = coset_criterion(t21, h)
        if own.passed:
            gset = build_coset_action(t21, h, criterion=own)
            plain = build_coset_action(t21, h)
            assert np.array_equal(gset.table, plain.table), h
            assert gset.point_labels == plain.point_labels, h
            continue
        with pytest.raises(GyroError) as exc:
            build_coset_action(t21, h, criterion=whole)
        refused.append((len(h), exc.type, str(exc.value)))
    assert len(refused) == 8
    assert refused[0][:2] == (1, ValidationError)  # the action law, on {0}
    assert all(n == 3 and "do not partition" in msg
               for n, _, msg in refused[1:])


def test_converse_direction_small_fixtures(groups, t21):
    """If the coset table validates as an action, the criterion passes."""
    carriers = list(groups.values()) + [t21]
    for g in carriers:
        for h in enumerate_subgyrogroups(g):
            part = left_cosets(g, h)
            if not part.is_partition:
                continue
            coset_of = np.array(part.coset_of)
            reps = np.array(part.representatives)
            table = coset_of[np.array(g.table)[:, reps]]
            try:
                validate_action(g, table)
            except ValidationError:
                continue
            # also demand representative independence before concluding
            if not np.array_equal(coset_of[np.array(g.table)],
                                  table[:, coset_of]):
                continue
            assert coset_criterion(g, h).passed, (g, h)


def test_induced_action_from_stabilizers(s3_conjugation):
    dec = orbits_and_stabilizers(s3_conjugation)
    for x in range(6):
        gset = induced_action_over_subgyrogroup(
            s3_conjugation, dec.stabilizers[x])
        assert classify(gset).transitive


def test_induced_action_from_kernel(z6_mod3, s3):
    kernel = build_representation(z6_mod3).kernel
    gset = induced_action_over_subgyrogroup(z6_mod3, kernel)
    assert classify(gset).transitive
    assert gset.points == 3
    one_point = induced_action_over_subgyrogroup(
        trivial_action(s3, 2), tuple(range(6)))
    assert one_point.points == 1


@pytest.mark.parametrize("members", [(0, 3.7), (0, "3")])
def test_induced_action_rejects_members_that_are_not_integers(z6_mod3, members):
    with pytest.raises(ValueError, match=f"member {members[1]!r} is not an integer"):
        induced_action_over_subgyrogroup(z6_mod3, members)


def test_induced_action_requires_kernel_containment(z6_mod3):
    with pytest.raises(CriterionError) as exc:
        induced_action_over_subgyrogroup(z6_mod3, (0, 2, 4))
    assert "kernel" in str(exc.value)


def test_induced_action_checks_gyration_invariance(t21):
    gset = trivial_action(t21, 2)
    # kernel is all of G, so only a gyr-invariant H containing G qualifies;
    # a proper subgroup is rejected by the kernel hypothesis first
    h3 = next(h for h in enumerate_subgyrogroups(t21) if len(h) == 3)
    with pytest.raises(CriterionError):
        induced_action_over_subgyrogroup(gset, h3)


def test_induced_action_gyration_hypothesis_witness(t21):
    # build an action whose kernel is inside a non-invariant subgroup:
    # the faithful coset action of H7 has kernel... compute and use h3 only
    # when it contains that kernel; otherwise the kernel check fires first,
    # which is itself the named hypothesis
    h3 = next(h for h in enumerate_subgyrogroups(t21) if len(h) == 3)
    gset = build_coset_action(t21, tuple(range(0, 21, 3)))
    kernel = build_representation(gset).kernel
    with pytest.raises(CriterionError) as exc:
        induced_action_over_subgyrogroup(gset, h3)
    assert "hypothesis failed" in str(exc.value)


def _gyrator_verdicts(carrier, subgroup, samples, seed):
    """The two sampled verdicts computed through the gyrator identity
    ``core.gyration``, on the draws the sampled functions make."""
    from gyrokit import core
    tol = carrier.eps
    rng = np.random.default_rng(seed)
    a, b, c = (carrier.sample_batch(rng, samples) for _ in range(3))
    moved = np.max(carrier.distance(core.gyration(carrier, a, b, c), c))
    rng = np.random.default_rng(seed)
    a, b, x = (carrier.sample_batch(rng, samples) for _ in range(3))
    h = subgroup.sample_batch(rng, samples)
    img = core.gyration(carrier, a, b, h)
    defect = carrier.oplus(carrier.oinv(x), core.gyration(carrier, a, b, x))
    ok = [bool(np.all(subgroup.contains(y))) for y in (img, defect)]
    return bool(moved <= tol), ok


def _ball_zero(ball):
    """{0} of ``ball`` as a subgroup carrier."""
    return SubsetCarrier(ball, lambda y: np.linalg.norm(y, axis=-1) <= ball.eps,
                         zero_only=True)


def _sampled_subgroups():
    """(carrier, subgroup) for the ball and pair carriers: the whole ball,
    {0}, and the translation part B_hat."""
    from gyrokit import BallGyrogroup, PairGyrogroup
    out = []
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=3, variant=variant)
        out.append((ball, ball))
        out.append((ball, _ball_zero(ball)))
        pairs = PairGyrogroup(m=6, variant=variant)
        out.append((pairs, pairs.hat))
    return out


def test_sampled_criteria_use_the_carrier_gyration(monkeypatch):
    from gyrokit import core
    from gyrokit.coset_actions import (coset_criterion_sampled,
                                       self_action_possible_sampled)
    cases = [(case, _gyrator_verdicts(*case, 3000, seed))
             for seed, case in enumerate(_sampled_subgroups())]

    def refuse(*args):
        raise AssertionError("core.gyration called")

    monkeypatch.setattr(core, "gyration", refuse)
    for seed, ((carrier, subgroup), (possible, (ok1, ok2))) in enumerate(cases):
        got, witness = self_action_possible_sampled(carrier, 3000, seed)
        assert got == possible and not got and witness is not None
        report = coset_criterion_sampled(carrier, subgroup, 3000, seed)
        assert (report.condition_gyr_preserves_subgroup,
                report.condition_translate_defect_in_subgroup) == (ok1, ok2)
        assert report.passed == (ok1 and ok2)


def _whole_draw_coset_checks(carrier, subgroup, samples, seed):
    """The two sampled coset checks, on the carrier's own gyrations, with
    every draw held whole: (possible, witness) of the self-action check and
    the criterion's two conditions."""
    rng = np.random.default_rng(seed)
    a, b, c = (carrier.sample_batch(rng, samples) for _ in range(3))
    h = subgroup.sample_batch(rng, samples)
    moved = np.asarray(carrier.distance(carrier.gyration(a, b, c), c))
    i = int(np.argmax(moved))
    possible = bool(moved[i] <= carrier.eps)
    witness = None if possible else (a[i], b[i], c[i])
    img = carrier.gyration(a, b, h)
    defect = carrier.oplus(carrier.oinv(c), carrier.gyration(a, b, c))
    ok = [bool(np.all(subgroup.contains(y))) for y in (img, defect)]
    return possible, witness, ok


def _block_drawn_cases():
    """name -> (carrier, subgroup, whether the criterion holds)."""
    from gyrokit import BallGyrogroup
    from gyrokit.catalog import twisted21
    out = {}
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=3, variant=variant)
        out[f"{variant}-ball"] = (ball, ball, True)
        out[f"{variant}-zero"] = (ball, _ball_zero(ball), False)
    pairs = PairGyrogroup(m=6)
    out["pairs-hat"] = (pairs, pairs.hat, True)
    # B² × {0, 2, 4}: the gyrations keep every index, so condition 2 holds,
    # but an odd index is drawn into h, so condition 1 fails
    out["pairs-even"] = (pairs, SubsetCarrier(
        pairs, lambda x: np.asarray(x.r) % 2 == 0), False)
    t21 = validate_gyrogroup(twisted21())
    out["twisted21"] = (t21, t21, True)
    out["twisted21-zero"] = (t21, SubsetCarrier(
        t21, lambda x: np.asarray(x) == 0, zero_only=True), False)
    return out


def _witness_bits(witness):
    if witness is None:
        return None
    return [(np.asarray(getattr(p, "u", p)).tobytes(),
             np.asarray(getattr(p, "r", 0)).tolist()) for p in witness]


@pytest.mark.parametrize("name", sorted(_block_drawn_cases()))
def test_sampled_coset_checks_equal_their_whole_draw_reference(monkeypatch,
                                                               name):
    from gyrokit import core
    carrier, subgroup, holds = _block_drawn_cases()[name]
    for seed, samples in ((0, 1), (1, 300), (2, 700)):
        possible, witness, (ok1, ok2) = _whole_draw_coset_checks(
            carrier, subgroup, samples, seed)
        if samples > 1:
            assert (ok1 and ok2) == holds and not possible
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_cpus", lambda: cpus)
            for block in (7, 50, 2 ** 15):
                monkeypatch.setattr(core, "_BLOCK_TRIPLES", block)
                got, got_witness = self_action_possible_sampled(
                    carrier, samples, seed)
                assert got == possible
                assert _witness_bits(got_witness) == _witness_bits(witness)
                report = coset_criterion_sampled(carrier, subgroup, samples,
                                                 seed)
                assert (report.condition_gyr_preserves_subgroup,
                        report.condition_translate_defect_in_subgroup,
                        report.passed) == (ok1, ok2, ok1 and ok2)
                assert (report.samples, report.seed) == (samples, seed)


@pytest.mark.parametrize("check", [
    lambda p, seed: coset_criterion_sampled(p, p.hat, 0, seed),
    lambda p, seed: p.verify_hat_criterion(0, seed),
    lambda p, seed: self_action_possible_sampled(p, 0, seed)],
    ids=["coset_criterion_sampled", "verify_hat_criterion",
         "self_action_possible_sampled"])
def test_sampled_checks_reject_zero_samples(check):
    # a verdict on no sample would check nothing
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check(PairGyrogroup(m=6), 1)


@pytest.mark.parametrize("samples", [2.5, True])
def test_sampled_checks_read_samples_as_integers(samples):
    # unchecked, 2.5 raised a numpy TypeError and True, where the criterion
    # drew its subgroup sample, "an integer is required"
    p = PairGyrogroup(m=6)
    message = f"^samples {samples!r} is not an integer$"
    for check in (
            lambda: coset_criterion_sampled(p, p.hat, samples, 1),
            lambda: self_action_possible_sampled(p, samples, 1),
            lambda: check_pair_axioms(p, samples, 1)):
        with pytest.raises(ValueError, match=message):
            check()
    report = coset_criterion_sampled(p, p.hat, np.int64(4), 1)
    assert type(report.samples) is int and report.samples == 4
