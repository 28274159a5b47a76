"""Coset-action criterion and the left-gyroaddition construction."""

import numpy as np
import pytest

from gyrokit import (CriterionError, PairGyrogroup, ValidationError,
                     build_coset_action, build_representation, classify,
                     coset_criterion, coset_criterion_sampled,
                     enumerate_subgyrogroups, induced_action_over_subgyrogroup,
                     left_cosets, orbits_and_stabilizers, self_action_possible,
                     self_action_possible_sampled, self_action_witness,
                     validate_action)

from conftest import (classical_coset_table, defect_leak_loop,
                      gyration_leak_loop, trivial_action)


def test_self_action_possible_for_groups(groups):
    for name, g in groups.items():
        assert self_action_possible(g), name
        assert self_action_witness(g) is None
        # a.x = a + x really validates as an action
        validate_action(g, np.array(g.table))


def test_self_action_impossible_nondegenerate(t21):
    assert not self_action_possible(t21)
    a, b, c = self_action_witness(t21)
    assert t21.gyration(a, b, c) != c


def test_criterion_passes_for_every_group_subgroup(groups):
    for g in groups.values():
        for h in enumerate_subgyrogroups(g):
            assert coset_criterion(g, h).passed


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


def _gyrator_verdicts(carrier, in_subgroup, sample_subgroup, samples, seed):
    """The two sampled verdicts computed through the gyrator identity
    ``core.gyration``, on the draws the sampled functions make."""
    from gyrokit import core
    tol = carrier.eps
    rng = np.random.default_rng(seed)
    a, b, c = (carrier.sample_batch(rng, samples) for _ in range(3))
    moved = np.max(carrier.distance(core.gyration(carrier, a, b, c), c))
    rng = np.random.default_rng(seed)
    a, b, x = (carrier.sample_batch(rng, samples) for _ in range(3))
    h = sample_subgroup(rng, samples)
    img = core.gyration(carrier, a, b, h)
    defect = carrier.oplus(carrier.oinv(x), core.gyration(carrier, a, b, x))
    ok = [bool(np.all(in_subgroup(y)) and np.all(carrier.contains(y)))
          for y in (img, defect)]
    return bool(moved <= tol), ok


def _sampled_subgroups():
    """(carrier, in_subgroup, sample_subgroup) for the ball and pair
    carriers: the whole ball, {0}, and the translation part B_hat."""
    from gyrokit import BallGyrogroup, PairGyrogroup
    out = []
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=3, variant=variant)
        out.append((ball, ball.contains, ball.sample_batch))
        out.append((ball, lambda y, b=ball: np.linalg.norm(y, axis=-1) <= b.eps,
                    lambda rng, n, d=ball.dim: np.zeros((n, d))))
        pairs = PairGyrogroup(m=6, variant=variant)
        out.append((pairs, pairs.in_hat, pairs.sample_hat))
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
    for seed, ((carrier, inside, sample), (possible, (ok1, ok2))) in enumerate(cases):
        got, witness = self_action_possible_sampled(carrier, 3000, seed)
        assert got == possible and not got and witness is not None
        report = coset_criterion_sampled(carrier, inside, sample, 3000, seed)
        assert (report.condition_gyr_preserves_subgroup,
                report.condition_translate_defect_in_subgroup) == (ok1, ok2)
        assert report.passed == (ok1 and ok2)


@pytest.mark.parametrize("check", [
    lambda p, seed: coset_criterion_sampled(p, p.in_hat, p.sample_hat, 0, seed),
    lambda p, seed: p.verify_hat_criterion(0, seed),
    lambda p, seed: self_action_possible_sampled(p, 0, seed)],
    ids=["coset_criterion_sampled", "verify_hat_criterion",
         "self_action_possible_sampled"])
def test_sampled_checks_reject_zero_samples(check):
    # a verdict on no sample would check nothing
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check(PairGyrogroup(m=6), 1)
