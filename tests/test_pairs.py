"""Pair carrier (ball vector, rotation index) and its coset machinery."""

import numpy as np
import pytest

from gyrokit import (PairElement, PairGyrogroup, check_pair_axioms, classify,
                     gyration, rotation_quotient_gset)
from gyrokit.coset_actions import (coset_criterion_sampled,
                                   self_action_possible_sampled)


@pytest.fixture(scope="module")
def carrier():
    return PairGyrogroup(m=6, variant="mobius")


def test_identity_element(carrier):
    x = carrier.element([0.3, -0.2], 4)
    assert carrier.equals(carrier.oplus(carrier.zero, x), x)
    assert carrier.equals(carrier.oplus(x, carrier.zero), x)


def test_pair_oplus_combines_componentwise(carrier):
    x = carrier.element([0.5, 0.0], 1)
    y = carrier.element([0.5, 0.0], 2)
    s = carrier.oplus(x, y)
    assert np.allclose(s.u, [0.8, 0.0], atol=1e-12, rtol=0)
    assert s.r == 3


def test_rotation_indices_wrap(carrier):
    x = carrier.element([0.1, 0.0], 5)
    y = carrier.element([0.0, 0.1], 4)
    assert carrier.oplus(x, y).r == 3


def test_inverse_is_componentwise(carrier):
    x = carrier.element([0.4, 0.2], 5)
    inv = carrier.oinv(x)
    assert inv.r == 1
    assert carrier.equals(carrier.oplus(inv, x), carrier.zero)
    assert carrier.equals(carrier.oplus(x, inv), carrier.zero)


def test_pair_gyration_keeps_rotation_slot(carrier):
    x = carrier.element([0.3, 0.1], 2)
    y = carrier.element([-0.2, 0.4], 5)
    z = carrier.element([0.0, 0.0], 3)
    g = carrier.gyration(x, y, z)
    assert np.allclose(g.u, 0.0, atol=1e-12)
    assert g.r == 3


def test_pair_gyration_collinear_ball_parts(carrier):
    x = carrier.element([0.3, 0.0], 1)
    y = carrier.element([0.6, 0.0], 2)
    z = carrier.element([0.2, 0.5], 4)
    g = carrier.gyration(x, y, z)
    assert carrier.equals(g, z)


def test_closed_form_matches_gyrator_identity(carrier):
    rng = np.random.default_rng(9)
    x = carrier.sample_batch(rng, 2000)
    y = carrier.sample_batch(rng, 2000)
    z = carrier.sample_batch(rng, 2000)
    direct = carrier.gyration(x, y, z)
    generic = gyration(carrier, x, y, z)
    assert np.all(np.asarray(direct.r) == np.asarray(generic.r))
    assert float(np.max(carrier.distance(direct, generic))) <= 1e-9


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
def test_axiom_suite(variant):
    carrier = PairGyrogroup(m=6, variant=variant)
    out = check_pair_axioms(carrier, 10000, seed=42)
    assert out["closure"]
    for law in ("gyroassociativity", "left_loop", "left_identity",
                "left_inverse", "right_inverse", "gyration_fixes_zero",
                "gyration_closed_form"):
        assert out[law] <= 1e-9, (law, out[law])
    assert out["automorphism"] <= 1e-8


def test_closed_form_cross_check_compares_two_computations(carrier):
    # identically 0.0 when the pair gyration was the gyrator itself
    out = check_pair_axioms(carrier, 2000, seed=1)
    assert 0.0 < out["gyration_closed_form"] <= 1e-9


def test_not_degenerate(carrier):
    possible, witness = self_action_possible_sampled(carrier, 2000, seed=3)
    assert not possible
    assert witness is not None


# -- hat coset machinery ---------------------------------------------------

def test_hat_coset_index_is_rotation_component(carrier):
    assert carrier.hat_coset_index(carrier.element([0.7, 0.1], 0)) == 0
    x = carrier.element([0.2, -0.5], 4)
    assert carrier.hat_coset_index(x) == 4
    w = carrier.element([0.3, 0.3], 0)
    assert carrier.hat_coset_index(carrier.oplus(x, w)) == 4


def test_all_m_cosets_occur(carrier):
    rng = np.random.default_rng(1)
    batch = carrier.sample_batch(rng, 512)
    assert sorted(set(int(r) for r in batch.r)) == list(range(6))


def test_fresh_carrier_acts_on_hat_cosets():
    # the criterion is a verdict, not state a carrier must hold first
    fresh = PairGyrogroup(m=6, variant="mobius")
    g = fresh.element([0.1, 0.0], 1)
    assert fresh.hat_coset_action(g, 0) == 1


def test_hat_action_is_transitive_rotation(carrier):
    assert carrier.verify_hat_criterion(2000, seed=5)["status"] == "pass"
    g = carrier.element([0.25, 0.1], 1)
    orbit = {int(carrier.hat_coset_action(g, k)) for k in range(6)}
    assert orbit == set(range(6))
    walk = 0
    seen = []
    for _ in range(6):
        walk = int(carrier.hat_coset_action(g, walk))
        seen.append(walk)
    assert sorted(seen) == list(range(6))


def test_identity_rotation_fixes_every_coset(carrier):
    assert carrier.verify_hat_criterion(1000, seed=6)["status"] == "pass"
    g = carrier.element([0.4, -0.2], 0)
    assert all(carrier.hat_coset_action(g, k) == k for k in range(6))


def test_stabilizer_of_each_coset_is_hat(carrier):
    assert carrier.verify_hat_criterion(1000, seed=7)["status"] == "pass"
    rng = np.random.default_rng(8)
    batch = carrier.sample_batch(rng, 2000)
    acted = carrier.hat_coset_action(batch, np.asarray(batch.r) * 0)
    stabilizing = np.asarray(acted) == 0
    assert np.array_equal(stabilizing, carrier.in_hat(batch))
    # not semiregular: a nonidentity stabilizing element for every coset
    w = carrier.element([0.5, 0.0], 0)
    for k in range(6):
        assert carrier.hat_coset_action(w, k) == k
    assert not carrier.equals(w, carrier.zero)


def test_conjugate_of_hat_by_rotation_stays_hat(carrier):
    from gyrokit import conjugate
    rng = np.random.default_rng(12)
    for k in range(6):
        rot = carrier.element([0.0, 0.0], k)
        for _ in range(50):
            h = PairElement(carrier.ball.sample(rng), 0)
            c = conjugate(carrier, rot, h)
            assert int(np.asarray(c.r)) == 0


def test_sampled_criterion_for_hat(carrier):
    report = coset_criterion_sampled(
        carrier, carrier.in_hat, carrier.sample_hat, samples=5000, seed=21)
    assert report.passed
    assert report.mode == "sampled"
    assert report.samples == 5000 and report.seed == 21


def test_rotation_quotient_is_regular(carrier):
    flags = classify(rotation_quotient_gset(carrier))
    assert flags.transitive and flags.sharply_transitive and flags.free
