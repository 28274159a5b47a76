"""Derived algebra shared by all carriers: gyration, coaddition, conjugates,
cancellation laws."""

import numpy as np

from gyrokit import (BallGyrogroup, check_cancellation_laws,
                     check_cancellation_laws_exhaustive, coaddition, cominus,
                     conjugate, conjugate_set, gyration, validate_gyrogroup)
from gyrokit.catalog import cyclic

# Frozen from exact rational evaluation of the written formulas (the map is
# rational, so these digits are exact): gyr[(0.3,0),(0,0.4)](0.1,0)
# = (154/1585, -15/634), and (0.5,0) coplus (0,0.5) = (2/5, 2/5).
MOBIUS_GYR_ORACLE = (0.097160883280757, -0.023659305993691)
MOBIUS_COADD_ORACLE = (0.4, 0.4)


def exhaustive(f, n):
    return all(f(a, b, c) for a in range(n) for b in range(n) for c in range(n))


def test_gyration_with_zero_is_identity(s3, t21):
    for g in (s3, t21):
        for b in range(g.order):
            for c in range(g.order):
                assert gyration(g, 0, b, c) == c
                assert gyration(g, b, 0, c) == c


def test_group_carrier_has_identity_gyrations():
    z5 = validate_gyrogroup(cyclic(5))
    assert gyration(z5, 2, 3, 4) == 4
    assert exhaustive(lambda a, b, c: gyration(z5, a, b, c) == c, 5)


def test_mobius_gyration_matches_rational_oracle():
    b = BallGyrogroup(dim=2, variant="mobius")
    got = gyration(b, np.array([0.3, 0.0]), np.array([0.0, 0.4]),
                   np.array([0.1, 0.0]))
    assert np.allclose(got, MOBIUS_GYR_ORACLE, atol=1e-12, rtol=0)
    # nontrivial: it moved c
    assert np.linalg.norm(got - np.array([0.1, 0.0])) > 1e-3


def test_coaddition_degenerate_reduces_to_oplus(s3):
    for a in range(s3.order):
        for b in range(s3.order):
            assert coaddition(s3, a, b) == s3.oplus(a, b)


def test_coaddition_with_identity(s3, t21):
    for g in (s3, t21):
        for a in range(g.order):
            assert coaddition(g, a, 0) == a


def test_mobius_coaddition_matches_rational_oracle():
    b = BallGyrogroup(dim=2, variant="mobius")
    got = coaddition(b, np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    assert np.allclose(got, MOBIUS_COADD_ORACLE, atol=1e-12, rtol=0)


def test_conjugate_of_identity_is_identity(s3, t21):
    for g in (s3, t21):
        for a in range(g.order):
            assert conjugate(g, a, 0) == 0


def test_conjugate_degenerate_is_group_conjugation(s3):
    for a in range(s3.order):
        for b in range(s3.order):
            expected = s3.oplus(s3.oplus(a, b), s3.oinv(a))
            assert conjugate(s3, a, b) == expected


def test_conjugate_zero_iff_zero(s3, t21):
    for g in (s3, t21):
        for a in range(g.order):
            for b in range(g.order):
                assert (conjugate(g, a, b) == 0) == (b == 0)


def test_cominus_self_is_zero(s3, t21):
    for g in (s3, t21):
        for a in range(g.order):
            assert cominus(g, a, a) == 0


def test_conjugate_set_is_bijective_image(t21):
    members = tuple(range(t21.order))
    for a in range(t21.order):
        assert conjugate_set(t21, a, members) == members


def test_gyration_map_is_automorphism(t21):
    def gm(c):
        return gyration(t21, 1, 3, c)

    assert gm(0) == 0
    for u in range(t21.order):
        for v in range(t21.order):
            assert gm(t21.oplus(u, v)) == t21.oplus(gm(u), gm(v))


def test_left_gyroassociative_law_restated(t21):
    g = t21
    assert exhaustive(
        lambda a, b, c: g.oplus(a, g.oplus(b, c))
        == g.oplus(g.oplus(a, b), gyration(g, a, b, c)), g.order)


def test_left_loop_property_pointwise(t21):
    g = t21
    assert exhaustive(
        lambda a, b, c: gyration(g, g.oplus(a, b), b, c)
        == gyration(g, a, b, c), g.order)


def test_cancellation_laws_exhaustive_pass(groups, t21):
    for g in list(groups.values()) + [t21]:
        for law in check_cancellation_laws_exhaustive(g):
            assert law.passed, law


def test_cancellation_laws_sampled_ball():
    rng = np.random.default_rng(11)
    for variant in ("mobius", "einstein"):
        b = BallGyrogroup(dim=2, variant=variant)
        pairs = [(b.sample(rng), b.sample(rng)) for _ in range(50)]
        for law in check_cancellation_laws(b, pairs, tol=1e-9):
            assert law.passed, (variant, law)


def test_cancellation_law_failure_reports_witness():
    # corrupt a Z4 table so row 1 collides; bypass validation on purpose
    z4 = validate_gyrogroup(cyclic(4))
    table = np.array(z4.table)
    table[1, 2] = table[1, 1]
    broken = object.__new__(type(z4))
    broken.__dict__.update(z4.__dict__)
    broken.table = table
    laws = {l.check: l for l in check_cancellation_laws_exhaustive(broken)}
    law1 = laws["general_left_cancellation"]
    assert not law1.passed
    a, b1, b2 = law1.witness
    assert broken.oplus(a, b1) == broken.oplus(a, b2) and b1 != b2


def test_sampled_witness_is_the_wrong_triple_past_the_first_block():
    from gyrokit.ball import SAMPLE_MAX_NORM
    from gyrokit.core import _BLOCK_TRIPLES, sampled_law_residuals

    from conftest import WrongGyrationBall
    samples, k = _BLOCK_TRIPLES + 50, _BLOCK_TRIPLES + 17
    rng = np.random.default_rng(4)
    a, b, c = (BallGyrogroup(dim=3).sample_batch(rng, samples) for _ in range(3))
    carrier = WrongGyrationBall(a[k], dim=3)
    residuals, worst_at = sampled_law_residuals(carrier, samples, 4,
                                                SAMPLE_MAX_NORM)
    for law in ("gyroassociativity", "left_loop", "automorphism",
                "gyration_closed_form"):
        assert residuals[law] > 1e-6, law
        i, wa, wb, wc = worst_at[law]
        assert i == k, law
        assert (wa.tolist(), wb.tolist(), wc.tolist()) == (
            a[k].tolist(), b[k].tolist(), c[k].tolist())
    assert residuals["left_inverse"] <= 1e-9


def test_sampled_witness_of_pair_carrier_is_a_pair():
    from gyrokit import PairElement, PairGyrogroup
    from gyrokit.core import sampled_law_residuals
    carrier = PairGyrogroup(m=6)
    residuals, worst_at = sampled_law_residuals(carrier, 100, 2, 0.99)
    i, x, y, z = worst_at["left_loop"]
    draw = carrier.sample_batch(np.random.default_rng(2), 100, 0.99)
    assert isinstance(x, PairElement) and 0 <= i < 100
    assert x.u.tolist() == draw.u[i].tolist() and int(x.r) == int(draw.r[i])
