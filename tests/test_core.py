"""Derived algebra shared by all carriers: gyration, coaddition, conjugates,
cancellation laws."""

import argparse
import ast
import inspect
import re
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from gyrokit import (BallGyrogroup, NumericalError, ValidationError,
                     check_axiom_residuals, check_cancellation_laws,
                     check_cancellation_laws_exhaustive, coaddition, cominus,
                     conjugate, conjugate_set, core, diagnose_gyrogroup,
                     gyration, validate_gyrogroup)
from gyrokit.catalog import (cyclic, dihedral, frobenius, square_root_twist,
                             symmetric, twisted21)

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


@pytest.mark.parametrize("member, reason", [(2.7, "is not an integer"),
                                            (-1, "is outside 0..5")])
def test_conjugate_set_rejects_non_elements(s3, member, reason):
    # read unchecked, 2.7 was truncated to 2 and -1 wrapped round to 5
    with pytest.raises(ValueError, match=f"member {member} {reason}"):
        conjugate_set(s3, 1, (member,))


@pytest.mark.parametrize("a, reason", [(True, "is not an integer"),
                                       (-1, "is outside 0..5"),
                                       (2.7, "is not an integer"),
                                       (6, "is outside 0..5")])
def test_conjugate_set_rejects_non_element_conjugators(s3, a, reason):
    # read unchecked, True indexed the table as a mask and gave a nested
    # tuple, -1 wrapped round to 5, and 2.7 and 6 raised a bare IndexError
    with pytest.raises(ValueError, match=f"element {a} {reason}"):
        conjugate_set(s3, a, (1,))


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
        pairs = [(b.sample_batch(rng, 1)[0], b.sample_batch(rng, 1)[0])
                 for _ in range(50)]
        xs, ys = (np.array(batch) for batch in zip(*pairs))
        for law in check_cancellation_laws(b, xs, ys):
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


def test_cancellation_laws_reject_empty_batches(t21):
    for carrier, empty in ((BallGyrogroup(dim=2), np.empty((0, 2))),
                           (t21, np.empty(0, dtype=np.int64))):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            check_cancellation_laws(carrier, empty, empty)


def test_axiom_residuals_reject_empty_batches(t21):
    from gyrokit import PairGyrogroup
    pairs = PairGyrogroup(m=6)
    for carrier, empty in ((BallGyrogroup(dim=2), np.empty((0, 2))),
                           (t21, np.empty(0, dtype=np.int64)),
                           (pairs, pairs.sample_batch(np.random.default_rng(1), 0))):
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            check_axiom_residuals(carrier, empty, empty, empty)


def _first_repeat_loop(row):
    seen = {}
    for c, v in enumerate(row):
        if v in seen:
            return seen[v], c
        seen[v] = c
    return None


def test_collision_witnesses_are_each_rows_first_repeat(t21):
    # both the row_permutation diagnostics and cancellation law (i) report,
    # per row, the first column whose entry occurs earlier in the row
    rng = np.random.default_rng(3)
    good = t21
    for _ in range(20):
        table = np.array(good.table)
        for a in rng.choice(np.arange(1, 21), size=rng.integers(1, 12),
                            replace=False):
            cols = rng.choice(21, size=rng.integers(1, 4), replace=False)
            table[a, cols] = rng.integers(21, size=len(cols))
        want = [(a, *hit) for a, row in enumerate(table.tolist())
                if (hit := _first_repeat_loop(row)) is not None]
        got = [d.witness for d in diagnose_gyrogroup(table)
               if d.check == "row_permutation"]
        assert got == want[:8]
        broken = object.__new__(type(good))
        broken.__dict__.update(good.__dict__)
        broken.table = table
        law1 = check_cancellation_laws_exhaustive(broken)[0]
        assert law1.check == "general_left_cancellation"
        assert law1.witness == (want[0] if want else None)


def test_sampled_witness_is_the_wrong_triple_past_the_first_block():
    from gyrokit.core import _BLOCK_TRIPLES, sampled_law_residuals

    from conftest import WrongGyrationBall
    samples, k = _BLOCK_TRIPLES + 50, _BLOCK_TRIPLES + 17
    rng = np.random.default_rng(4)
    a, b, c = (BallGyrogroup(dim=3).sample_batch(rng, samples) for _ in range(3))
    carrier = WrongGyrationBall(a[k], dim=3)
    residuals, worst_at = sampled_law_residuals(carrier, samples, 4)
    for law in ("gyroassociativity", "left_loop", "automorphism",
                "gyration_closed_form"):
        assert residuals[law] > 1e-6, law
        i, wa, wb, wc = worst_at[law]
        assert i == k, law
        assert (wa.tolist(), wb.tolist(), wc.tolist()) == (
            a[k].tolist(), b[k].tolist(), c[k].tolist())
    assert residuals["left_inverse"] <= 1e-9


FINITE_TABLES = {"Z6": lambda: cyclic(6), "S3": lambda: symmetric(3),
                 "D16": lambda: dihedral(8), "twisted21": twisted21,
                 "T57": lambda: square_root_twist(frobenius(19, 3, 7))}


@pytest.mark.parametrize("name", sorted(FINITE_TABLES))
def test_sampled_checks_hold_exactly_on_finite_carriers(monkeypatch, name):
    from gyrokit.core import sampled_law_residuals
    from gyrokit.coset_actions import self_action_possible_sampled
    g = validate_gyrogroup(FINITE_TABLES[name]())
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 256)  # several blocks
    residuals, worst_at = sampled_law_residuals(g, 1000, 3)
    assert residuals.pop("closure") is True and worst_at["closure"] is None
    assert (residuals.pop("samples"), residuals.pop("seed")) == (1000, 3)
    assert len(residuals) == 12
    assert all(v == 0.0 for v in residuals.values()), residuals
    possible, witness = self_action_possible_sampled(g, 1000, 3)
    assert possible == g.is_degenerate()
    assert (witness is None) == possible


def test_sampled_suite_finds_a_finite_carriers_wrong_gyration(t21):
    from gyrokit import FiniteGyrogroup
    from gyrokit.core import sampled_law_residuals
    identity = np.arange(t21.order)
    k = next(k for k, p in enumerate(t21.gyr_perms) if (p != identity).any())
    perms = t21.gyr_perms.copy()
    perms[k] = identity
    # the trusting constructor: this store is no gyrogroup's
    g = FiniteGyrogroup(t21.table, t21.inv, t21.gyr_index, perms)
    residuals, worst_at = sampled_law_residuals(g, 2000, 5)
    assert residuals["gyration_closed_form"] == 1.0
    _, a, b, c = worst_at["gyration_closed_form"]
    assert g.gyration(a, b, c) != gyration(g, a, b, c)


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
def test_sampled_suites_read_their_seed_as_an_integer(seed):
    from gyrokit.core import sampled_law_residuals
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not"):
        sampled_law_residuals(BallGyrogroup(dim=2), 10, seed)


def _sampled_entry_points():
    from gyrokit import PairGyrogroup, check_ball_laws, check_pair_axioms
    from gyrokit.coset_actions import self_action_possible_sampled
    from gyrokit.core import sampled_law_residuals
    ball, pairs = BallGyrogroup(dim=2), PairGyrogroup(m=6)
    return {
        "sampled_law_residuals": lambda seed: sampled_law_residuals(ball, 10, seed),
        "check_ball_laws": lambda seed: check_ball_laws(ball, 10, seed),
        "check_pair_axioms": lambda seed: check_pair_axioms(pairs, 10, seed),
        "verify_hat_criterion": lambda seed: pairs.verify_hat_criterion(10, seed),
        "self_action_possible_sampled":
            lambda seed: self_action_possible_sampled(ball, 10, seed)}


@pytest.mark.parametrize("entry", sorted(_sampled_entry_points()))
def test_sampled_suites_refuse_a_negative_seed(entry):
    # numpy's own refusal, "expected non-negative integer", named no seed
    with pytest.raises(ValueError, match="^seed -1 is negative$"):
        _sampled_entry_points()[entry](-1)
    with pytest.raises(ValueError, match="^seed -3 is negative$"):
        _sampled_entry_points()[entry](np.int64(-3))
    _sampled_entry_points()[entry](0)


def _draw_plan_carriers():
    from gyrokit import PairGyrogroup
    out = {f"{variant}{dim}": BallGyrogroup(dim=dim, variant=variant)
           for variant in ("mobius", "einstein") for dim in (1, 2, 3, 5, 9)}
    out.update({f"pairs-{variant}": PairGyrogroup(m=6, variant=variant)
                for variant in ("mobius", "einstein")})
    out.update(Z6=validate_gyrogroup(cyclic(6)),
               twisted21=validate_gyrogroup(twisted21()))
    return out


def _bits(x):
    """The bytes of a draw's values: a ball batch's, or a pair batch's
    coordinates and rotation indices."""
    if hasattr(x, "u"):
        return _bits(x.u) + _bits(x.r)
    return np.ascontiguousarray(x).tobytes() + repr(x.shape).encode()


def _same_state(x, y):
    """Whether two bit generator states are equal, arrays entry by entry."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_state(x[k], y[k]) for k in x)
    return np.array_equal(x, y)


# the bit generators of NumPy; a PCG64 case keeps the carrier's name alone
_BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64")


# (triples per block, points per draw chunk, triples): counts on both sides
# of a draw chunk, blocks shorter and longer than a chunk, and the chunk of
# the program with a count just past it
@pytest.mark.parametrize("block, chunk, samples", [
    (7, 64, 63), (7, 64, 130), (1000, 64, 2500), (7, None, 100),
    (1000, None, 2 ** 16 + 1)])
@pytest.mark.parametrize("name, bit_generator", [
    pytest.param(name, kind, id=name if kind == "PCG64" else f"{name}-{kind}")
    for name in sorted(_draw_plan_carriers()) for kind in _BIT_GENERATORS])
def test_draw_plan_redraws_slices_of_three_sample_batch_draws(
        monkeypatch, name, bit_generator, block, chunk, samples):
    from gyrokit import ball as ball_module
    from gyrokit.core import _block_bounds
    carrier = _draw_plan_carriers()[name]
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", block)
    if chunk is not None:
        monkeypatch.setattr(ball_module, "_DRAW_CHUNK", chunk)
    bounds = _block_bounds(samples)
    kind = getattr(np.random, bit_generator)
    drawn, planned = (np.random.Generator(kind(21)) for _ in range(2))
    draws = [carrier.sample_batch(drawn, samples) for _ in range(3)]
    plans = [carrier.draw_plan(planned, samples, bounds) for _ in range(3)]
    # the generator ends where the three draws leave it, any spare 32-bit
    # half word included
    assert _same_state(planned.bit_generator.state, drawn.bit_generator.state)
    assert planned.integers(0, 7, size=5).tolist() == \
        drawn.integers(0, 7, size=5).tolist()
    assert planned.random() == drawn.random()
    assert planned.standard_normal(3).tolist() == \
        drawn.standard_normal(3).tolist()
    # the blocks taken last to first; block k drawn twice, the second call
    # leaving the first one's block as it was
    for k in reversed(range(len(bounds) - 1)):
        s = slice(bounds[k], bounds[k + 1])
        for draw, plan in zip(draws, plans):
            first = plan(k)
            assert _bits(first) == _bits(draw[s]), k
            assert _bits(plan(k)) == _bits(first), k
            assert _bits(first) == _bits(draw[s]), k


def test_hat_draws_the_ball_at_index_zero():
    # B_hat = PairGyrogroup(1, variant) is the criterion's subgroup draw: the
    # ball's points with every index 0, Z_1 drawing nothing
    from gyrokit import PairGyrogroup
    samples, bounds = 1000, [0, 7, 300, 301, 1000]
    for variant in ("mobius", "einstein"):
        hat = PairGyrogroup(1, variant)
        ball = BallGyrogroup(dim=2, variant=variant)
        for bit_generator in _BIT_GENERATORS:
            kind = getattr(np.random, bit_generator)
            alone, drawn, planned = (np.random.Generator(kind(5))
                                     for _ in range(3))
            u = ball.sample_batch(alone, samples)
            zero = np.zeros(samples, np.int64)
            plan = hat.draw_plan(planned, samples, bounds)
            assert _bits(hat.sample_batch(drawn, samples)) == \
                _bits(u) + _bits(zero), bit_generator
            for gen in (drawn, planned):
                assert _same_state(gen.bit_generator.state,
                                   alone.bit_generator.state), bit_generator
            for k in range(len(bounds) - 1):
                s = slice(bounds[k], bounds[k + 1])
                assert _bits(plan(k)) == _bits(u[s]) + _bits(zero[s]), \
                    (variant, bit_generator, k)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS)
def test_walked_generators_are_seeded_by_no_entropy(bit_generator):
    # each redraw generator is seeded by SeedSequence(0) before its state is
    # set, never from the operating system's entropy (``_seed_seq`` before
    # numpy 1.25)
    kind = getattr(np.random, bit_generator)
    at = core._walk(np.random.Generator(kind(3)), [0, 4, 9],
                    lambda gen, n: gen.random(n))
    for k in range(2):
        bits = at(k).bit_generator
        seq = getattr(bits, "seed_seq", None) or bits._seed_seq
        assert (seq.entropy, seq.spawn_key) == (0, ())


def _sampled_checks():
    """name -> ((carrier, bytes per point), ...), check(carrier, samples,
    seed), and the points per triple that the check holds by design."""
    from gyrokit import PairGyrogroup
    from gyrokit.coset_actions import self_action_possible_sampled
    from gyrokit.core import sampled_law_residuals
    ball, pairs = (BallGyrogroup(dim=2), 16), (PairGyrogroup(m=6), 24)
    return {
        "sampled_law_residuals": ((ball, pairs), sampled_law_residuals, 0),
        "self_action_possible_sampled":
            ((ball, pairs), self_action_possible_sampled, 0),
        "verify_hat_criterion":
            ((pairs,), lambda p, samples, seed: p.verify_hat_criterion(
                samples, seed), 0)}


@pytest.mark.parametrize("name", sorted(_sampled_checks()))
def test_sampled_suite_memory_does_not_grow_with_the_sample_count(monkeypatch,
                                                                 name):
    carriers, check, held = _sampled_checks()[name]
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 2 ** 12)
    # one thread, so that the peak does not hang on how two threads' blocks
    # overlap in time
    monkeypatch.setattr(core, "_cpus", lambda: 1)
    for carrier, point in carriers:
        # a first call, so that one-time allocations are not counted
        check(carrier, 2 ** 14, 1)
        peaks = []
        for samples in (2 ** 14, 2 ** 16):
            tracemalloc.start()
            try:
                check(carrier, samples, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # holding the draws of a, b and c would add three points per added
        # triple
        added = 3 * point * (2 ** 16 - 2 ** 14)
        allowed = held * point * (2 ** 16 - 2 ** 14) + added / 8
        assert peaks[1] - peaks[0] < allowed, (carrier, peaks)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sampled_witnesses_own_their_points(monkeypatch, cpus):
    from gyrokit import PairGyrogroup
    from gyrokit.coset_actions import self_action_possible_sampled
    from gyrokit.core import sampled_law_residuals
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 50)
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    for carrier in (BallGyrogroup(dim=3), PairGyrogroup(m=6)):
        rng = np.random.default_rng(7)
        draws = [carrier.sample_batch(rng, 1000) for _ in range(3)]
        _, worst_at = sampled_law_residuals(carrier, 1000, 7)
        # the self-action witness is the triple whose gyration moves c most
        moved = carrier.distance(carrier.gyration(*draws), draws[2])
        possible, points = self_action_possible_sampled(carrier, 1000, 7)
        assert not possible
        worst_at["self_action"] = (int(np.argmax(moved)), *points)
        for law, witness in worst_at.items():
            if witness is None:
                continue
            i, *points = witness
            for point, draw in zip(points, draws):
                u = getattr(point, "u", point)
                assert u.flags.owndata, law
                assert _bits(point) == _bits(draw[i]), law


def test_block_plan_gives_two_threads_equal_shares(monkeypatch):
    from gyrokit.core import _BLOCK_TRIPLES, _block_bounds
    for cpus in (1, 2):
        monkeypatch.setattr(core, "_cpus", lambda: cpus)
        for samples in (1, 2, 20_000, _BLOCK_TRIPLES, _BLOCK_TRIPLES + 1,
                        50_000, 100_003, 3 * _BLOCK_TRIPLES, 10 ** 6):
            bounds = _block_bounds(samples)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == samples
            assert sizes.max() - sizes.min() <= 1
            assert sizes.max() <= _BLOCK_TRIPLES
            fewest = -(-samples // _BLOCK_TRIPLES)
            even = fewest + fewest % 2 if cpus == 2 and fewest > 1 else fewest
            assert len(sizes) == even, (cpus, samples)
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    assert _block_bounds(20_000) == [0, 20_000] and _block_bounds(1) == [0, 1]
    assert _block_bounds(50_000) == [0, 25_000, 50_000]
    assert np.diff(_block_bounds(10 ** 6)).tolist() == [31_250] * 32


@pytest.mark.parametrize("samples, block", [(100_003, None), (1000, 7)])
def test_sampled_suite_is_the_same_on_one_thread_and_two(monkeypatch,
                                                         samples, block):
    from gyrokit import PairGyrogroup
    from gyrokit.cli import _plain
    from gyrokit.core import sampled_law_residuals
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_TRIPLES", block)
    for carrier in (BallGyrogroup(dim=3), PairGyrogroup(m=6, variant="einstein")):
        found = []
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_cpus", lambda: cpus)
            residuals, worst_at = sampled_law_residuals(carrier, samples, 5)
            found.append((residuals, {
                law: None if x is None else [x[0]] + [_plain(y) for y in x[1:]]
                for law, x in worst_at.items()}))
        assert found[0] == found[1]


def test_sampled_witness_of_pair_carrier_is_a_pair():
    from gyrokit import PairElement, PairGyrogroup
    from gyrokit.core import sampled_law_residuals
    carrier = PairGyrogroup(m=6)
    residuals, worst_at = sampled_law_residuals(carrier, 100, 2)
    i, x, y, z = worst_at["left_loop"]
    draw = carrier.sample_batch(np.random.default_rng(2), 100)
    assert isinstance(x, PairElement) and 0 <= i < 100
    assert x.u.tolist() == draw.u[i].tolist() and int(x.r) == int(draw.r[i])


def _hits(x, points):
    """Where the batch ``x`` holds one of ``points``."""
    x = np.asarray(x)[..., None, :]
    return np.any(np.all(x == np.asarray(points), axis=-1), axis=-1)


class RefusingBall(BallGyrogroup):
    """A ball whose ``contains`` refuses the points ``outside`` and notes
    the threads that call it."""

    def __init__(self, outside, **kwargs):
        super().__init__(**kwargs)
        self.outside = outside
        self.threads = set()

    def contains(self, u):
        self.threads.add(threading.get_ident())
        return super().contains(u) & ~_hits(u, self.outside)


class FailingBall(BallGyrogroup):
    """A ball whose ``oplus`` raises NumericalError naming triple i when its
    first argument holds the point ``bad[i]``."""

    def __init__(self, bad, **kwargs):
        super().__init__(**kwargs)
        self.bad = bad

    def oplus(self, u, v):
        for i, point in self.bad.items():
            if np.any(_hits(u, [point])):
                raise NumericalError(f"triple {i}")
        return super().oplus(u, v)


class InterruptedBall(BallGyrogroup):
    """A ball whose ``oplus`` and ``gyration`` raise KeyboardInterrupt when
    their first argument holds the point ``stop``, and note whether they
    were ever given the point ``last``.  A thread other than the one that
    made it waits in them until ``released`` is set (for 60 s at most, so
    that a worker never released cannot outlive the test run)."""

    def __init__(self, stop, last, **kwargs):
        super().__init__(**kwargs)
        self.stop, self.last = stop, last
        self.reached_last = False
        self.maker = threading.get_ident()
        self.released = threading.Event()

    def _enter(self, u):
        if threading.get_ident() != self.maker:
            self.released.wait(60)
        if np.any(_hits(u, [self.stop])):
            raise KeyboardInterrupt
        self.reached_last |= bool(np.any(_hits(u, [self.last])))

    def oplus(self, u, v):
        self._enter(u)
        return super().oplus(u, v)

    def gyration(self, a, b, c):
        self._enter(a)
        return super().gyration(a, b, c)


class DividingBall(BallGyrogroup):
    """A ball whose gyr[a, b] divides by zero when a is the point ``bad``."""

    def __init__(self, bad, **kwargs):
        super().__init__(**kwargs)
        self.bad = bad

    def gyration(self, a, b, c):
        scale = np.where(_hits(a, [self.bad]), 0.0, 1.0)[..., None]
        return super().gyration(a, b, c) / scale


def _draw(samples, seed, dim=2):
    rng = np.random.default_rng(seed)
    return [BallGyrogroup(dim=dim).sample_batch(rng, samples) for _ in range(3)]


def test_sampled_closure_witness_is_the_first_triple_outside(monkeypatch):
    from gyrokit import cli, core
    from gyrokit.core import sampled_law_residuals
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 1000)
    samples = 3000
    a, b, c = _draw(samples, 6)
    # block 1 is the worker thread's, block 2 the calling thread's
    k, later = 1005, 2001
    ball = BallGyrogroup(dim=2)
    carrier = RefusingBall(ball.oplus(a[[later, k]], b[[later, k]]), dim=2)
    residuals, worst_at = sampled_law_residuals(carrier, samples, 6)
    plain, plain_at = sampled_law_residuals(ball, samples, 6)
    assert len(carrier.threads) == 2
    assert residuals.pop("closure") is False and plain.pop("closure") is True
    assert residuals == plain and plain_at["closure"] is None
    i, wa, wb, wc = worst_at["closure"]
    want = [k, a[k].tolist(), b[k].tolist(), c[k].tolist()]
    assert [i, wa.tolist(), wb.tolist(), wc.tolist()] == want
    checks = {x.check: x.as_dict() for x in cli._law_checks(
        carrier, argparse.Namespace(samples=samples, seed=6))}
    assert checks["closure"]["status"] == "fail"
    assert checks["closure"]["witness"] == want
    assert all(x["status"] == "pass" and x["witness"] is None
               for name, x in checks.items() if name != "closure")


@pytest.mark.parametrize("cpus", [1, 2])
def test_sampled_suite_raises_the_earliest_blocks_error(monkeypatch, cpus):
    from gyrokit import core
    from gyrokit.core import sampled_law_residuals
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 50)
    a = _draw(300, 8)[0]
    threads = threading.active_count()
    residuals, _ = sampled_law_residuals(FailingBall({}, dim=2), 300, 8)
    assert residuals == sampled_law_residuals(BallGyrogroup(dim=2), 300, 8)[0]
    assert threading.active_count() == threads
    # with two threads the even blocks are the caller's, the odd ones the
    # worker's
    for failing, first in (((160, 210), 160), ((110, 260), 110), ((270,), 270),
                           ((20, 60), 20)):
        carrier = FailingBall({i: a[i] for i in failing}, dim=2)
        with pytest.raises(NumericalError, match=f"^triple {first}$"):
            sampled_law_residuals(carrier, 300, 8)
        assert threading.active_count() == threads


def test_an_interrupted_sampled_suite_stops_and_joins_its_worker(monkeypatch):
    from gyrokit import core
    from gyrokit.coset_actions import self_action_possible_sampled
    from gyrokit.core import sampled_law_residuals
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 50)
    a = _draw(2000, 10)[0]
    threads = threading.active_count()
    for check in (sampled_law_residuals, self_action_possible_sampled):
        # the caller's first block is interrupted; the worker's last is
        # block 39
        carrier = InterruptedBall(a[3], a[1990], dim=2)

        class ReleasedAtJoin(threading.Thread):
            # the caller joins the worker only once it has noted its
            # interrupt, so the worker, held in its first block until then,
            # cannot run ahead
            def join(self, timeout=None, carrier=carrier):
                carrier.released.set()
                super().join(timeout)

        monkeypatch.setattr(core, "threading",
                            types.SimpleNamespace(Thread=ReleasedAtJoin))
        with pytest.raises(KeyboardInterrupt):
            check(carrier, 2000, 10)
        assert threading.active_count() == threads
        assert not carrier.reached_last, check


def test_sampled_suite_keeps_the_callers_errstate_in_every_block(monkeypatch):
    from gyrokit import core
    from gyrokit.core import sampled_law_residuals
    monkeypatch.setattr(core, "_cpus", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 50)
    a = _draw(200, 9)[0]
    with np.errstate(all="raise"):
        sampled_law_residuals(BallGyrogroup(dim=2), 200, 9)
        with pytest.raises(FloatingPointError):
            sampled_law_residuals(DividingBall(a[75], dim=2), 200, 9)


def test_cancellation_law_tolerance_is_the_carriers_eps(t21):
    rng = np.random.default_rng(3)
    ball = BallGyrogroup(dim=2)
    xs, ys = (ball.sample_batch(rng, 8) for _ in range(2))
    pairs = np.arange(21)
    for carrier, a, b, eps in ((ball, xs, ys, 1e-9), (t21, pairs, pairs[::-1], 0.0)):
        assert carrier.eps == eps
        assert all(law.tolerance == eps and law.passed
                   for law in check_cancellation_laws(carrier, a, b))


def test_axiom_residuals_are_the_sampled_suites_axiom_laws(t21):
    from gyrokit.core import sampled_law_residuals
    ball = BallGyrogroup(dim=3, variant="einstein")
    rng = np.random.default_rng(4)
    a, b, c = (ball.sample_batch(rng, 300) for _ in range(3))
    residuals = check_axiom_residuals(ball, a, b, c)
    sampled, _ = sampled_law_residuals(ball, 300, 4)
    assert len(residuals) == 9 and residuals["closure"] is True
    assert residuals == {law: sampled[law] for law in residuals}
    # single elements of a finite carrier: every law holds exactly
    assert check_axiom_residuals(t21, 5, 7, 11) == dict.fromkeys(residuals, 0.0) \
        | {"closure": True}


def test_core_imports_nothing_from_the_package():
    # every other module imports core, so core is the leaf of the import
    # graph: no import of the package in it, at the top or in a function
    tree = ast.parse(inspect.getsource(core))
    found = [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (
                 node.level or (node.module or "").split(".")[0] == "gyrokit")
             or isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "gyrokit" for a in node.names)]
    assert found == []


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml declares Python >= 3.10; the grammar of a newer
    # release in any source, test, demo or benchmark file would break there
    root = Path(__file__).resolve().parents[1]
    files = [f for d in ("src", "tests", "demos", "perfbench")
             for f in sorted((root / d).rglob("*.py"))]
    assert files
    for f in files:
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f),
                  feature_version=(3, 10))


def test_validation_errors_list_max_witnesses_diagnostics(monkeypatch):
    from gyrokit.finite import MAX_WITNESSES
    assert MAX_WITNESSES == core.MAX_WITNESSES == 8
    # the message reads the one witness bound, which every check caps by
    monkeypatch.setattr(core, "MAX_WITNESSES", 3)
    diags = [core.violation("law", (i,), f"case {i}") for i in range(5)]
    lines = str(ValidationError(diags)).splitlines()
    assert lines[1:] == [f"  law: case {i} witness=({i},)"
                         for i in range(3)] + ["  ... and 2 more"]
