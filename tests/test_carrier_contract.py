"""The carrier contract: every carrier's operations broadcast over batches,
and its size parameters are integers."""

import re

import numpy as np
import pytest

from gyrokit import (BallGyrogroup, FiniteGyrogroup, InvalidElementError,
                     PairElement, PairGyrogroup, validate_gyrogroup)
from gyrokit.catalog import cyclic, twisted21

CARRIERS = {
    "twisted21": lambda: validate_gyrogroup(twisted21()),
    "mobius3": lambda: BallGyrogroup(dim=3, variant="mobius"),
    "einstein3": lambda: BallGyrogroup(dim=3, variant="einstein"),
    "pairs6": lambda: PairGyrogroup(m=6),
}
ARITY = {"oplus": 2, "oinv": 1, "gyration": 3, "distance": 2, "contains": 1}
# what a scalar call on the finite carrier returns
FINITE_TYPE = {"distance": float, "contains": bool}
COUNT = 9


def _entry(batch, i):
    x = batch[i]
    return x.item() if isinstance(x, np.generic) else x


def _same(x, y):
    """Equal values and shapes, bit for bit."""
    if isinstance(x, PairElement):
        return np.array_equal(x.u, y.u) and np.array_equal(x.r, y.r)
    return np.array_equal(x, y)


@pytest.mark.parametrize("op", sorted(ARITY))
@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_operations_broadcast_over_batches(name, op):
    carrier = CARRIERS[name]()
    rng = np.random.default_rng(6)
    xs = [carrier.sample_batch(rng, COUNT) for _ in range(ARITY[op])]
    f = getattr(carrier, op)
    got = f(*xs)
    for i in range(COUNT):
        want = f(*(_entry(x, i) for x in xs))
        assert _same(_entry(got, i), want), (op, i)
        if isinstance(carrier, FiniteGyrogroup):
            assert type(want) is FINITE_TYPE.get(op, int), op
    # a batch of one stays a batch
    assert _same(f(*(x[:1] for x in xs)), got[:1]), op


def test_finite_contains_rejects_what_is_not_an_element():
    g = validate_gyrogroup(twisted21())
    assert g.contains(np.array([0, 20, 21, -1])).tolist() == \
        [True, True, False, False]
    assert g.contains(21) is False and g.contains(1.0) is False


# unchecked, -1 indexed the last row (on Z_6, -1 + 0 was 5), 6 raised a bare
# IndexError, 2.0 another, and True indexed a row as a mask
@pytest.mark.parametrize("bad, shown", [(-1, "-1"), (6, "6"),
                                        (np.int64(-3), "-3"), (2.0, "2.0"),
                                        (True, "True")])
def test_finite_operations_refuse_what_is_not_an_element(bad, shown):
    g = validate_gyrogroup(cyclic(6))
    calls = [lambda x: g.oplus(x, 0), lambda x: g.oplus(1, x),
             lambda x: g.oinv(x), lambda x: g.gyration(0, 1, x),
             lambda x: g.gyration(x, 1, 2), lambda x: g.gyr_perm(2, x)]
    for call in calls:
        for x in (bad, np.full(3, bad)):
            with pytest.raises(InvalidElementError, match=re.escape(
                    f"entry {shown} is not an element of 0..5")):
                call(x)
    with pytest.raises(InvalidElementError, match="^entry 7 "):
        g.oplus(np.array([0, 7, -1]), 0)
    assert g.oplus(np.int64(5), 1) == 0 and g.oinv(np.uint8(2)) == 4


def test_pair_oplus_refuses_a_rotation_index_outside_z_m():
    # unchecked, (u, -1) + (v, 2) read -1 as index 5 and returned index 1
    pairs = PairGyrogroup(m=6)
    bad = PairElement(np.array([0.1, 0.0]), -1)
    good = PairElement(np.array([0.0, 0.2]), 2)
    for call in (lambda: pairs.oplus(bad, good), lambda: pairs.oinv(bad),
                 lambda: pairs.gyration(good, good, bad)):
        with pytest.raises(InvalidElementError,
                           match=re.escape("entry -1 is not an element of 0..5")):
            call()


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None])
def test_carrier_sizes_must_be_integers(value):
    # a float m would make rotation indices floats, and True would count as 1
    for make, name in ((BallGyrogroup, "dim"), (PairGyrogroup, "m")):
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} {value!r} is not an integer")):
            make(**{name: value})


def test_carrier_sizes_may_be_numpy_integers():
    assert BallGyrogroup(dim=np.int64(3)).zero.shape == (3,)
    pairs = PairGyrogroup(m=np.int32(4))
    assert type(pairs.m) is int and pairs.element([0, 0], 5).r == 1


@pytest.mark.parametrize("rotation", [2.7, 2.0, True, False, "3", None])
def test_pair_rotations_must_be_integers(rotation):
    # int() would truncate 2.7 to 2, read True as 1 and parse "3"
    with pytest.raises(ValueError, match=re.escape(
            f"rotation {rotation!r} is not an integer")):
        PairGyrogroup(m=6).element([0, 0], rotation)


@pytest.mark.parametrize("rotation, index", [(3, 3), (8, 2), (-1, 5),
                                             (np.int64(13), 1), (np.uint8(6), 0)])
def test_pair_rotations_are_reduced_mod_m(rotation, index):
    r = PairGyrogroup(m=6).element([0, 0], rotation).r
    assert type(r) is int and r == index


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
def test_ball_points_must_have_a_coordinate_axis(variant):
    # unchecked, element raised a bare IndexError on a scalar, and the
    # operations a numpy AxisError or, beside a 1-d point, read the scalar
    # as that point
    ball = BallGyrogroup(dim=1, variant=variant)
    calls = [lambda: ball.oplus(0.5, 0.2), lambda: ball.oplus([0.5], 0.2),
             lambda: ball.oinv(0.5), lambda: ball.contains(0.5),
             lambda: ball.distance(0.5, [0.2]),
             lambda: ball.gyration([0.5], [0.2], 0.1)]
    for call in calls:
        with pytest.raises(InvalidElementError,
                           match="expected dimension 1, got a scalar"):
            call()
    with pytest.raises(InvalidElementError,
                       match=re.escape("expected dimension 1, got ()")):
        ball.element(0.5)
    pairs = PairGyrogroup(variant=variant)
    with pytest.raises(InvalidElementError,
                       match=re.escape("expected dimension 2, got ()")):
        pairs.element(0.5, 1)
    with pytest.raises(InvalidElementError,
                       match="expected dimension 2, got a scalar"):
        pairs.oplus(PairElement(0.5, 1), pairs.zero)
    assert ball.element([0.5]).shape == (1,)
