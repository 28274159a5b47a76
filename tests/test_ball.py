"""Mobius/Einstein ball carriers: frozen values, laws, gyration matrices."""

from fractions import Fraction

import numpy as np
import pytest

from gyrokit import (BallGyrogroup, InvalidElementError, NumericalError,
                     ball_gyration_matrix, check_ball_laws, einstein_add,
                     gyration, lorentz_gamma, mobius_add)


def rational_mobius(u, v):
    """Independent oracle: the written formula over exact rationals."""
    dot = sum(a * b for a, b in zip(u, v))
    nu2 = sum(a * a for a in u)
    nv2 = sum(b * b for b in v)
    den = 1 + 2 * dot + nu2 * nv2
    return tuple((Fraction(1 + 2 * dot + nv2) * a + Fraction(1 - nu2) * b) / den
                 for a, b in zip(u, v))


def rational_gyr(a, b, c):
    neg = lambda x: tuple(-t for t in x)
    return rational_mobius(neg(rational_mobius(a, b)),
                           rational_mobius(a, rational_mobius(b, c)))


F = Fraction


def test_mobius_against_rational_oracle_on_grid():
    ball = BallGyrogroup(dim=2, variant="mobius")
    grid = [(F(3, 10), F(0)), (F(0), F(2, 5)), (F(-1, 2), F(1, 4)),
            (F(7, 10), F(-1, 5))]
    for u in grid:
        for v in grid:
            exact = rational_mobius(u, v)
            got = ball.oplus(np.array(u, dtype=float), np.array(v, dtype=float))
            assert np.allclose(got, [float(x) for x in exact],
                               atol=1e-14, rtol=0)


def test_half_plus_half_is_point_eight():
    u = np.array([0.5, 0.0])
    assert np.allclose(mobius_add(u, u), [0.8, 0.0], atol=1e-12, rtol=0)
    assert np.allclose(einstein_add(u, u), [0.8, 0.0], atol=1e-12, rtol=0)


def test_add_zero_and_inverse():
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=3, variant=variant)
        u = np.array([0.2, -0.4, 0.1])
        assert ball.equals(ball.oplus(u, ball.zero), u)
        assert ball.equals(ball.oplus(ball.zero, u), u)
        assert ball.equals(ball.oplus(ball.oinv(u), u), ball.zero)
        assert ball.equals(ball.oplus(u, ball.oinv(u)), ball.zero)


def test_lorentz_gamma_values():
    assert lorentz_gamma(np.zeros(2)) == 1.0
    assert abs(lorentz_gamma(np.array([0.5, 0.0])) - 2 / np.sqrt(3)) < 1e-12
    assert abs(lorentz_gamma(np.array([0.8, 0.0])) - 5 / 3) < 1e-12
    assert abs(lorentz_gamma(np.array([0.0, 0.8])) - 5 / 3) < 1e-12


def test_gamma_overflow():
    with pytest.raises(NumericalError):
        lorentz_gamma(np.array([1.0, 0.0]))


def test_element_margin_enforced():
    ball = BallGyrogroup(dim=2, variant="mobius", delta=1e-6)
    ball.element([0.99, 0.0])
    with pytest.raises(InvalidElementError):
        ball.element([1.0, 0.0])
    with pytest.raises(InvalidElementError):
        ball.element([0.9999999, 0.0])
    with pytest.raises(InvalidElementError):
        ball.element([0.1, 0.2, 0.3])


def test_operations_reject_points_outside_ball():
    ball = BallGyrogroup(dim=2, variant="einstein")
    with pytest.raises(InvalidElementError):
        ball.oplus(np.array([1.2, 0.0]), np.array([0.1, 0.0]))
    with pytest.raises(InvalidElementError):
        ball.oinv(np.array([0.0, 1.0]))


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
@pytest.mark.parametrize("short, got", [([0.1, 0.2], 2), ([0.5], 1)])
def test_operations_reject_points_of_another_dimension(variant, short, got):
    # unchecked, a 2-vector is added as a 2-vector and a 1-vector
    # broadcasts over all three coordinates
    ball = BallGyrogroup(dim=3, variant=variant)
    point = [0.1, 0.2, 0.3]
    calls = [lambda: ball.oplus(short, short), lambda: ball.oplus(short, point),
             lambda: ball.oplus(point, [short, short]),
             lambda: ball.oinv(short), lambda: ball.contains(short),
             lambda: ball.distance(point, short),
             lambda: ball.gyration(point, point, short),
             lambda: ball.gyration(short, point, point)]
    for call in calls:
        with pytest.raises(InvalidElementError,
                           match=f"expected dimension 3, got {got}"):
            call()


@pytest.mark.parametrize("coords", [[float("nan"), 0.0], [0.1, float("inf")],
                                    [[0.1, 0.2], [float("-inf"), 0.0]]])
def test_element_rejects_non_finite_coordinates(coords):
    # NaN compares False with 1 - delta, so the margin cannot reject it
    with pytest.raises(InvalidElementError, match="must be finite"):
        BallGyrogroup(dim=2).element(coords)


def test_results_stay_in_ball_on_samples():
    rng = np.random.default_rng(3)
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=2, variant=variant)
        u = ball.sample_batch(rng, 500)
        v = ball.sample_batch(rng, 500)
        out = ball.oplus(u, v)
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)


# -- gyration matrices ----------------------------------------------------

# gyr[(0.3,0),(0,0.4)] on the mobius 2-ball is exactly the rotation
# (1/317) [[308, 75], [-75, 308]]  (extracted with rational probes; the
# probe scale drops out because the map is exactly linear there).
ROTATION_ORACLE = np.array([[308.0, 75.0], [-75.0, 308.0]]) / 317.0


def test_gyration_matrix_identity_cases():
    ball = BallGyrogroup(dim=2, variant="mobius")
    for a, b in [(np.zeros(2), np.array([0.4, 0.1])),
                 (np.array([0.4, 0.1]), np.zeros(2))]:
        m = ball_gyration_matrix(ball, a, b, samples=8, seed=0)
        assert np.allclose(m.matrix, np.eye(2), atol=1e-12, rtol=0)


def test_collinear_gyration_is_identity():
    ball = BallGyrogroup(dim=2, variant="mobius")
    m = ball_gyration_matrix(ball, np.array([0.3, 0.0]),
                             np.array([0.6, 0.0]), samples=8, seed=0)
    assert np.allclose(m.matrix, np.eye(2), atol=1e-9, rtol=0)


def test_gyration_matrix_matches_rotation_oracle():
    ball = BallGyrogroup(dim=2, variant="mobius")
    m = ball_gyration_matrix(ball, np.array([0.3, 0.0]),
                             np.array([0.0, 0.4]), samples=32, seed=5)
    assert np.allclose(m.matrix, ROTATION_ORACLE, atol=1e-9, rtol=0)
    assert m.orthogonality_residual <= 1e-9
    assert m.linearity_residual <= 1e-9
    # exact rational cross-check of one probe column
    col = rational_gyr((F(3, 10), F(0)), (F(0), F(2, 5)), (F(1, 1000), F(0)))
    assert np.allclose(m.matrix[:, 0],
                       [float(x) * 1000 for x in col], atol=1e-9, rtol=0)


def test_gyration_matrix_orthogonal_on_random_pairs():
    rng = np.random.default_rng(17)
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=2, variant=variant)
        for _ in range(20):
            a = ball.sample(rng)
            b = ball.sample(rng)
            m = ball_gyration_matrix(ball, a, b, samples=8, seed=1)
            assert m.orthogonality_residual <= 1e-8
            assert m.linearity_residual <= 1e-8


def test_gyration_three_dimensional():
    ball = BallGyrogroup(dim=3, variant="einstein")
    m = ball_gyration_matrix(ball, np.array([0.3, 0.0, 0.1]),
                             np.array([0.0, 0.4, -0.2]), samples=8, seed=2)
    assert m.orthogonality_residual <= 1e-9


# -- sampled law suites ----------------------------------------------------

@pytest.mark.parametrize("variant", ["mobius", "einstein"])
def test_law_suite_residuals(variant):
    ball = BallGyrogroup(dim=2, variant=variant)
    out = check_ball_laws(ball, 1000, seed=42)
    assert out["closure"]
    for law in ("gyroassociativity", "left_loop", "left_cancellation",
                "general_left_cancellation", "right_cancellation_1",
                "right_cancellation_2", "left_identity", "left_inverse",
                "right_inverse", "gyration_fixes_zero"):
        assert out[law] <= 1e-9, (law, out[law])
    assert out["automorphism"] <= 1e-8


def test_law_suite_is_seed_reproducible():
    ball = BallGyrogroup(dim=2, variant="mobius")
    assert check_ball_laws(ball, 200, seed=7) == check_ball_laws(ball, 200, seed=7)


def test_gyration_broadcasts_over_batches():
    ball = BallGyrogroup(dim=2, variant="mobius")
    rng = np.random.default_rng(0)
    a = ball.sample_batch(rng, 64)
    b = ball.sample_batch(rng, 64)
    c = ball.sample_batch(rng, 64)
    batch = gyration(ball, a, b, c)
    single = np.stack([gyration(ball, a[i], b[i], c[i]) for i in range(64)])
    assert np.allclose(batch, single, atol=1e-15, rtol=0)


def test_mobius_dim2_seed5_left_loop_passes():
    # the gyrator identity read 1.02e-9 here, a false failure of the law
    out = check_ball_laws(BallGyrogroup(dim=2, variant="mobius"), 50_000, seed=5)
    assert out["left_loop"] <= 1e-9
    assert out["gyration_closed_form"] <= 1e-9


def _edge_triples(ball, rng, count):
    """Seeded triples with norms <= 0.9, then the same with each slot in
    turn pushed out to norm 0.999, and the zero triple."""
    base = [ball.sample_batch(rng, count, 0.9) for _ in range(3)]
    triples = [base]
    for slot in range(3):
        t = [x.copy() for x in base]
        t[slot] *= 0.999 / np.linalg.norm(t[slot], axis=-1, keepdims=True)
        triples.append(t)
    triples.append([np.zeros((1, ball.dim))] * 3)
    return [np.concatenate(xs) for xs in zip(*triples)]


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_closed_form_gyration_matches_gyrator(variant, dim):
    ball = BallGyrogroup(dim=dim, variant=variant)
    a, b, c = _edge_triples(ball, np.random.default_rng(dim), 50)
    assert np.abs(np.linalg.norm(a, axis=-1).max() - 0.999) < 1e-15
    got = ball.gyration(a, b, c)
    assert np.linalg.norm(got - gyration(ball, a, b, c), axis=-1).max() <= 1e-11
    # gyrations are isometries, and fix 0
    assert np.abs(np.linalg.norm(got, axis=-1)
                  - np.linalg.norm(c, axis=-1)).max() <= 1e-13
    assert np.array_equal(ball.gyration(a, b, np.zeros_like(c)), np.zeros_like(c))


def test_closed_form_gyration_exact_near_boundary():
    """Against the gyrator identity in exact rationals, where the float
    gyrator loses digits: a at norm 0.999."""
    ball = BallGyrogroup(dim=3, variant="mobius")
    rng = np.random.default_rng(11)
    a = ball.sample_batch(rng, 6, 0.9)
    a *= 0.999 / np.linalg.norm(a, axis=-1, keepdims=True)
    b, c = ball.sample_batch(rng, 6, 0.9), ball.sample_batch(rng, 6, 0.9)
    got = ball.gyration(a, b, c)
    for i in range(6):
        exact = rational_gyr(*(tuple(F(x) for x in v[i]) for v in (a, b, c)))
        assert np.linalg.norm(got[i] - [float(x) for x in exact]) <= 1e-15


def test_closed_form_gyration_single_points_and_domain():
    ball = BallGyrogroup(dim=2, variant="mobius")
    got = ball.gyration([0.3, 0.0], [0.0, 0.4], [0.1, 0.0])
    assert np.allclose(got, [154 / 1585, -15 / 634], atol=1e-15, rtol=0)
    with pytest.raises(InvalidElementError):
        ball.gyration([1.0, 0.0], [0.0, 0.4], [0.1, 0.0])
    with pytest.raises(InvalidElementError):
        ball.gyration([0.3, 0.0], [0.0, 0.4], [0.0, 1.2])


def test_carrier_gyrations_do_not_use_the_gyrator(monkeypatch):
    from gyrokit import PairGyrogroup, core

    def refuse(*args):
        raise AssertionError("core.gyration called")

    monkeypatch.setattr(core, "gyration", refuse)
    a, b, c = np.array([0.3, 0.1]), np.array([-0.2, 0.5]), np.array([0.4, 0.0])
    for variant in ("mobius", "einstein"):
        assert BallGyrogroup(dim=2, variant=variant).gyration(a, b, c).shape == (2,)
        pairs = PairGyrogroup(m=6, variant=variant)
        x = pairs.gyration(pairs.element(a, 1), pairs.element(b, 2),
                           pairs.element(c, 3))
        assert x.u.shape == (2,) and x.r == 3


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
def test_law_suite_independent_of_block_size(monkeypatch, variant):
    from gyrokit import PairGyrogroup, check_pair_axioms, core
    ball = BallGyrogroup(dim=3, variant=variant)
    pairs = PairGyrogroup(m=6, variant=variant)
    default = check_ball_laws(ball, 1000, seed=3), check_pair_axioms(pairs, 1000, 3)
    monkeypatch.setattr(core, "_BLOCK_TRIPLES", 7)
    assert (check_ball_laws(ball, 1000, seed=3),
            check_pair_axioms(pairs, 1000, 3)) == default


def test_sample_batch_draw_is_frozen():
    from gyrokit import PairGyrogroup
    x = BallGyrogroup(dim=3).sample_batch(np.random.default_rng(2024), 1000)
    assert x[[0, 999]].tolist() == [
        [0.1539247835987138, 0.24564367828533684, 0.17155792988348095],
        [0.09251656349793118, 0.6959902741612641, -0.5628573725148344]]
    p = PairGyrogroup(m=6).sample_batch(np.random.default_rng(2024), 1000)
    assert p.u[[0, 999]].tolist() == [
        [0.4843584074041923, 0.7729722142301437],
        [-0.5656108036921905, -0.5241533115138216]]
    assert p.r[[0, 999]].tolist() == [5, 0]


# -- memory layout ----------------------------------------------------------

def _operations(ball):
    """Each public kernel with its arity."""
    return {"oplus": (ball.oplus, 2), "oinv": (ball.oinv, 1),
            "gyration": (ball.gyration, 3), "distance": (ball.distance, 2),
            "contains": (ball.contains, 1)}


def _layouts(ball, rng, count):
    """Argument lists of one set of values in different memory layouts."""
    wide = [ball.sample_batch(rng, 2 * count, 0.9) for _ in range(3)]
    xs = [np.ascontiguousarray(w[::2]) for w in wide]
    fed = [ball.oinv(ball.oinv(x)) for x in xs]  # coordinate-major memory
    assert all(np.array_equal(f, x) for f, x in zip(fed, xs))
    assert all(np.moveaxis(f, -1, 0).flags.c_contiguous for f in fed)
    return xs, {"fortran": [np.asfortranarray(x) for x in xs],
                "strided": [w[::2] for w in wide],
                "fed back": fed}


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_results_do_not_depend_on_memory_layout(variant, dim):
    ball = BallGyrogroup(dim=dim, variant=variant)
    count = 9
    xs, layouts = _layouts(ball, np.random.default_rng(dim), count)
    for name, (op, arity) in _operations(ball).items():
        want = op(*xs[:arity])
        tail = (count, dim) if name in ("oplus", "oinv", "gyration") else (count,)
        assert want.shape == tail, name
        for layout, args in layouts.items():
            got = op(*args[:arity])
            assert got.shape == tail and np.array_equal(got, want), (name, layout)
        # row by row, one point at a time
        rows = [op(*(x[i] for x in xs[:arity])) for i in range(count)]
        assert all(np.shape(r) == tail[1:] for r in rows), name
        assert np.array_equal(np.stack(rows), want), name
        # one point broadcast against a batch, in each slot
        for slot in range(arity if arity > 1 else 0):
            args = list(xs[:arity])
            point = args[slot][4]
            args[slot] = point
            spread = list(xs[:arity])
            spread[slot] = np.repeat(point[None], count, axis=0)
            got = op(*args)
            assert got.shape == tail and np.array_equal(got, op(*spread)), \
                (name, slot)


@pytest.mark.parametrize("add", [mobius_add, einstein_add])
def test_module_additions_do_not_depend_on_memory_layout(add):
    rng = np.random.default_rng(8)
    ball = BallGyrogroup(dim=3)
    xs, layouts = _layouts(ball, rng, 9)
    want = add(xs[0], xs[1])
    assert want.shape == (9, 3)
    for layout, args in layouts.items():
        assert np.array_equal(add(args[0], args[1]), want), layout
    assert np.array_equal(np.stack([add(u, v) for u, v in zip(xs[0], xs[1])]), want)
    assert np.array_equal(add(xs[0][4], xs[1]), add(np.repeat(xs[0][4:5], 9, 0), xs[1]))
