"""Mobius/Einstein ball carriers: frozen values, laws, gyration matrices."""

import re
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
        assert ball.distance(ball.oplus(u, ball.zero), u) <= ball.eps
        assert ball.distance(ball.oplus(ball.zero, u), u) <= ball.eps
        assert ball.distance(ball.oplus(ball.oinv(u), u), ball.zero) <= ball.eps
        assert ball.distance(ball.oplus(u, ball.oinv(u)), ball.zero) <= ball.eps


def test_lorentz_gamma_values():
    assert lorentz_gamma(np.zeros(2)) == 1.0
    assert abs(lorentz_gamma(np.array([0.5, 0.0])) - 2 / np.sqrt(3)) < 1e-12
    assert abs(lorentz_gamma(np.array([0.8, 0.0])) - 5 / 3) < 1e-12
    assert abs(lorentz_gamma(np.array([0.0, 0.8])) - 5 / 3) < 1e-12


def test_gamma_overflow():
    with pytest.raises(NumericalError):
        lorentz_gamma(np.array([1.0, 0.0]))


def test_unknown_variant_is_rejected():
    from gyrokit import PairGyrogroup
    for make in (BallGyrogroup, PairGyrogroup):
        with pytest.raises(ValueError, match=re.escape(
                "variant must be one of ['einstein', 'mobius']")):
            make(variant="x")


def test_element_margin_enforced():
    ball = BallGyrogroup(dim=2, variant="mobius")
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
def test_a_sum_that_rounds_onto_the_boundary_is_refused(variant):
    # in dimension 1 both sums are (u + v)/(1 + uv), which rounds to 1 here
    u = np.array([0.999999999999999])
    with pytest.raises(NumericalError, match=f"^{variant} sum left the ball$"):
        BallGyrogroup(dim=1, variant=variant).oplus(u, u)


def test_ball_repr_names_dimension_and_variant():
    assert (repr(BallGyrogroup(dim=3, variant="einstein"))
            == "BallGyrogroup(dim=3, variant='einstein')")


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


NON_FINITE = [[float("nan"), 0.0], [0.1, float("inf")],
              [[0.1, 0.2], [float("-inf"), 0.0]]]


@pytest.mark.parametrize("coords", NON_FINITE)
def test_element_rejects_non_finite_coordinates(coords):
    # NaN compares False with 1 - delta, so the margin cannot reject it
    with pytest.raises(InvalidElementError, match="must be finite"):
        BallGyrogroup(dim=2).element(coords)


@pytest.mark.parametrize("coords", NON_FINITE)
def test_lorentz_gamma_rejects_non_finite_coordinates(coords):
    # NaN compares False with 1, so gamma of [nan, 0] was nan
    with pytest.raises(InvalidElementError, match="^coordinates must be finite$"):
        lorentz_gamma(coords)


def test_results_stay_in_ball_on_samples():
    rng = np.random.default_rng(3)
    for variant in ("mobius", "einstein"):
        ball = BallGyrogroup(dim=2, variant=variant)
        u = ball.sample_batch(rng, 500)
        v = ball.sample_batch(rng, 500)
        out = ball.oplus(u, v)
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)


@pytest.mark.parametrize("add", [mobius_add, einstein_add])
@pytest.mark.parametrize("u, v", [([2.0, 0.0], [0.0, 0.0]),
                                  ([0.5, 0.0], [3.0, 0.0])])
def test_module_additions_reject_points_outside_ball(add, u, v):
    with pytest.raises(InvalidElementError):
        add(u, v)


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
            a = ball.sample_batch(rng, 1)[0]
            b = ball.sample_batch(rng, 1)[0]
            m = ball_gyration_matrix(ball, a, b, samples=8, seed=1)
            assert m.orthogonality_residual <= 1e-8
            assert m.linearity_residual <= 1e-8


def test_gyration_matrix_rejects_zero_samples():
    ball = BallGyrogroup(dim=2)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        ball_gyration_matrix(ball, [0.1, 0.2], [0.3, -0.1], samples=0, seed=1)


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
def test_gyration_matrix_reads_its_seed_as_an_integer(seed):
    ball = BallGyrogroup(dim=2)
    with pytest.raises(ValueError, match=f"^seed {re.escape(repr(seed))} is not"):
        ball_gyration_matrix(ball, [0.1, 0.2], [0.3, -0.1], samples=8, seed=seed)


def test_gyration_matrix_refuses_a_negative_seed():
    ball = BallGyrogroup(dim=2)
    with pytest.raises(ValueError, match="^seed -1 is negative$"):
        ball_gyration_matrix(ball, [0.1, 0.2], [0.3, -0.1], samples=8, seed=-1)


@pytest.mark.parametrize("samples", [2.5, True, "3"])
def test_ball_checks_read_samples_as_integers(samples):
    # unchecked, a float count raised a numpy TypeError
    ball = BallGyrogroup(dim=2)
    message = f"^samples {re.escape(repr(samples))} is not an integer$"
    with pytest.raises(ValueError, match=message):
        ball_gyration_matrix(ball, [0.1, 0.2], [0.3, -0.1], samples, seed=1)
    with pytest.raises(ValueError, match=message):
        check_ball_laws(ball, samples, 1)


def test_ball_law_report_holds_samples_as_a_python_int():
    residuals = check_ball_laws(BallGyrogroup(dim=2), np.int64(3), 1)
    assert type(residuals["samples"]) is int and residuals["samples"] == 3
    assert residuals == check_ball_laws(BallGyrogroup(dim=2), 3, 1)


@pytest.mark.parametrize("add", [mobius_add, einstein_add])
def test_module_additions_refuse_scalars(add):
    # unchecked, the additions raised a bare IndexError reading the
    # dimension of a scalar first argument
    for u, v in [(0.5, 0.2), (0.5, [0.2]), ([0.5], 0.2)]:
        with pytest.raises(InvalidElementError,
                           match="^expected dimension 1, got a scalar$"):
            add(u, v)
    assert add([0.5], [0.2]).shape == (1,)


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


def test_mobius_denominator_underflow_and_einstein_denominator_underflow():
    """Opposite points by the boundary trip each denominator guard, alone
    and inside a batch; a little further in, the sum is 0."""
    w = np.array([0.1, 0.2])
    u = np.array([1 - 1e-9, 0.0])
    mobius = BallGyrogroup(dim=2, variant="mobius")
    batch = np.array([[0.3, -0.1], u])
    for x in (u, batch):
        with pytest.raises(NumericalError, match="mobius denominator underflow"):
            mobius.oplus(x, -x)
        with pytest.raises(NumericalError, match="mobius denominator underflow"):
            mobius.gyration(x, -x, w)
    e = np.array([np.nextafter(1.0, 0.0), 0.0])
    einstein = BallGyrogroup(dim=2, variant="einstein")
    for x in (e, np.array([[0.3, -0.1], e])):
        with pytest.raises(NumericalError, match="einstein denominator underflow"):
            einstein.oplus(x, -x)
    inner = np.array([1 - 1e-6, 0.0])
    for ball in (mobius, einstein):
        assert np.array_equal(ball.oplus(inner, -inner), [0.0, 0.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mobius_kernels_run_on_fractions_exactly(dim):
    """The Mobius kernels take exact numbers: on Fraction object arrays
    (coordinate-major) gyroassociativity and the left loop law hold with
    defect exactly 0, and every entry stays a Fraction."""
    from gyrokit.ball import _dot, _mobius_add, _mobius_gyration

    def add(u, v):
        return _mobius_add(u, v, _dot(u, u))

    def gyr(u, v, w):
        return _mobius_gyration(u, v, w, _dot(u, u), _dot(v, v))

    rng = np.random.default_rng(dim)
    a, b, c = (np.array([[F(int(n), 1000) for n in row] for row in
                         rng.integers(-550, 550, (dim, 6))], dtype=object)
               for _ in range(3))
    ab, gyr_c = add(a, b), gyr(a, b, c)
    gyroassociativity = add(a, add(b, c)) - add(ab, gyr_c)
    left_loop = gyr(ab, b, c) - gyr_c
    for x in (ab, gyr_c, gyroassociativity, left_loop):
        assert x.shape == (dim, 6)
        assert all(type(t) is Fraction for t in x.flat)
    assert not any(gyroassociativity.flat) and not any(left_loop.flat)
    assert (gyr_c != c).any() == (dim > 1)  # gyrations are trivial on a line


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


# numpy sums a point's squares in sequence below 8 coordinates, as 8
# interleaved partial sums up to 128, and by halves above
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 9, 16, 129])
def test_sample_batch_draws_in_chunks_what_one_draw_gives(monkeypatch, dim):
    from gyrokit import ball as ball_module

    def one_draw(rng, count):
        g = rng.standard_normal((count, dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        g *= 0.99 * rng.random((count, 1)) ** (1.0 / dim)
        return g

    if dim > 16:  # 3 chunks of 2^16 points would take 200 MB a draw
        monkeypatch.setattr(ball_module, "_DRAW_CHUNK", 2 ** 10)
    chunk = ball_module._DRAW_CHUNK
    ball = BallGyrogroup(dim=dim)
    for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        mine, theirs = np.random.default_rng(count), np.random.default_rng(count)
        x = ball.sample_batch(mine, count)
        assert x.shape == (count, dim)
        assert np.array_equal(x, one_draw(theirs, count)), count
        assert mine.random() == theirs.random()  # the stream goes on alike
        assert np.moveaxis(x, -1, 0)[0].flags.c_contiguous


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


@pytest.mark.parametrize("variant", ["mobius", "einstein"])
def test_kernels_read_draws_in_place_and_never_write_them(variant):
    from gyrokit.ball import _coords
    ball = BallGyrogroup(dim=3, variant=variant)
    rng = np.random.default_rng(12)
    xs = [ball.sample_batch(rng, 40) for _ in range(3)]
    kept = [x.copy() for x in xs]
    blocks = [x[8:24] for x in xs]
    assert all(np.shares_memory(_coords(3, b)[0], x) for b, x in zip(blocks, xs))
    for op, arity in _operations(ball).values():
        for args in (xs, blocks, [xs[0][3]] + blocks[1:]):
            op(*args[:arity])
    assert all(np.array_equal(x, k) for x, k in zip(xs, kept))


@pytest.mark.parametrize("variant, name, seed, count, i", [
    ("mobius", "oplus", 1, 20_000, 4703), ("einstein", "gyration", 5, 500, 48)])
def test_a_point_alone_gives_its_batch_result(variant, name, seed, count, i):
    # numpy squares an array by a product but a numpy scalar by pow, and
    # the two rounded the square of 1 + <u,v> apart in the last bit here
    ball = BallGyrogroup(dim=3, variant=variant)
    rng = np.random.default_rng(seed)
    xs = [ball.sample_batch(rng, count) for _ in range(3)]
    op, arity = _operations(ball)[name]
    assert np.array_equal(op(*(x[i] for x in xs[:arity])), op(*xs[:arity])[i])
