"""The ball carriers against models built another way (``conftest``):
Einstein by Lorentz boosts, Mobius by the complex disk and through the
isomorphism phi onto the boost model.

The law suites check only that the implemented formulas form a gyrogroup,
which a Mobius kernel filed as Einstein would pass too; these tests tell
the two apart.

Each comparison is bounded per triple by ``C * EPS * kappa``.  ``kappa`` is
the size of the largest terms that cancel on the way to a result of size
below 1, each rounded to a relative ``EPS``:

- sums, kappa = g(u) g(v): the entries of L(u)L(v) are of size
  g(u) g(v)(1 + |u||v|), and so is 1 + conj(u) v against 1/(g(u) g(v));
- gyrations, kappa = (g(u) g(v))^2: L(-(u + v)) has entries of size
  g(u + v) <= 2 g(u) g(v), which meet those of L(u)L(v), and the disk's
  ratio divides by 1 + conj(u) v twice over;
- through phi, the same with g'(x) = (1 + |x|^2)/(1 - |x|^2), the Lorentz
  factor of phi(x), and for gyrations a further g'(w): phi^-1 takes the
  square root of 1 - |y|^2 at y = gyr[phi(u), phi(v)]phi(w).

``g`` is the Lorentz factor 1/sqrt(1 - |x|^2).  Over 240,000 triples (5
seeds, dimensions 1, 2, 3 and 5, norms up to 1 - 1e-5, half of the pairs
nearly antipodal) the error never exceeded 10.2 kappa EPS, and 11.1 kappa
EPS at five further seeds, so ``C`` = 32 leaves a margin of almost three.
At norms up to 0.9, where the bound is below 2e-13, a Mobius sum filed as
Einstein misses the boost model by 0.35 to 0.45 at the tested points, in
dimensions 2 to 5.
"""

import numpy as np
import pytest

from conftest import (WrongGyrationBall, einstein_boost_model, lorentz_boost,
                      mobius_disk_model, mobius_phi_model)
from gyrokit import BallGyrogroup

EPS = np.finfo(float).eps
C = 32
DIMS = (1, 2, 3, 5)
# norm bands: the law suites' range, then the boundary up to 1 - 1e-5
INSIDE, BOUNDARY = (0.0, 0.9), (0.99, 0.99999)


def _gamma(x):
    return 1 / np.sqrt(1 - np.sum(x * x, axis=-1))


def _gamma_phi(x):
    """The Lorentz factor of phi(x): (1 + |x|^2)/(1 - |x|^2)."""
    x2 = np.sum(x * x, axis=-1)
    return (1 + x2) / (1 - x2)


def _points(rng, count, dim, band):
    """Points of norms uniform in ``band``, in uniform directions."""
    x = rng.standard_normal((count, dim))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    return x * rng.uniform(*band, (count, 1))


def _triples(dim, band, seed, count=200):
    """(u, v, w) drawn in ``band``, the first half of the v nearly -u, where
    the sums cancel most."""
    rng = np.random.default_rng(seed)
    u, v, w = (_points(rng, count, dim, band) for _ in range(3))
    half = count // 2
    gap = 1e-3 * (1 - np.linalg.norm(u[:half], axis=-1, keepdims=True))
    v[:half] = -u[:half] + gap * _points(rng, half, dim, (0.0, 1.0))
    return u, v, w


def _excess(got, want, kappa):
    """The largest error of ``got`` against ``want`` in units of the bound
    C * EPS * kappa: at most 1 where they agree."""
    return float(np.max(np.linalg.norm(got - want, axis=-1) / (C * EPS * kappa)))


def _against(carrier, model, u, v, w, sum_kappa, gyration_kappa):
    """(excess of the sums, excess of the gyrations) of ``carrier`` against
    ``model``."""
    s, g = model(u, v, w)
    return (_excess(carrier.oplus(u, v), s, sum_kappa),
            _excess(carrier.gyration(u, v, w), g, gyration_kappa))


def _against_boosts(carrier, u, v, w):
    k = _gamma(u) * _gamma(v)
    return _against(carrier, einstein_boost_model, u, v, w, k, k * k)


def _against_disk(carrier, u, v, w):
    k = _gamma(u) * _gamma(v)
    return _against(carrier, mobius_disk_model, u, v, w, k, k * k)


def _against_phi(carrier, u, v, w):
    k = _gamma_phi(u) * _gamma_phi(v)
    return _against(carrier, mobius_phi_model, u, v, w, k, k * k * _gamma_phi(w))


def test_the_boost_model_gives_a_boost_times_a_rotation():
    # L(u)L(v) = L(u + v) R with R a rotation: L(-(u + v))L(u)L(v) fixes
    # the time axis, and its spatial block is orthogonal of determinant 1
    u, v, _ = _triples(3, INSIDE, seed=1)
    s, _ = einstein_boost_model(u, v, u)
    r = lorentz_boost(-s) @ lorentz_boost(u) @ lorentz_boost(v)
    assert np.allclose(r[:, 0, 0], 1, atol=1e-12)
    assert np.allclose(r[:, 0, 1:], 0, atol=1e-12)
    assert np.allclose(r[:, 1:, 0], 0, atol=1e-12)
    spatial = r[:, 1:, 1:]
    assert np.allclose(spatial @ spatial.transpose(0, 2, 1), np.eye(3),
                       atol=1e-12)
    assert np.allclose(np.linalg.det(spatial), 1, atol=1e-12)
    half = np.array([[0.5, 0.0]])
    assert np.allclose(einstein_boost_model(half, half, half)[0], [[0.8, 0.0]])


@pytest.mark.parametrize("band", [INSIDE, BOUNDARY], ids=["inside", "boundary"])
@pytest.mark.parametrize("dim", DIMS)
def test_einstein_matches_the_boost_model(dim, band):
    u, v, w = _triples(dim, band, seed=dim)
    sums, gyrations = _against_boosts(BallGyrogroup(dim, "einstein"), u, v, w)
    assert sums <= 1 and gyrations <= 1


@pytest.mark.parametrize("band", [INSIDE, BOUNDARY], ids=["inside", "boundary"])
@pytest.mark.parametrize("dim", (1, 2))
def test_mobius_matches_the_disk_model(dim, band):
    u, v, w = _triples(dim, band, seed=10 + dim)
    sums, gyrations = _against_disk(BallGyrogroup(dim, "mobius"), u, v, w)
    assert sums <= 1 and gyrations <= 1


# phi(x) rounds to the boundary beyond norms of about 0.999, so the
# isomorphism is checked up to 0.99; the disk checks the boundary
@pytest.mark.parametrize("band", [INSIDE, (0.9, 0.99)], ids=["inside", "outer"])
@pytest.mark.parametrize("dim", DIMS)
def test_mobius_matches_the_boost_model_through_phi(dim, band):
    u, v, w = _triples(dim, band, seed=20 + dim)
    sums, gyrations = _against_phi(BallGyrogroup(dim, "mobius"), u, v, w)
    assert sums <= 1 and gyrations <= 1


@pytest.mark.parametrize("dim", (2, 3, 5))
def test_the_models_tell_the_variants_apart(dim):
    # in dimension 1 both additions are (u + v)/(1 + uv) and every gyration
    # is the identity, so the variants agree there
    u, v, w = _triples(dim, INSIDE, seed=30 + dim)
    assert max(_against_boosts(BallGyrogroup(dim, "mobius"), u, v, w)) > 1e9
    assert max(_against_phi(BallGyrogroup(dim, "einstein"), u, v, w)) > 1e6
    if dim == 2:
        assert max(_against_disk(BallGyrogroup(dim, "einstein"), u, v, w)) > 1e9


@pytest.mark.parametrize("variant, against", [
    ("einstein", _against_boosts), ("mobius", _against_phi),
    ("mobius", _against_disk)])
@pytest.mark.parametrize("dim", (1, 2))
def test_a_wrong_gyration_misses_the_models(variant, against, dim):
    u, v, w = _triples(dim, INSIDE, seed=40 + dim)
    wrong = WrongGyrationBall(u[0], dim=dim, variant=variant)
    sums, gyrations = against(wrong, u, v, w)
    assert sums <= 1 and gyrations > 1e3
