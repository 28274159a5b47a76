"""Mobius and Einstein gyrogroups on the open unit ball of R^n.

The two additions are evaluated exactly as written:

    mobius:    [(1 + 2<u,v> + |v|^2) u + (1 - |u|^2) v]
               / (1 + 2<u,v> + |u|^2 |v|^2)

    einstein:  (1 / (1 + <u,v>)) [u + v/g_u + (g_u/(1+g_u)) <u,v> u],
               g_u = 1 / sqrt(1 - |u|^2)

and each carrier supplies its gyrations in closed form (Ungar, Analytic
Hyperbolic Geometry, 2005):

    mobius:    gyr[u, v]w = w + 2(A u + B v) / D,
               A = -<u,w>|v|^2 + <v,w> + 2<u,v><v,w>,
               B = -<v,w>|u|^2 - <u,w>,
               D = 1 + 2<u,v> + |u|^2 |v|^2

    einstein:  the Mobius form at u/(1 + sqrt(1 - |u|^2)) and
               v/(1 + sqrt(1 - |v|^2)), the Mobius points the isomorphism
               x -> 2x/(1 + |x|^2) sends to u and v; it commutes with
               rotations, so w itself is not mapped.

The law suites cross-check these against the gyrator identity of
``core.gyration`` on every sampled triple.

All functions broadcast over leading axes, so a "point" may be a single
vector of shape (dim,) or a batch of shape (N, dim).  Results are never
clamped: a sum with norm >= 1 signals a numerical error.

The kernels are evaluated coordinate-major: each public function copies
its arguments once into arrays whose axis 0 indexes the coordinates, each
coordinate one contiguous row, so that per-point scalars such as |u|^2
broadcast along whole rows and dot products sum over rows.  Results are
point-major views (``np.moveaxis``) of coordinate-major memory, so a
result passed back in is read without a copy.  Every operation runs
elementwise in the same order whatever the memory layout of its inputs
(C or Fortran order, strided slices, results of earlier calls), and gives
bitwise-equal results on all of them.

Equality is tolerance-based (default 1e-9); the boundary margin (default
1e-6) is enforced when elements are admitted through ``element``.  Interior
composites such as gyrations only require the strict domain |x| < 1, since
chains of additions of admissible points can approach the boundary beyond
any fixed margin.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .core import GyrogroupCarrier, InvalidElementError, NumericalError

EPS_DEFAULT = 1e-9
DELTA_DEFAULT = 1e-6
DENOM_GUARD = 1e-15
PROBE_SCALE = 1e-3
SAMPLE_MAX_NORM = 0.99


def _coords(*points):
    """The points as coordinate-major float arrays, padded to a common rank:
    axis 0 indexes the coordinates, and each coordinate is one contiguous
    row, so a single point (dim, 1) broadcasts against a batch (dim, N).  A
    point-major view of coordinate-major memory (a kernel result) is taken
    back without a copy."""
    arrays = [np.asarray(p, dtype=float) for p in points]
    rank = max(x.ndim for x in arrays)
    return [np.ascontiguousarray(np.moveaxis(
        x.reshape((1,) * (rank - x.ndim) + x.shape), -1, 0)) for x in arrays]


def _points(x):
    """The point-major view (coordinates last) of a coordinate-major array."""
    return np.moveaxis(x, 0, -1)


def _dot(u, v):
    """<u, v> of coordinate-major points, summed row by row in coordinate
    order: a point gets the same sum alone as within a batch."""
    out = u[0] * v[0]
    for i in range(1, len(u)):
        out += u[i] * v[i]
    return out


def _norm(u):
    return np.linalg.norm(np.asarray(u, dtype=float), axis=-1)


def _squared_norm_in_ball(u):
    """|u|^2 of a coordinate-major point or batch; raises unless every
    |u| < 1."""
    nu2 = _dot(u, u)
    if np.any(nu2 >= 1.0):
        raise InvalidElementError("argument outside the open unit ball")
    return nu2


def lorentz_gamma(u):
    """The Lorentz factor 1/sqrt(1 - |u|^2); raises on |u| >= 1."""
    nu2 = np.sum(np.asarray(u, dtype=float) ** 2, axis=-1)
    if np.any(nu2 >= 1.0):
        raise NumericalError("Lorentz factor overflow: |u| >= 1")
    return 1.0 / np.sqrt(1.0 - nu2)


def _gram_defect(u, v):
    """|u|^2 |v|^2 - <u,v>^2 without cancellation: by the Lagrange identity,
    the sum of the squared 2 x 2 minors u_i v_j - u_j v_i over i < j."""
    out = 0.0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            minor = u[i] * v[j] - u[j] * v[i]
            out = out + minor * minor
    return out


def _mobius_den(u, v, uv):
    """1 + 2<u,v> + |u|^2 |v|^2 as (1 + <u,v>)^2 + (|u|^2 |v|^2 - <u,v>^2),
    which keeps its significant digits when u ~ -v near the boundary;
    ``uv`` is <u,v>."""
    den = (1.0 + uv) ** 2 + _gram_defect(u, v)
    if np.any(np.abs(den) < DENOM_GUARD):
        raise NumericalError("mobius denominator underflow")
    return den


def mobius_add(u, v):
    """Evaluated in an algebraically identical cancellation-free form.

    With s = u + v the written formula regroups as

        [(1 - |u|^2) s + |s|^2 u] / [(1 + <u,v>)^2 + (|u|^2 |v|^2 - <u,v>^2)]

    (expand |s|^2 = |u|^2 + 2<u,v> + |v|^2 to recover the textbook numerator
    and denominator termwise).  Near-boundary gyration chains hit the regime
    u ~ -v, where the literal denominator 1 + 2<u,v> + |u|^2 |v|^2 loses all
    significant digits; this arrangement keeps relative error near machine
    precision there.
    """
    u, v = _coords(u, v)
    return _points(_mobius_add(u, v, _dot(u, u)))


def _mobius_add(u, v, nu2):
    s = u + v
    den = _mobius_den(u, v, _dot(u, v))
    return ((1.0 - nu2) * s + _dot(s, s) * u) / den


def einstein_add(u, v):
    """Evaluated in an algebraically identical cancellation-free form.

    Writing g2 = 1/(1 - |u|^2) = gamma_u^2 and t = <u,v>, the written
    formula regroups as

        [ (u + v)/gamma_u + C u ] / (1 + t),
        C = (g2 (1 + t) - 1) / (gamma_u (1 + gamma_u)),

    which avoids the loss of significance of the bracketed sum when
    u ~ -v near the boundary.
    """
    u, v = _coords(u, v)
    return _points(_einstein_add(u, v, _dot(u, u)))


def _einstein_add(u, v, nu2):
    if np.any(nu2 >= 1.0):
        raise NumericalError("Lorentz factor overflow: |u| >= 1")
    g2 = 1.0 / (1.0 - nu2)
    gu = np.sqrt(g2)
    den = 1.0 + _dot(u, v)
    if np.any(np.abs(den) < DENOM_GUARD):
        raise NumericalError("einstein denominator underflow")
    c = (g2 * den - 1.0) / (gu * (1.0 + gu))
    return ((u + v) / gu + c * u) / den


def _mobius_gyration(u, v, w, nu2, nv2):
    """Ungar's gyr[u, v]w = w + 2(A u + B v)/D on the Mobius ball."""
    uv = _dot(u, v)
    uw = _dot(u, w)
    vw = _dot(v, w)
    a = vw * (1.0 + 2.0 * uv) - uw * nv2
    b = -(vw * nu2 + uw)
    return w + 2.0 * (a * u + b * v) / _mobius_den(u, v, uv)


def _to_mobius(u, nu2):
    """The Mobius point u/(1 + sqrt(1 - |u|^2)) of the Einstein point u,
    with its squared norm ``nu2`` = |u|^2 scaled alike."""
    k = 1.0 / (1.0 + np.sqrt(1.0 - nu2))
    return k * u, k * k * nu2


_ADDS = {"mobius": _mobius_add, "einstein": _einstein_add}


class BallGyrogroup(GyrogroupCarrier):
    """The open unit ball under Mobius or Einstein addition."""

    def __init__(self, dim=2, variant="mobius", eps=EPS_DEFAULT,
                 delta=DELTA_DEFAULT):
        if variant not in _ADDS:
            raise ValueError(f"variant must be one of {sorted(_ADDS)}")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.variant = variant
        self.eps = eps
        self.delta = delta
        self._add = _ADDS[variant]
        zero = np.zeros(dim)
        zero.flags.writeable = False
        self.zero = zero

    def element(self, coords):
        """Admit a vector as a ball element; enforces finite coordinates and
        the boundary margin."""
        u = np.asarray(coords, dtype=float)
        if u.shape[-1] != self.dim:
            raise InvalidElementError(f"expected dimension {self.dim}, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise InvalidElementError("coordinates must be finite")
        if np.any(_norm(u) >= 1.0 - self.delta):
            raise InvalidElementError(
                f"norm {float(np.max(_norm(u)))} >= 1 - delta ({1.0 - self.delta})")
        return u

    def _checked_coords(self, *points):
        """``_coords`` of points that each have ``dim`` coordinates."""
        out = _coords(*points)
        for x in out:
            if len(x) != self.dim:
                raise InvalidElementError(
                    f"expected dimension {self.dim}, got {len(x)}")
        return out

    def oplus(self, u, v):
        u, v = self._checked_coords(u, v)
        nu2 = _squared_norm_in_ball(u)
        _squared_norm_in_ball(v)
        out = self._add(u, v, nu2)
        if np.any(_dot(out, out) >= 1.0):
            raise NumericalError(f"{self.variant} sum left the ball")
        return _points(out)

    def oinv(self, u):
        (u,) = self._checked_coords(u)
        _squared_norm_in_ball(u)
        return _points(-u)

    def gyration(self, a, b, c):
        """gyr[a, b]c in closed form (see the module docstring)."""
        a, b, c = self._checked_coords(a, b, c)
        na2 = _squared_norm_in_ball(a)
        nb2 = _squared_norm_in_ball(b)
        _squared_norm_in_ball(c)
        if self.variant == "einstein":
            a, na2 = _to_mobius(a, na2)
            b, nb2 = _to_mobius(b, nb2)
        return _points(_mobius_gyration(a, b, c, na2, nb2))

    def distance(self, u, v):
        u, v = self._checked_coords(u, v)
        d = u - v
        return np.sqrt(_dot(d, d))

    def equals(self, u, v):
        return bool(np.all(self.distance(u, v) <= self.eps))

    def contains(self, u):
        (u,) = self._checked_coords(u)
        return _dot(u, u) < 1.0

    def sample(self, rng, max_norm=SAMPLE_MAX_NORM):
        return self.sample_batch(rng, 1, max_norm)[0]

    def sample_batch(self, rng, count, max_norm=SAMPLE_MAX_NORM):
        """Uniform points of the ball scaled to norms <= max_norm."""
        g = rng.standard_normal((count, self.dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        g *= max_norm * rng.random((count, 1)) ** (1.0 / self.dim)
        return g

    def __repr__(self):
        return f"BallGyrogroup(dim={self.dim}, variant={self.variant!r})"


@dataclass(frozen=True)
class GyrationMatrix:
    """Gyration extracted as a matrix, with empirical residuals.

    Linearity and orthogonality of ball gyrations are measured, never
    assumed: ``linearity_residual`` is the worst |gyr(a,b)c - M c| over the
    sampled c, ``orthogonality_residual`` is |M^T M - I| in Frobenius norm.
    """

    matrix: np.ndarray
    linearity_residual: float
    orthogonality_residual: float
    samples: int
    seed: int
    probe_scale: float


def ball_gyration_matrix(carrier, a, b, samples, seed, probe_scale=PROBE_SCALE):
    """Assemble gyr[a, b] as a matrix from small probe vectors.

    Column j is gyr(a, b, s e_j) / s.  The probe scale keeps probes inside
    the ball for any admissible a, b while avoiding cancellation.
    """
    a = carrier.element(a)
    b = carrier.element(b)
    dim = carrier.dim
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = probe_scale
        cols.append(core.gyration(carrier, a, b, e) / probe_scale)
    m = np.column_stack(cols)
    rng = np.random.default_rng(seed)
    probes = carrier.sample_batch(rng, samples)
    images = core.gyration(carrier, a, b, probes)
    lin = float(np.max(_norm(images - probes @ m.T))) if samples else 0.0
    orth = float(np.linalg.norm(m.T @ m - np.eye(dim)))
    return GyrationMatrix(matrix=m, linearity_residual=lin,
                          orthogonality_residual=orth, samples=samples,
                          seed=seed, probe_scale=probe_scale)


def check_ball_laws(carrier, samples, seed, max_norm=SAMPLE_MAX_NORM):
    """Sampled law suite for a ball carrier; returns worst residuals.

    Covers the axiom residuals (gyroassociativity, left loop, identity and
    inverses, automorphism property, closure) plus the four cancellation
    laws, all evaluated on ``samples`` random triples with norms <= max_norm
    drawn from the given seed.  Raises ValueError when ``samples`` < 1.
    """
    return core.sampled_law_residuals(carrier, samples, seed, max_norm)[0]
