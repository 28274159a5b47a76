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

The kernels are evaluated coordinate-major: each public function reads its
arguments as arrays whose axis 0 indexes the coordinates, each coordinate
one contiguous row, so that per-point scalars such as |u|^2 broadcast along
whole rows and dot products sum over rows.  Results are point-major views (a
transpose) of coordinate-major memory, and so are the draws of
``sample_batch``, so a result or a slice of a draw passed back in is read
without a copy.  The kernels write only into their own temporaries, never
into an argument.  Every operation runs elementwise in the same order
whatever the memory layout of its inputs (C or Fortran order, strided
slices, results of earlier calls), and a point gives the same result alone
as within a batch, bit for bit.  Kernels make few numpy calls, with little
interpreter work: the two threads of ``core._run_blocks`` wait on each
other for the interpreter lock, which a thread takes back after each numpy
call (two threads each running the same triples in 2^15-, 2^14- and
2^12-triple blocks took 1.11, 1.47 and 3.0 times one thread's time, two
processes 1.00).  Plain ``out += u[i] * v[i]`` ran the 10^6-triple suite as
fast as kept temporaries, and a one-triple block 5 % faster.

A draw of ``sample_batch`` takes from its generator all the directions'
normals, point by point, then all the radii.  ``draw_plan`` gives the same
draw by blocks without holding it: ``core._walk`` draws the normals, then
the radii, a block at a time, recording the generator state at each
block's first normal and first radius (a normal takes a varying number of
words).  Each block is then drawn again from its states by the same
``_draw_directions`` and ``_draw_radii`` that ``sample_batch`` runs, into
a fresh array that lives as long as the check's work on that block, so
the sampled checks need memory for a block, not for the draw.

Equality is tolerance-based (``BallGyrogroup.eps`` = 1e-9); the boundary
margin (``BallGyrogroup.delta`` = 1e-6) is enforced when elements are
admitted through ``element``.  Both are fixed constants.  Interior
composites such as gyrations only require the strict domain |x| < 1, since
chains of additions of admissible points can approach the boundary beyond
any fixed margin.
"""

import numpy as np

from . import core
from .core import (GyrogroupCarrier, InvalidElementError, NumericalError,
                   Record)

DENOM_GUARD = 1e-15
PROBE_SCALE = 1e-3
SAMPLE_MAX_NORM = 0.99
# points per chunk of a draw of sample_batch
_DRAW_CHUNK = 2 ** 16


def _coords(dim, *points):
    """The points, each of ``dim`` coordinates (InvalidElementError
    otherwise), as coordinate-major float arrays padded to a common rank:
    axis 0 indexes the coordinates, each one contiguous row, so a single
    point (dim, 1) broadcasts against a batch (dim, N).  A point-major view
    of coordinate-major memory is taken back without a copy."""
    if not all(map(np.ndim, points)):
        raise InvalidElementError(f"expected dimension {dim}, got a scalar")
    arrays = [np.asarray(p, dtype=float) for p in points]
    rank = max([x.ndim for x in arrays])
    out = []
    for x in arrays:
        x = x if x.ndim == rank else x.reshape((1,) * (rank - x.ndim) + x.shape)
        x = x.T if rank < 3 else x.transpose((rank - 1, *range(rank - 1)))
        if len(x) != dim:
            raise InvalidElementError(f"expected dimension {dim}, got {len(x)}")
        if not x[0].flags.c_contiguous:
            x = np.ascontiguousarray(x)
        out.append(x)
    return out


def _points(x):
    """The point-major view (coordinates last) of a coordinate-major array."""
    return x.T if x.ndim < 3 else x.transpose((*range(1, x.ndim), 0))


def _dot(u, v):
    """<u, v> of coordinate-major points, summed row by row in coordinate
    order: a point gets the same sum alone as within a batch."""
    out = u[0] * v[0]
    for i in range(1, len(u)):
        out += u[i] * v[i]
    return out


def _pairwise_squares(u):
    """|u|^2 of coordinate-major points, summed in the order of numpy's
    pairwise sum over one point's squares, as ``np.linalg.norm(axis=-1)``
    takes it: in coordinate order below 8 coordinates, as 8 interleaved
    partial sums up to 128, and as the sum of two halves (cut at a multiple
    of 8) above.  On 2^16 points of dimension 3 it takes 0.21 ms, and
    ``np.linalg.norm`` on the point-major copy 1.28 ms (2-CPU Xeon)."""
    n = len(u)
    if n < 8:
        return _dot(u, u)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_squares(u[:half]) + _pairwise_squares(u[half:])
    full = n - n % 8
    r = [_dot(u[j:full:8], u[j:full:8]) for j in range(8)]
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in u[full:]:
        out += row * row
    return out


def _draw_directions(rng, out):
    """Fill the coordinate-major points ``out`` with uniform directions
    drawn from ``rng``, ``_DRAW_CHUNK`` points at a time: Gaussian normals,
    point by point, divided by their norms (Muller, 1959).  The norms are
    summed along the coordinate rows by ``_pairwise_squares``, which gives
    those of ``np.linalg.norm(axis=-1)`` bit for bit."""
    for lo in range(0, out.shape[1], _DRAW_CHUNK):
        g = out[:, lo:lo + _DRAW_CHUNK]
        g[...] = rng.standard_normal((g.shape[1], len(g))).T
        g /= np.sqrt(_pairwise_squares(g))


def _draw_radii(rng, out, max_norm):
    """Scale the directions ``out`` by radii drawn from ``rng``, one word
    each, ``_DRAW_CHUNK`` at a time, so that the points are uniform in the
    ball of radius ``max_norm``."""
    for lo in range(0, out.shape[1], _DRAW_CHUNK):
        g = out[:, lo:lo + _DRAW_CHUNK]
        g *= max_norm * rng.random(g.shape[1]) ** (1.0 / len(g))


def _norm(u):
    return np.linalg.norm(np.asarray(u, dtype=float), axis=-1)


def _squared_norm_in_ball(u):
    """|u|^2 of a coordinate-major point or batch; raises unless every
    |u| < 1."""
    nu2 = _dot(u, u)
    if np.count_nonzero(nu2 >= 1.0):
        raise InvalidElementError("argument outside the open unit ball")
    return nu2


def lorentz_gamma(u):
    """The Lorentz factor 1/sqrt(1 - |u|^2); raises unless u is finite with |u| < 1."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InvalidElementError("coordinates must be finite")
    nu2 = np.sum(u ** 2, axis=-1)
    if np.any(nu2 >= 1.0):
        raise NumericalError("Lorentz factor overflow: |u| >= 1")
    return 1.0 / np.sqrt(1.0 - nu2)


def _gram_defect(u, v):
    """|u|^2 |v|^2 - <u,v>^2 without cancellation: by the Lagrange identity,
    the sum of the squared 2 x 2 minors u_i v_j - u_j v_i over i < j."""
    if len(u) == 1:
        return np.zeros_like(u[0] * v[0])
    out = u[0] * v[1]
    out -= u[1] * v[0]
    out *= out
    for i in range(len(u)):
        for j in range(max(i + 1, 2), len(u)):  # minor (0, 1) began out
            minor = u[i] * v[j]
            minor -= u[j] * v[i]
            minor *= minor
            out += minor
    return out


def _mobius_den(u, v, uv):
    """1 + 2<u,v> + |u|^2 |v|^2 as (1 + <u,v>)^2 + (|u|^2 |v|^2 - <u,v>^2),
    which keeps its significant digits when u ~ -v near the boundary;
    ``uv`` is <u,v>.  The square is a product, as numpy squares an array:
    a numpy scalar's ``** 2`` rounds differently in the last bit."""
    den = 1 + uv
    den *= den
    den += _gram_defect(u, v)
    if np.count_nonzero(den < DENOM_GUARD):  # a sum of squares: never negative
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
    precision there.  Evaluated by ``BallGyrogroup.oplus``, domain checks
    included.
    """
    # a scalar u gets dimension 1, and oplus then refuses it as a scalar
    return BallGyrogroup(dim=(np.shape(u) or (1,))[-1], variant="mobius").oplus(u, v)


def _mobius_add(u, v, nu2):
    s = u + v
    den = _mobius_den(u, v, _dot(u, v))
    out = u * _dot(s, s)
    s *= 1 - nu2
    out += s
    out /= den
    return out


def einstein_add(u, v):
    """Evaluated in an algebraically identical cancellation-free form.

    Writing g2 = 1/(1 - |u|^2) = gamma_u^2 and t = <u,v>, the written
    formula regroups as

        [ (u + v)/gamma_u + C u ] / (1 + t),
        C = (g2 (1 + t) - 1) / (gamma_u (1 + gamma_u)),

    which avoids the loss of significance of the bracketed sum when
    u ~ -v near the boundary.  Evaluated by ``BallGyrogroup.oplus``,
    domain checks included.
    """
    return BallGyrogroup(dim=(np.shape(u) or (1,))[-1], variant="einstein").oplus(u, v)


def _einstein_add(u, v, nu2):
    g2 = 1.0 / (1.0 - nu2)
    gu = np.sqrt(g2)
    den = 1.0 + _dot(u, v)
    if np.count_nonzero(abs(den) < DENOM_GUARD):
        raise NumericalError("einstein denominator underflow")
    c = (g2 * den - 1.0) / (gu * (1.0 + gu))
    out = u + v
    out /= gu
    out += u * c
    out /= den
    return out


def _mobius_gyration(u, v, w, nu2, nv2):
    """Ungar's gyr[u, v]w = w + 2(A u + B v)/D on the Mobius ball."""
    uv = _dot(u, v)
    uw = _dot(u, w)
    vw = _dot(v, w)
    a = vw * (1 + 2 * uv) - uw * nv2
    b = -(vw * nu2 + uw)
    den = _mobius_den(u, v, uv)
    out = u * a
    out += v * b
    out *= 2
    out /= den
    out += w
    return out


def _to_mobius(u, nu2):
    """The Mobius point u/(1 + sqrt(1 - |u|^2)) of the Einstein point u,
    with its squared norm ``nu2`` = |u|^2 scaled alike."""
    k = 1.0 / (1.0 + np.sqrt(1.0 - nu2))
    return k * u, k * k * nu2


_ADDS = {"mobius": _mobius_add, "einstein": _einstein_add}


class BallGyrogroup(GyrogroupCarrier):
    """The open unit ball under Mobius or Einstein addition."""

    eps = 1e-9
    delta = 1e-6

    def __init__(self, dim=2, variant="mobius"):
        if variant not in _ADDS:
            raise ValueError(f"variant must be one of {sorted(_ADDS)}")
        self.dim = core._read_int(dim, "dim")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        self.variant = variant
        self._add = _ADDS[variant]
        zero = np.zeros(self.dim)
        zero.flags.writeable = False
        self.zero = zero

    def element(self, coords):
        """Admit a vector as a ball element; enforces finite coordinates and
        the boundary margin."""
        u = np.asarray(coords, dtype=float)
        if u.ndim == 0 or u.shape[-1] != self.dim:
            raise InvalidElementError(f"expected dimension {self.dim}, got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise InvalidElementError("coordinates must be finite")
        if np.any(_norm(u) >= 1.0 - self.delta):
            raise InvalidElementError(
                f"norm {float(np.max(_norm(u)))} >= 1 - delta ({1.0 - self.delta})")
        return u

    def oplus(self, u, v):
        u, v = _coords(self.dim, u, v)
        nu2 = _squared_norm_in_ball(u)
        _squared_norm_in_ball(v)
        out = self._add(u, v, nu2)
        if np.count_nonzero(_dot(out, out) >= 1.0):
            raise NumericalError(f"{self.variant} sum left the ball")
        return _points(out)

    def oinv(self, u):
        (u,) = _coords(self.dim, u)
        _squared_norm_in_ball(u)
        return _points(-u)

    def gyration(self, a, b, c):
        """gyr[a, b]c in closed form (see the module docstring)."""
        a, b, c = _coords(self.dim, a, b, c)
        na2 = _squared_norm_in_ball(a)
        nb2 = _squared_norm_in_ball(b)
        _squared_norm_in_ball(c)
        if self.variant == "einstein":
            a, na2 = _to_mobius(a, na2)
            b, nb2 = _to_mobius(b, nb2)
        return _points(_mobius_gyration(a, b, c, na2, nb2))

    def distance(self, u, v):
        u, v = _coords(self.dim, u, v)
        d = u - v
        return np.sqrt(_dot(d, d))

    def contains(self, u):
        (u,) = _coords(self.dim, u)
        return _dot(u, u) < 1.0

    def sample_batch(self, rng, count, max_norm=SAMPLE_MAX_NORM):
        """Uniform points of the ball scaled to norms <= max_norm.

        The point-major view of coordinate-major memory, as a kernel result
        is.  All the directions are drawn first (``_draw_directions``), then
        all the radii (``_draw_radii``), each ``_DRAW_CHUNK`` points at a
        time: the stream and the values of one draw of ``count`` points,
        without its full-size temporaries.  ``draw_plan`` gives the same
        points block by block without holding the draw."""
        out = np.empty((self.dim, count))
        _draw_directions(rng, out)
        _draw_radii(rng, out, max_norm)
        return out.T

    def draw_plan(self, rng, count, bounds):
        """The draw ``sample_batch(rng, count)`` planned by blocks (the
        carrier contract of ``core``; see the module docstring).  The redraw
        function returns block k drawn into a fresh array, point-major."""
        normals = core._walk(rng, bounds, lambda gen, n:
                             gen.standard_normal((n, self.dim)))
        radii = core._walk(rng, bounds, lambda gen, n: gen.random(n))

        def redraw(k):
            out = np.empty((self.dim, bounds[k + 1] - bounds[k]))
            _draw_directions(normals(k), out)
            _draw_radii(radii(k), out, SAMPLE_MAX_NORM)
            return out.T
        return redraw

    def __repr__(self):
        return f"BallGyrogroup(dim={self.dim}, variant={self.variant!r})"


class GyrationMatrix(Record):
    """Gyration extracted as a matrix, with empirical residuals.

    Linearity and orthogonality of ball gyrations are measured, never
    assumed: ``linearity_residual`` is the worst |gyr(a,b)c - M c| over the
    sampled c, ``orthogonality_residual`` is |M^T M - I| in Frobenius norm.
    """

    matrix: np.ndarray
    linearity_residual: float
    orthogonality_residual: float


def ball_gyration_matrix(carrier, a, b, samples, seed):
    """Assemble gyr[a, b] as a matrix from small probe vectors.

    Column j is gyr(a, b, s e_j) / s for s = ``PROBE_SCALE``, which keeps
    probes inside the ball for any admissible a, b while avoiding
    cancellation.  Raises ValueError unless ``samples`` is an integer >= 1,
    since no probe measures nothing, and unless ``seed`` is a non-negative
    integer.
    """
    samples = core._read_samples(samples)
    a = carrier.element(a)
    b = carrier.element(b)
    dim = carrier.dim
    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = PROBE_SCALE
        cols.append(core.gyration(carrier, a, b, e) / PROBE_SCALE)
    m = np.column_stack(cols)
    rng = np.random.default_rng(core._read_seed(seed))
    probes = carrier.sample_batch(rng, samples)
    images = core.gyration(carrier, a, b, probes)
    lin = float(np.max(_norm(images - probes @ m.T)))
    orth = float(np.linalg.norm(m.T @ m - np.eye(dim)))
    return GyrationMatrix(matrix=m, linearity_residual=lin,
                          orthogonality_residual=orth)


def check_ball_laws(carrier, samples, seed):
    """Sampled law suite for a ball carrier; returns worst residuals.

    Covers the axiom residuals (gyroassociativity, left loop, identity and
    inverses, automorphism property, closure) plus the four cancellation
    laws, all evaluated on ``samples`` random triples with norms <=
    ``SAMPLE_MAX_NORM`` drawn from the given seed.  Raises ValueError
    unless ``samples`` is an integer >= 1 and ``seed`` a non-negative
    integer.
    """
    return core.sampled_law_residuals(carrier, samples, seed)[0]
