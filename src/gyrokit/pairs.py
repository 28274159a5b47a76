"""The pair carrier B² × Z_m, the direct product of the 2-ball and Z_m.

A pair (a, k) is a point a of the Möbius or Einstein 2-ball and an index k
of Z_m.  Every operation is componentwise, by ``BallGyrogroup(2, variant)``
and by the finite carrier ``validate_gyrogroup(cyclic(m))``, certified once:

    (a, j) + (b, k) = (a + b, j + k mod m),
    gyr[(a, j), (b, k)](c, l) = (gyr[a, b]c, l),

as the gyrations of Z_m are the identity.  The distance of two pairs is
the larger of their slots' distances, >= 1.0 for different indices.  This is
not Ungar's gyrosemidirect product ("Analytic Hyperbolic Geometry", 2005),
in which (a, j) is "rotate by 2*pi*j/m, then translate by a", so that
(a, j) + (b, k) = (a + R_j b, j + k): the index never acts on the ball.

B_hat = B² × {0}, the kernel of the projection onto Z_m, has exactly m
left cosets, one per index, on which left gyroaddition acts as Z_m acts on
itself.  It is the carrier ``PairGyrogroup(1, variant)``, ``hat``.
"""

from functools import cached_property

import numpy as np

from . import core
from .actions import validate_action
from .ball import BallGyrogroup
from .catalog import cyclic
from .core import GyrogroupCarrier, Record
from .coset_actions import coset_criterion_sampled
from .finite import validate_gyrogroup

# the largest m: Z_m validates in 0.08 s at 256, 5.6 s at 1024 (2 CPUs)
MAX_M = 256


class PairElement(Record):
    """A (ball vector, rotation index) pair; fields may be batched."""

    u: np.ndarray
    r: object  # int or integer array

    def __iter__(self):
        return iter((self.u, self.r))

    def __getitem__(self, key):
        """The pair, or batch of pairs, at ``key`` of a batch."""
        return PairElement(self.u[key], np.asarray(self.r)[key])


class PairGyrogroup(GyrogroupCarrier):
    """B² × Z_m, the direct product of ``ball`` and ``rotations``.  Raises
    ValueError unless m is an integer in 1..``MAX_M``."""

    eps = BallGyrogroup.eps

    def __init__(self, m=6, variant="mobius"):
        self.m = core._read_int(m, "m")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.m > MAX_M:
            raise ValueError(f"m {self.m} is above the bound {MAX_M}")
        self.ball = BallGyrogroup(dim=2, variant=variant)
        self.rotations = validate_gyrogroup(cyclic(self.m))
        self.zero = PairElement(self.ball.zero, self.rotations.zero)

    def element(self, coords, rotation):
        rotation = core._read_int(rotation, "rotation")
        return PairElement(self.ball.element(coords), rotation % self.m)

    def oplus(self, x, y):
        return PairElement(self.ball.oplus(x.u, y.u),
                           self.rotations.oplus(x.r, y.r))

    def oinv(self, x):
        return PairElement(self.ball.oinv(x.u), self.rotations.oinv(x.r))

    def gyration(self, x, y, z):
        return PairElement(self.ball.gyration(x.u, y.u, z.u),
                           self.rotations.gyration(x.r, y.r, z.r))

    def distance(self, x, y):
        return np.maximum(self.ball.distance(x.u, y.u),
                          self.rotations.distance(x.r, y.r))

    def contains(self, x):
        return self.ball.contains(x.u) & self.rotations.contains(x.r)

    def sample_batch(self, rng, count):
        return PairElement(self.ball.sample_batch(rng, count),
                           self.rotations.sample_batch(rng, count))

    def draw_plan(self, rng, count, bounds):
        """The ball's plan, then the rotations' (the carrier contract of
        ``core``), as ``sample_batch`` draws the points, then the indices."""
        plans = (self.ball.draw_plan(rng, count, bounds),
                 self.rotations.draw_plan(rng, count, bounds))
        return lambda k: PairElement(*(plan(k) for plan in plans))

    # -- B_hat coset machinery -------------------------------------------

    @cached_property
    def hat(self):
        """B_hat = B² × {0} as a carrier, ``PairGyrogroup(1, variant)``: it
        draws the ball's points, all at index 0, as Z_1 draws nothing."""
        return PairGyrogroup(1, self.ball.variant)

    def hat_coset_index(self, x):
        """Index of the left coset x + B_hat: its rotation index, since
        (a, k) + (w, 0) = (a + w, k), so there are m cosets."""
        return x.r

    def verify_hat_criterion(self, samples, seed):
        """The sampled coset criterion for B_hat, ``PairGyrogroup(1,
        variant)``, as a report dict: that of
        ``coset_criterion_sampled(self, self.hat, samples, seed)``.

        Condition 1: gyrations map B_hat into B_hat.
        Condition 2: -z + gyr[x, y]z lands in B_hat for all x, y, z.

        Both hold exactly: B_hat is the kernel of the projection p onto Z_m,
        which maps gyr[x, y] to a gyration of Z_m, the identity, so
        p(gyr[x, y]z) = p(z) and p(-z + gyr[x, y]z) = 0.  The sampled check
        is a numeric cross-check of the implementation.
        """
        return coset_criterion_sampled(self, self.hat, samples, seed).as_dict()

    def hat_coset_action(self, g, coset_index):
        """Left gyroaddition on the coset space: g = (a, j) sends coset k to
        j + k.  That this is an action is the coset criterion for B_hat =
        PairGyrogroup(1, variant), which ``verify_hat_criterion`` checks."""
        return (np.asarray(g.r) + coset_index) % self.m

    def __repr__(self):
        return f"PairGyrogroup(m={self.m}, variant={self.ball.variant!r})"


def check_pair_axioms(carrier, samples, seed):
    """Sampled axiom suite for the pair carrier; returns worst residuals,
    each law's the larger of its two slots' (``distance``).
    ``gyration_closed_form`` cross-checks the closed-form gyration against
    the gyrator identity.  Raises ValueError unless ``samples`` is an
    integer >= 1 and ``seed`` a non-negative integer.
    """
    return core.sampled_law_residuals(carrier, samples, seed)[0]


def rotation_quotient_gset(carrier):
    """The induced action of the rotation quotient on the m cosets: the
    regular action of ``carrier.rotations``, Z_m on itself.  Exact finite
    shadow of the coset action, testable with the action engine."""
    return validate_action(carrier.rotations, carrier.rotations.table)
