"""Pairs (ball vector, planar rotation) as a nondegenerate gyrogroup.

A pair (a, alpha) stands for the permutation "rotate by alpha, then
translate by a" of the 2-ball; the identity-fixing part is restricted to
the finite cyclic group of rotations by multiples of 2*pi/m, which composes
by adding indices mod m.  The operation

    (a, alpha) + (b, beta) = (a + b, alpha . beta)

combines the translation parameters through the ball addition directly (the
rotation does not act on b), and the gyration carries the ball gyration in
the first slot while leaving the rotation slot of its argument untouched:

    gyr[(a,alpha), (b,beta)] (c, gamma) = (gyr[a,b]c, gamma).

Restricting the identity-fixing permutations to a finite rotation group is
an implementation choice: the full group of such permutations is not
representable, while rotations compose finitely and the closure of the
operation on this subset is verified by the sampled axiom suite, never
assumed.

The translation part B_hat = {(a, id)} has exactly m left cosets, one per
rotation index, on which left gyroaddition acts transitively.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .ball import SAMPLE_MAX_NORM, BallGyrogroup
from .core import GyrogroupCarrier
from .coset_actions import coset_criterion_sampled


@dataclass(frozen=True)
class PairElement:
    """A (ball vector, rotation index) pair; fields may be batched."""

    u: np.ndarray
    r: object  # int or integer array

    def __iter__(self):
        return iter((self.u, self.r))

    def __getitem__(self, key):
        """The pair, or batch of pairs, at ``key`` of a batch."""
        return PairElement(self.u[key], np.asarray(self.r)[key])


class PairGyrogroup(GyrogroupCarrier):
    """Pairs (2-ball vector, rotation index mod m) under componentwise law."""

    def __init__(self, m=6, variant="mobius", eps=None, delta=None):
        if m < 1:
            raise ValueError("m must be >= 1")
        kw = {}
        if eps is not None:
            kw["eps"] = eps
        if delta is not None:
            kw["delta"] = delta
        self.ball = BallGyrogroup(dim=2, variant=variant, **kw)
        self.m = m
        self.eps = self.ball.eps
        self.zero = PairElement(self.ball.zero, 0)

    def element(self, coords, rotation):
        return PairElement(self.ball.element(coords), int(rotation) % self.m)

    def oplus(self, x, y):
        return PairElement(self.ball.oplus(x.u, y.u), (x.r + y.r) % self.m)

    def oinv(self, x):
        return PairElement(self.ball.oinv(x.u), (-x.r) % self.m)

    def gyration(self, x, y, z):
        """gyr[x, y]z = (gyr_ball[x.u, y.u]z.u, z.r), the ball part in closed
        form."""
        return PairElement(self.ball.gyration(x.u, y.u, z.u), z.r)

    def distance(self, x, y):
        d = self.ball.distance(x.u, y.u)
        return np.where(np.asarray(x.r) != np.asarray(y.r), np.inf, d)

    def equals(self, x, y):
        return bool(np.all(self.distance(x, y) <= self.eps))

    def contains(self, x):
        return np.all(self.ball.contains(x.u)) and \
            bool(np.all((np.asarray(x.r) >= 0) & (np.asarray(x.r) < self.m)))

    def sample(self, rng, max_norm=SAMPLE_MAX_NORM):
        return PairElement(self.ball.sample(rng, max_norm),
                           int(rng.integers(self.m)))

    def sample_batch(self, rng, count, max_norm=SAMPLE_MAX_NORM):
        return PairElement(self.ball.sample_batch(rng, count, max_norm),
                           rng.integers(0, self.m, size=count))

    # -- B_hat coset machinery -------------------------------------------

    def in_hat(self, x):
        """Membership in B_hat = {(w, id)}, the translation part."""
        return np.asarray(x.r) == 0

    def hat_coset_index(self, x):
        """Index of the left coset x + B_hat.

        Since (a, alpha) + (w, id) = (a + w, alpha), a coset is exactly the
        set of pairs sharing one rotation index, so there are m cosets.
        """
        return x.r

    def sample_hat(self, rng, count):
        """A batch of ``count`` elements of B_hat: ball points with the
        identity rotation."""
        return PairElement(self.ball.sample_batch(rng, count),
                           np.zeros(count, dtype=np.int64))

    def verify_hat_criterion(self, samples, seed):
        """The sampled coset criterion for B_hat, as a report dict: that of
        ``coset_criterion_sampled(self, self.in_hat, self.sample_hat,
        samples, seed)``.

        Condition 1: gyrations map B_hat into B_hat.
        Condition 2: -z + gyr[x, y]z lands in B_hat for all x, y, z.
        """
        return coset_criterion_sampled(self, self.in_hat, self.sample_hat,
                                       samples, seed).as_dict()

    def hat_coset_action(self, g, coset_index):
        """Left gyroaddition on the coset space: g = (a, alpha) sends coset
        k to alpha . k.  That this is an action is the coset criterion for
        B_hat, which ``coset_criterion_sampled`` checks with ``in_hat`` and
        ``sample_hat``."""
        return (np.asarray(g.r) + coset_index) % self.m

    def __repr__(self):
        return f"PairGyrogroup(m={self.m}, variant={self.ball.variant!r})"


def check_pair_axioms(carrier, samples, seed, max_norm=SAMPLE_MAX_NORM):
    """Sampled axiom suite for the pair carrier; returns worst residuals.

    Rotation slots are compared exactly (a mismatch reports inf); ball slots
    contribute Euclidean residuals.  ``gyration_closed_form`` cross-checks
    the closed-form gyration against the gyrator identity.  Raises
    ValueError when ``samples`` < 1.
    """
    return core.sampled_law_residuals(carrier, samples, seed, max_norm)[0]


def rotation_quotient_gset(carrier):
    """The induced action of the rotation quotient: Z/m on m cosets.

    Exact finite shadow of the coset action; regular (sharply transitive)
    of degree m, which is testable with the action engine.
    """
    from .actions import validate_action
    from .catalog import cyclic
    from .finite import validate_gyrogroup

    m = carrier.m
    fg = validate_gyrogroup(cyclic(m))
    table = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    return validate_action(fg, table)
