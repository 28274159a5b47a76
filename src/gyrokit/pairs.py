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

import numpy as np

from . import core
from .actions import validate_action
from .ball import BallGyrogroup
from .catalog import cyclic
from .core import GyrogroupCarrier, Record
from .coset_actions import coset_criterion_sampled
from .finite import validate_gyrogroup


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
    """Pairs (2-ball vector, rotation index mod m) under componentwise law."""

    eps = BallGyrogroup.eps

    def __init__(self, m=6, variant="mobius"):
        self.m = core._read_int(m, "m")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        self.ball = BallGyrogroup(dim=2, variant=variant)
        self.zero = PairElement(self.ball.zero, 0)

    def element(self, coords, rotation):
        rotation = core._read_int(rotation, "rotation")
        return PairElement(self.ball.element(coords), rotation % self.m)

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

    def contains(self, x):
        r = np.asarray(x.r)
        return self.ball.contains(x.u) & (r >= 0) & (r < self.m)

    def sample_batch(self, rng, count):
        return PairElement(self.ball.sample_batch(rng, count),
                           rng.integers(0, self.m, size=count))

    def draw_plan(self, rng, count, bounds):
        """The draw ``sample_batch(rng, count)``, planned by blocks (the
        carrier contract of ``core``): the ball's plan, then one pass over
        the rotation indices that records the generator state at the first
        index of each block.  Each redrawer draws block k's ball points by
        the ball's redrawer and its indices from that state."""
        ball = self.ball.draw_plan(rng, count, bounds)
        starts = []
        for lo, hi in zip(bounds, bounds[1:]):
            starts.append(rng.bit_generator.state)
            rng.integers(0, self.m, size=hi - lo)

        def redrawer():
            redraw_ball = ball()
            gen = np.random.Generator(type(rng.bit_generator)())

            def redraw(k):
                u = redraw_ball(k)
                gen.bit_generator.state = starts[k]
                return PairElement(u, gen.integers(0, self.m, size=len(u)))
            return redraw
        return redrawer

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

        Both hold exactly: a gyration keeps the rotation index of its
        argument, so every translate defect -z + gyr[x, y]z has rotation
        index -gamma + gamma = 0 and lies in B_hat.  The sampled check is a
        numeric cross-check of the implementation.
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


def check_pair_axioms(carrier, samples, seed):
    """Sampled axiom suite for the pair carrier; returns worst residuals.

    Rotation slots are compared exactly (a mismatch reports inf); ball slots
    contribute Euclidean residuals.  ``gyration_closed_form`` cross-checks
    the closed-form gyration against the gyrator identity.  Raises
    ValueError unless ``samples`` is an integer >= 1 and ``seed`` a
    non-negative integer.
    """
    return core.sampled_law_residuals(carrier, samples, seed)[0]


def rotation_quotient_gset(carrier):
    """The induced action of the rotation quotient: Z/m on m cosets.

    Exact finite shadow of the coset action; regular (sharply transitive)
    of degree m, which is testable with the action engine.
    """
    fg = validate_gyrogroup(cyclic(carrier.m))
    return validate_action(fg, fg.table)
