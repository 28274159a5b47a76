"""Left-gyroaddition actions on coset spaces.

A carrier G acts on G/H by a.(x+H) = (a+x)+H exactly when every gyration
maps every coset into itself, which decomposes into two checkable
conditions:

    (1) gyr[a, b](H) is contained in H for all a, b;
    (2) -x + gyr[a, b]x lies in H for all a, b, x.

``coset_criterion`` decides them exhaustively for finite carriers (cheaper
than coset-wise set comparison and matching the proof structure);
``coset_criterion_sampled`` covers sampleable carriers.  When the criterion
holds, ``build_coset_action`` constructs the action and re-verifies the
whole theorem package: well-definedness, the action axioms, transitivity,
stab(x+H) = conjugate of H by x, non-semiregularity for H != {0}, and the
index formula.
"""

from dataclasses import dataclass

import numpy as np

from .actions import build_representation, classify, validate_action
from .core import (Check, CriterionError, GyroError, _sample_triples,
                   conjugate_set)
from .finite import is_subgyrogroup, left_cosets


def self_action_witness(g):
    """A triple (a, b, c) with gyr[a, b]c != c, or None if all gyrations
    are the identity (i.e. a.x = a + x really is an action)."""
    return g.nontrivial_gyration()


def self_action_possible(g):
    """True iff left gyroaddition on the carrier itself is an action,
    equivalently iff every gyration is the identity."""
    return self_action_witness(g) is None


def self_action_possible_sampled(carrier, samples, seed, tol=None):
    """Sampled version for analytic carriers: searches for a nonidentity
    gyration among the carrier's own gyrations.  Returns (possible,
    witness_or_None); the witness is the triple (a, b, c) whose gyration
    moves c the most.  Raises ValueError when ``samples`` < 1."""
    if tol is None:
        tol = getattr(carrier, "eps", 1e-9)
    _, a, b, c = _sample_triples(carrier, samples, seed)
    d = np.asarray(carrier.distance(carrier.gyration(a, b, c), c))
    worst = int(np.argmax(d))
    if float(d[worst]) <= tol:
        return True, None
    return False, (a[worst], b[worst], c[worst])


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the two-condition coset criterion."""

    passed: bool
    mode: str
    condition_gyr_preserves_subgroup: bool
    condition_translate_defect_in_subgroup: bool
    witness1: tuple | None = None
    witness2: tuple | None = None
    samples: int | None = None
    seed: int | None = None

    def as_check(self):
        """The verdict as a Check; the witnesses are those of the conditions
        that fail, in condition order."""
        return Check(
            "coset_criterion", self.passed,
            [list(w) for w in (self.witness1, self.witness2)
             if w is not None] or None,
            seed=self.seed, samples=self.samples,
            detail={"mode": self.mode,
                    "condition_gyr_preserves_subgroup":
                        self.condition_gyr_preserves_subgroup,
                    "condition_translate_defect_in_subgroup":
                        self.condition_translate_defect_in_subgroup})

    def as_dict(self):
        return self.as_check().as_dict()


def coset_criterion(g, members):
    """Exhaustive criterion for a subgyrogroup of a finite carrier."""
    if not is_subgyrogroup(g, members):
        raise ValueError(f"{tuple(members)} is not a subgyrogroup")
    w1 = g.gyration_leak(members)
    w2 = g.defect_leak(members)
    return CriterionReport(passed=w1 is None and w2 is None, mode="exhaustive",
                           condition_gyr_preserves_subgroup=w1 is None,
                           condition_translate_defect_in_subgroup=w2 is None,
                           witness1=w1, witness2=w2)


def coset_criterion_sampled(carrier, in_subgroup, sample_subgroup,
                            samples, seed):
    """Sampled criterion for carriers that cannot be enumerated, on the
    carrier's own gyrations.

    ``in_subgroup``     -- vectorised membership predicate
    ``sample_subgroup`` -- (rng, count) -> batch of subgroup elements

    Raises ValueError when ``samples`` < 1.
    """
    rng, a, b, x = _sample_triples(carrier, samples, seed)
    h = sample_subgroup(rng, samples)
    img = carrier.gyration(a, b, h)
    ok1 = bool(np.all(in_subgroup(img))) and bool(np.all(carrier.contains(img)))
    defect = carrier.oplus(carrier.oinv(x), carrier.gyration(a, b, x))
    ok2 = bool(np.all(in_subgroup(defect))) \
        and bool(np.all(carrier.contains(defect)))
    return CriterionReport(passed=ok1 and ok2, mode="sampled",
                           condition_gyr_preserves_subgroup=ok1,
                           condition_translate_defect_in_subgroup=ok2,
                           samples=samples, seed=seed)


def build_coset_action(g, members, criterion=None):
    """The transitive action of g on G/H by left gyroaddition.

    Refuses (CriterionError) unless the criterion holds -- in particular for
    non-L-subgyrogroups, whose cosets overlap.  All theorem-level
    postconditions are re-verified on the constructed table.
    """
    report = criterion or coset_criterion(g, members)
    part = left_cosets(g, members)
    if not report.passed:
        extra = "" if part.is_partition else \
            f"; cosets overlap, witnesses {part.overlaps[:3]}"
        raise CriterionError(
            f"coset criterion fails for H={tuple(sorted(members))}: "
            f"gyr-invariance={report.condition_gyr_preserves_subgroup}, "
            f"translate-defect={report.condition_translate_defect_in_subgroup}"
            f"{extra}")
    if not (part.is_partition and part.equal_sizes):
        raise GyroError("criterion passed but cosets do not partition")
    if g.order != part.index * len(part.subgroup):
        raise GyroError("index formula |G| = [G:H] |H| failed")
    coset_of = np.array(part.coset_of)
    reps = np.array(part.representatives)
    act = coset_of[g.table[:, reps]]
    # representative independence: a.(x+H) may not depend on x within a coset
    if not np.array_equal(coset_of[g.table], act[:, coset_of]):
        a, x = map(int, np.argwhere(coset_of[g.table] != act[:, coset_of])[0])
        raise GyroError(f"coset action ill-defined at a={a}, x={x}")
    gset = validate_action(g, act, point_labels=tuple(int(r) for r in reps))
    flags = classify(gset)
    if not flags.transitive:
        raise GyroError("coset action is not transitive")
    if len(part.subgroup) > 1 and flags.semiregular:
        raise GyroError("coset action with H != {0} cannot be semiregular")
    h = sorted(part.subgroup)
    stabs = gset.decomposition.stabilizers
    for i, rep in enumerate(part.representatives):
        if stabs[i] != conjugate_set(g, int(rep), h):
            raise GyroError(f"stab of coset {i} is not the conjugate of H")
    return gset


def induced_action_over_subgyrogroup(gset, members):
    """Transitive coset action on G/H for H containing the kernel and
    invariant under all gyrations; both hypotheses are checked and named
    in the error when violated."""
    g = gset.carrier
    h = tuple(sorted(set(int(x) for x in members)))
    report = coset_criterion(g, h)
    missing = sorted(set(build_representation(gset).kernel) - set(h))
    if missing:
        raise CriterionError(
            f"hypothesis failed: kernel element {missing[0]} not in H")
    if report.witness1 is not None:
        a, b, x = report.witness1
        raise CriterionError(f"hypothesis failed: gyr[{a},{b}]({x}) leaves H")
    if not report.passed:
        raise GyroError("criterion must hold under the verified hypotheses")
    return build_coset_action(g, h, criterion=report)
