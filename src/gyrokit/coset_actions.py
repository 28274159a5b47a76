"""Left-gyroaddition actions on coset spaces.

A carrier G acts on G/H by a.(x+H) = (a+x)+H exactly when every gyration
maps every coset into itself, which the paper splits into two conditions:

    (1) gyr[a, b](H) is contained in H for all a, b;
    (2) -x + gyr[a, b]x lies in H for all a, b, x.

(2) implies (1): for h in H, left cancellation gives
gyr[a, b]h = h + (-h + gyr[a, b]h), a sum of two members of H.

``coset_criterion`` decides (2) exhaustively for finite carriers and
computes (1) only to name a witness when (2) fails;
``coset_criterion_sampled`` covers sampleable carriers, H given as a
carrier.  It and ``self_action_possible_sampled`` take their draws block
by block, as the law suites do (``core._run_blocks``), holding none of
them.  When the criterion holds, ``build_coset_action`` constructs the
action and re-verifies the whole theorem package: well-definedness, the
action axioms, transitivity, stab(x+H) = conjugate of H by x,
non-semiregularity for H != {0}, and the index formula.
"""

import copy

import numpy as np

from .actions import build_representation, classify, validate_action
from .core import (Check, CriterionError, GyroError, Record, _first_worst,
                   _plan_triples, _read_members, _run_blocks, conjugate)
from .finite import _coset_table, is_subgyrogroup, left_cosets


def self_action_possible_sampled(carrier, samples, seed):
    """Sampled version for analytic carriers: searches for a nonidentity
    gyration among the carrier's own gyrations, one that moves some c by
    more than ``carrier.eps``, on the law suites' triples.  Returns
    (possible, witness_or_None); the witness is the first triple (a, b, c)
    whose gyration moves c the most, its points copies.  Raises ValueError
    unless ``samples`` is an integer >= 1."""
    _, _, bounds, plans = _plan_triples(carrier, samples, seed)

    def worst(a, b, c, lo, hi):
        d = np.asarray(carrier.distance(carrier.gyration(a, b, c), c))
        i = int(np.argmax(d))
        return float(d[i]), copy.deepcopy((a[i], b[i], c[i]))

    moved, witness = _first_worst(_run_blocks(plans, bounds, worst))
    if moved <= carrier.eps:
        return True, None
    return False, witness


class CriterionReport(Record):
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
    members = tuple(members)
    if not is_subgyrogroup(g, members):
        raise ValueError(f"{members} is not a subgyrogroup")
    w2 = g.defect_leak(members)
    w1 = None if w2 is None else g.gyration_leak(members)
    return CriterionReport(passed=w1 is None and w2 is None, mode="exhaustive",
                           condition_gyr_preserves_subgroup=w1 is None,
                           condition_translate_defect_in_subgroup=w2 is None,
                           witness1=w1, witness2=w2)


def coset_criterion_sampled(carrier, subgroup, samples, seed):
    """Sampled criterion for carriers that cannot be enumerated, on the
    carrier's own gyrations.

    ``subgroup`` is a carrier whose elements are elements of ``carrier``;
    its ``contains`` is the whole membership test, and it draws the
    subgroup sample h.  The triples (a, b, x) are the law suites'; h is
    drawn after them, a fourth ``draw_plan``, so each block of triples
    comes with its block of h and no draw is held.  Raises ValueError
    unless ``samples`` is an integer >= 1.
    """
    rng, samples, bounds, plans = _plan_triples(carrier, samples, seed)
    plans.append(subgroup.draw_plan(rng, samples, bounds))

    def conditions(a, b, x, h, lo, hi):
        img = carrier.gyration(a, b, h)
        defect = carrier.oplus(carrier.oinv(x), carrier.gyration(a, b, x))
        return [bool(np.all(subgroup.contains(y))) for y in (img, defect)]

    ok1, ok2 = map(all, zip(*_run_blocks(plans, bounds, conditions)))
    return CriterionReport(passed=ok1 and ok2, mode="sampled",
                           condition_gyr_preserves_subgroup=ok1,
                           condition_translate_defect_in_subgroup=ok2,
                           samples=samples, seed=seed)


def build_coset_action(g, members, criterion=None):
    """The transitive action of g on G/H by left gyroaddition.

    Refuses (CriterionError) unless the criterion holds -- in particular for
    non-L-subgyrogroups, whose cosets overlap.  ``criterion``, when given,
    is taken as H's report instead of computing it; all theorem-level
    postconditions are re-verified on the constructed table, so with a
    passing report of another H they refuse (GyroError) an H that fails.
    """
    members = tuple(members)
    report = criterion or coset_criterion(g, members)
    if not report.passed:
        part = left_cosets(g, members)
        extra = "" if part.is_partition else \
            f"; cosets overlap, witnesses {part.overlaps[:3]}"
        raise CriterionError(
            f"coset criterion fails for H={tuple(sorted(members))}: "
            f"gyr-invariance={report.condition_gyr_preserves_subgroup}, "
            f"translate-defect={report.condition_translate_defect_in_subgroup}"
            f"{extra}")
    part, coset_of, reps, act = _coset_table(g, members)
    if g.order != part.index * len(part.subgroup):
        raise GyroError("index formula |G| = [G:H] |H| failed")
    gset = validate_action(g, act, point_labels=tuple(int(r) for r in reps))
    flags = classify(gset)
    if not flags.transitive:
        raise GyroError("coset action is not transitive")
    if len(part.subgroup) > 1 and flags.semiregular:
        raise GyroError("coset action with H != {0} cannot be semiregular")
    # row i: H conjugated by representative i; each stabilizer has |H| members
    conj = np.sort(conjugate(g, reps[:, None], np.array(part.subgroup)), axis=1)
    bad = np.flatnonzero(
        (conj != np.array(gset.decomposition.stabilizers)).any(axis=1))
    if len(bad):
        raise GyroError(f"stab of coset {bad[0]} is not the conjugate of H")
    return gset


def induced_action_over_subgyrogroup(gset, members):
    """Transitive coset action on G/H for H containing the kernel of the
    action; the hypothesis is checked and named in the error when violated.

    Kernel containment is all the coset criterion needs.  Writing
    a + (b + c) = (a + b) + gyr[a, b]c and applying the action law to both
    sides gives sigma_a sigma_b sigma_c = sigma_a sigma_b
    sigma_(gyr[a, b]c), so sigma_(gyr[a, b]c) = sigma_c.  Then
    sigma_(-c + gyr[a, b]c) = sigma_(-c) sigma_c = sigma_0 = id: every
    translate defect lies in the kernel, hence in H, so (2) holds, and (2)
    implies (1).  ``build_coset_action`` still decides the criterion.
    """
    g = gset.carrier
    h = tuple(_read_members(g, members))
    missing = sorted(set(build_representation(gset).kernel) - set(h))
    if missing:
        raise CriterionError(
            f"hypothesis failed: kernel element {missing[0]} not in H")
    return build_coset_action(g, h)
