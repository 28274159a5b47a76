"""Left gyroaddition on coset spaces: when it works and when it cannot.

A gyrogroup rarely acts on itself by plain left addition; the right home
for left gyroaddition is a coset space G/H, and exactly for those H whose
cosets every gyration preserves.  The pair carrier (ball vector, rotation)
shows the same story on an uncountable carrier with finitely many cosets.
"""

from gyrokit import (CriterionError, build_coset_action, classify,
                     coset_criterion, coset_criterion_sampled,
                     orbits_and_stabilizers, self_action_possible,
                     self_action_witness, validate_gyrogroup)
from gyrokit.catalog import cyclic, twisted21
from gyrokit.pairs import PairGyrogroup, check_pair_axioms

print("=" * 70)
print("1. Can G act on itself by a . x = a + x ?")
print("=" * 70)

z6 = validate_gyrogroup(cyclic(6))
t21 = validate_gyrogroup(twisted21())
print(f"  Z/6 (a group):        {self_action_possible(z6)}")
w = self_action_witness(t21)
print(f"  order-21 carrier:     {self_action_possible(t21)}, "
      f"witness gyr[{w[0]},{w[1]}]{w[2]} = {t21.gyration(*w)} != {w[2]}\n")

print("=" * 70)
print("2. The coset criterion on the order-21 carrier")
print("=" * 70)

h7 = tuple(range(0, 21, 3))
crit = coset_criterion(t21, h7)
print(f"  H of order 7: gyr-invariance={crit.condition_gyr_preserves_subgroup},"
      f" translate-defect={crit.condition_translate_defect_in_subgroup}")

gset = build_coset_action(t21, h7)
print(f"  -> transitive action on {gset.points} cosets; "
      f"21 = {gset.points} * 7")
flags = classify(gset)
print(f"  flags: transitive={flags.transitive}, "
      f"semiregular={flags.semiregular} (never semiregular when H != 0)")
dec = orbits_and_stabilizers(gset)
print(f"  stabilizer orders: {[len(s) for s in dec.stabilizers]} "
      f"(each the conjugate of H by a representative)\n")

for members, label in [((0,), "H = {0}"), ((0, 1, 2), "a non-L subloop")]:
    try:
        build_coset_action(t21, members)
    except CriterionError as exc:
        print(f"  {label}: refused -> {str(exc)[:72]}...")
print()

print("=" * 70)
print("3. The pair carrier: ball points tagged with rotations")
print("=" * 70)

carrier = PairGyrogroup(m=6, variant="mobius")
out = check_pair_axioms(carrier, 10000, seed=42)
print("  sampled axiom residuals over 10^4 triples:")
for law in ("gyroassociativity", "left_loop", "gyration_closed_form"):
    print(f"    {law:22s} {out[law]:.2e}")

crit = coset_criterion_sampled(carrier, carrier.in_hat, carrier.sample_hat,
                               10000, seed=42)
print("\n  the coset criterion for the translation part B^ = {(w, id)},"
      " on 10^4 samples:")
print(f"    gyrations map B^ into B^:    "
      f"{crit.condition_gyr_preserves_subgroup}")
print(f"    -z + gyr[x,y]z lies in B^:   "
      f"{crit.condition_translate_defect_in_subgroup}")
print(f"    verdict: {'pass' if crit.passed else 'fail'}")
print("  cosets of B^ are exactly the rotation indices:")
g = carrier.element([0.25, 0.1], 1)
walk, k = [], 0
for _ in range(6):
    k = int(carrier.hat_coset_action(g, k))
    walk.append(k)
print(f"  acting repeatedly with a rotation-1 element: {walk}")
print("  one element already walks through all 6 cosets (transitive),")
w = carrier.element([0.5, 0.0], 0)
print(f"  yet stab(coset 0) contains every (w, id), e.g. w = {w.u}:"
      f" not semiregular")
