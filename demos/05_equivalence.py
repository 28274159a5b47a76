"""When are two G-sets the same action in disguise?

Every transitive action is a coset action of a stabilizer (the fundamental
isomorphism); two transitive actions are equivalent exactly when their
stabilizers are conjugate; and a general action is determined by its
transitive components up to rearrangement.
"""

import numpy as np

from gyrokit import (are_equivalent_transitive, build_coset_action,
                     disjoint_union, enumerate_subgyrogroups,
                     fundamental_isomorphism, is_equivalence,
                     match_components, orbits_and_stabilizers,
                     validate_action, validate_gyrogroup)
from gyrokit.catalog import cyclic, symmetric

print("=" * 70)
print("1. The fundamental isomorphism: orbits are coset spaces")
print("=" * 70)

s3 = validate_gyrogroup(symmetric(3))
conj = np.array([[s3.oplus(s3.oplus(a, x), s3.oinv(a)) for x in range(6)]
                 for a in range(6)])
gset = validate_action(s3, conj)
dec = orbits_and_stabilizers(gset)
z = next(o for o in dec.orbits if len(o) == 3)[0]
phi = fundamental_isomorphism(gset, z)
print(f"  point {z} has stabilizer of order {len(dec.stabilizers[z])}")
print(f"  G/stab({z}) has {phi.source.points} cosets; the map "
      f"a+stab({z}) -> a.{z} sends them to {phi.target.point_labels}")
print(f"  verified equivalence: {is_equivalence(phi)}\n")

print("=" * 70)
print("2. Conjugate stabilizers <=> equivalent transitive actions")
print("=" * 70)

order2 = [h for h in enumerate_subgyrogroups(s3) if len(h) == 2]
print(f"  the three order-2 subgroups of S3: {order2}")
x = build_coset_action(s3, order2[0])
y = build_coset_action(s3, order2[1])
eq, witness = are_equivalent_transitive(x, y)
print(f"  their coset actions equivalent: {eq}, witness map "
      f"{witness.mapping}")

z6 = validate_gyrogroup(cyclic(6))
a = build_coset_action(z6, (0, 3))      # 3 points
b = build_coset_action(z6, (0, 2, 4))   # 2 points
eq, _ = are_equivalent_transitive(a, b)
print(f"  Z6/(0,3) vs Z6/(0,2,4) equivalent: {eq} "
      f"(different stabilizer orders)\n")

print("=" * 70)
print("3. Matching transitive components")
print("=" * 70)

x = disjoint_union([a, b])
y = disjoint_union([b, a])
print(f"  X = 3-coset action ++ 2-coset action, Y = the same reordered")
orbits = orbits_and_stabilizers(x).orbits
print(f"  components of X: {[len(o) for o in orbits]} points")
m = match_components(x, y)
print(f"  matched: {m.equivalent}, pairing {m.pairs}, "
      f"assembled map {m.mapping.mapping}")

y2 = disjoint_union([a, a])
m2 = match_components(x, y2)
print(f"\n  against two copies of the 3-point component instead:")
print(f"  {m2.message}")
