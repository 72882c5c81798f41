"""
Bi-invariant geometry of compact matrix groups
==============================================

Distance from branch-minimized logarithm angles, two-sided translation
isometries, the exact least displacement of a translation pair, and the
fixed-point search for inverted maps.
"""

import numpy as np

from homoglab import (
    CompactGroupSpec,
    TwoSidedIsometry,
    biinvariant_distance,
    conjugacy_class_distance,
    group_displacement_profile,
    haar_sample,
    is_constant_displacement_translation,
    min_displacement,
)

rng = np.random.default_rng(0)
su2 = CompactGroupSpec("SU", 2)

# the antipode: with the -trace(X^2) normalization the unit-speed geodesic
# from I to -I has length pi * sqrt(2)
d = biinvariant_distance(su2, np.eye(2), -np.eye(2))
print(f"d(I, -I) on SU(2) = {d:.12f}  (pi*sqrt(2) = {np.pi * np.sqrt(2):.12f})")

# distances are invariant under left and right translation
g, h, a, b = (haar_sample(su2, rng) for _ in range(4))
print("bi-invariance defect:",
      abs(biinvariant_distance(su2, a @ g @ b, a @ h @ b) - biinvariant_distance(su2, g, h)))

# x -> g1^dagger x g2 moves every point the same amount exactly when one of
# the two factors is central
central = TwoSidedIsometry(-np.eye(2, dtype=complex), haar_sample(su2, rng))
generic = TwoSidedIsometry(haar_sample(su2, rng), haar_sample(su2, rng))
for name, iso in [("central pair", central), ("generic pair", generic)]:
    res = is_constant_displacement_translation(su2, iso, samples=400, rng=rng)
    print(f"{name}: constant={res.constant}  "
          f"centrality predicts {res.centrality.predicts_constant}  "
          f"gap {res.profile.gap:.2e}")

# the least displacement of x -> g1^dagger x g2 is the distance between the
# conjugacy classes of g1 and g2, read off the eigen-angles; the multistart
# descent can only come down to it from above
q = haar_sample(su2, rng)
for name, (g1, g2) in [("generic pair", (generic.g1, generic.g2)),
                       ("conjugate pair", (generic.g1, q @ generic.g1 @ q.conj().T))]:
    exact = conjugacy_class_distance(su2, g1, g2)
    val, _ = min_displacement(su2, TwoSidedIsometry(g1, g2), rng=rng)
    print(f"{name}: least displacement exact {exact:.2e}, descent {val:.2e}")

# inverted maps x -> g1^dagger x^dagger g2 always have a fixed point;
# the multistart descent finds displacement ~ 0
iso = TwoSidedIsometry(haar_sample(su2, rng), haar_sample(su2, rng), inverted=True)
val, argmin = min_displacement(su2, iso, rng=rng)
print(f"\ninverted isometry: min displacement {val:.2e} (a fixed point exists)")
prof = group_displacement_profile(su2, iso, 400, rng)
print(f"  sampled displacement range [{prof.min:.4f}, {prof.max:.4f}]")
