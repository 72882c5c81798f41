"""
Bi-invariant geometry of compact matrix groups
==============================================

Distance from branch-minimized logarithm angles, two-sided translation
isometries, the exact constant-displacement test, and the least displacement
in closed form: the class distance of a translation pair, and exactly zero
for an inverted map, which always fixes a point.
"""

import numpy as np

from homoglab import (
    CompactGroupSpec,
    TwoSidedIsometry,
    biinvariant_distance,
    clifford_wolf_evidence,
    group_displacement_profile,
    group_exp,
    haar_sample,
    min_displacement,
)
from homoglab.compact_lie import center_elements

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

# x -> g1^dagger x g2 moves every point the same amount exactly when, on
# every simple ideal of the algebra, Ad(g1) or Ad(g2) is the identity.  SU(2)
# is simple, so there one factor must be central.  so(4) splits into its
# self-dual and anti-self-dual halves: a pair aligned with them is constant
# though neither factor is central.  The exact verdict stands next to its
# evidence (the spread of the attained displacement range when it is not
# constant) and the gap of 400 sampled points.
def plane(a, b):
    E = np.zeros((4, 4))
    E[a, b], E[b, a] = 1.0, -1.0
    return E


so4 = CompactGroupSpec("SO", 4)
central = TwoSidedIsometry(-np.eye(2, dtype=complex), haar_sample(su2, rng))
generic = TwoSidedIsometry(haar_sample(su2, rng), haar_sample(su2, rng))
aligned = TwoSidedIsometry(group_exp(0.7 * (plane(0, 1) + plane(2, 3))),  # self-dual
                           group_exp(1.9 * (plane(0, 2) + plane(1, 3))))  # anti-self-dual
for name, spec, iso in [("central pair", su2, central), ("generic pair", su2, generic),
                        ("SO(4) aligned pair", so4, aligned)]:
    constant, value = clifford_wolf_evidence(spec, [iso])
    gap = group_displacement_profile(spec, iso, 400, rng).gap
    either = any(np.allclose(g, z) for g in (iso.g1, iso.g2) for z in center_elements(spec))
    evidence = f"displacement {value[0]:.4f}" if constant[0] else f"range spread {value[0]:.2e}"
    print(f"{name}: exact constant={constant[0]}  {evidence}  sampled gap {gap:.2e}  "
          f"a factor is central: {either}")

# the least displacement of x -> g1^dagger x g2 is the distance between the
# conjugacy classes of g1 and g2, read off the eigen-angles; sampled points
# only reach values above it
q = haar_sample(su2, rng)
for name, (g1, g2) in [("generic pair", (generic.g1, generic.g2)),
                       ("conjugate pair", (generic.g1, q @ generic.g1 @ q.conj().T))]:
    iso = TwoSidedIsometry(g1, g2)
    sampled = group_displacement_profile(su2, iso, 400, rng).min
    print(f"{name}: least displacement exact {min_displacement(su2, iso):.2e}, "
          f"least of 400 sampled points {sampled:.2e}")

# an inverted map x -> g1 x^dagger g2 fixes x = y g2 for any square root y of
# g1 g2^dagger, and one exists because exp is onto: its least displacement is 0
iso = TwoSidedIsometry(haar_sample(su2, rng), haar_sample(su2, rng), inverted=True)
print(f"\ninverted isometry: least displacement {min_displacement(su2, iso):.2e}")
prof = group_displacement_profile(su2, iso, 400, rng)
print(f"  sampled displacement range [{prof.min:.4f}, {prof.max:.4f}]")
