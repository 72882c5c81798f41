"""
Killing-field length profiles on reductive quotients
====================================================

A one-parameter isometry flow has constant speed exactly when the
quotient is "round enough" in its direction.  Group manifolds always
qualify; the squashed 7-manifold SO(5)/SO(3) never does.
"""

import numpy as np

from homoglab import (
    CompactGroupSpec,
    catalog_verify,
    group_space,
    hopf_sphere_space,
    killing_length_profile,
    random_algebra_element,
    so5_so3_space,
    u1_centralizer_direction,
)

rng = np.random.default_rng(0)

# on a bi-invariant group manifold every left-invariant field is Killing
# with constant length
su3 = CompactGroupSpec("SU", 3)
xi = random_algebra_element(su3, rng, unit=True)
prof = killing_length_profile(group_space(su3), xi, samples=200, rng=rng)
print(f"SU(3) group manifold: relative gap {prof.relative_gap:.2e}")

# the Hopf fibration S^5 -> CP^2: the circle direction commutes with the
# isotropy SU(2), and its *right*-translation flow has constant speed
space = hopf_sphere_space(2)
direction = u1_centralizer_direction(3, 2)
right = killing_length_profile(space, None, samples=200, rng=rng, right=direction)
left = killing_length_profile(space, direction, samples=200, rng=rng)
print(f"Hopf S^5 fiber field (right flow): gap {right.gap:.2e}")
print(f"same direction as a left flow:     relative gap {left.relative_gap:.3f}")

# the isotropy-irreducible 7-manifold SO(5)/SO(3): no direction gives a
# constant-length field, so the quotient admits no Clifford flow at all
space = so5_so3_space()
worst = min(
    killing_length_profile(
        space, random_algebra_element(space.group, rng, unit=True), samples=200, rng=rng
    ).relative_gap
    for _ in range(25)
)
print(f"SO(5)/SO(3), 25 sampled directions: smallest relative gap {worst:.3f}")

# catalog entry 10 proves it: every unit direction's square projects onto the
# 35-dimensional Casimir component of Sym^2 so(5) that the metric touches, with
# norm at least the certified minimum (1/sqrt 2), taken on a maximal torus
proof = catalog_verify(10).evidence
print(f"SO(5)/SO(3), certified least projection: {proof['certified_min']:.15f}"
      f" (components {proof['component_dims']}, metric touches {proof['touched_dims']})")
