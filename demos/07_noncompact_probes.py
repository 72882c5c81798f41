"""
Bounded-displacement probes on flat and hyperbolic space
========================================================

On noncompact spaces constancy of displacement relaxes to boundedness.
Flat space: a rigid motion is bounded only when its linear part is the
identity.  Hyperbolic plane: only the trivial motions are bounded, and
everything else grows with the radius.  Both growth lists are closed forms:
R sigma_max(A - I) for the linear part of a rigid motion, and the exact sup
D(R) of the hyperbolic displacement over the ball of radius R about i.
"""

import numpy as np

from homoglab import (
    EuclideanMotion,
    HyperbolicMotion,
    euclidean_bounded,
    hyperbolic_bounded_probe,
)

# pure translation: displacement |b| everywhere, and the linear part moves
# no point
shift = EuclideanMotion(np.eye(3), np.array([1.0, 2.0, 2.0]))
bounded, growth = euclidean_bounded(shift)
print(f"translation: bounded={bounded}, linear part's max displacement per radius {growth}")

# screw motion: the rotation part makes displacement grow linearly, by
# 2 sin(theta/2) per unit radius; the shift along the axis adds at most |b|
theta = np.pi / 4
rot = np.eye(3)
rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
screw = EuclideanMotion(rot, np.array([0.0, 0.0, 3.0]))
bounded, growth = euclidean_bounded(screw)
print(f"screw motion: bounded={bounded}, linear part's max displacement per radius "
      + ", ".join(f"{v:.2f}" for v in growth))

# hyperbolic plane: exact sup displacement over balls of radius 1, 2, 4, 8
examples = {
    "loxodromic diag(2, 1/2)": np.diag([2.0, 0.5]),
    "parabolic shear": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "elliptic rotation": np.array(
        [[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]
    ),
    "central -I": -np.eye(2),
}
print()
for name, m in examples.items():
    bounded, sups = hyperbolic_bounded_probe(HyperbolicMotion(m))
    print(f"{name:>24}: bounded={bounded!s:>5}, sups "
          + ", ".join(f"{s:.3f}" for s in sups))
