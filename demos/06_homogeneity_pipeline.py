"""
The homogeneity pipeline on spherical space forms
=================================================

For a finite free group of sphere isometries: check that every element
has constant displacement, compute the algebra commuting with the group,
and test whether its fields span the tangent space at the base point.  The
commuting group has closed orbits, so full rank at that one point makes it
transitive: the quotient is homogeneous.
"""

import numpy as np

from homoglab import (
    GroupType,
    lens_group,
    named_binary_group,
    sphere_deck,
    sphere_deck_from_quaternions,
    verify_instance,
)

# the binary icosahedral group: the quotient is the Poincare sphere
deck = sphere_deck_from_quaternions(named_binary_group(GroupType.binary_icosahedral()))
report = verify_instance(deck)
_, rank, dim = report.transitivity
print("Poincare sphere (S^3 / I*):")
print(f"  free: {report.free}, all constant displacement: "
      f"{all(e.constant for e in report.clifford_per_element)}")
print(f"  commuting algebra dimension: {report.centralizer_dim}")
print(f"  tangent rank {rank}/{dim} at the base point -> {report.verdict}")

# homogeneous lens space: both exponents equal
report = verify_instance(sphere_deck(lens_group(5, (1, 1))))
print(f"\nlens(5;1,1): {report.verdict} "
      f"(commuting algebra dimension {report.centralizer_dim})")

# inhomogeneous lens space: the pipeline stops at non-constant displacement,
# and the commuting algebra is only a 2-torus on a 3-manifold
report = verify_instance(sphere_deck(lens_group(5, (1, 2))))
gaps = [e.value for e in report.clifford_per_element if not e.constant]
print(f"\nlens(5;1,2): {report.verdict}")
print(f"  worst displacement gap {max(gaps):.3f}, "
      f"commuting algebra dimension {report.centralizer_dim}")

# the full report serializes to the JSON shape the CLI emits
print("\nreport fields:", sorted(report.to_json_dict()))
