"""
Weyl group orders, Euler characteristics, and squashed spheres
==============================================================

Weyl group orders, from the closed form of each series, give Euler
characteristics of equal-rank quotients; the Berger family shows how shrinking the fiber
kills right-translation isometries.
"""

from homoglab import (
    NOT_EQUAL_RANK,
    berger_right_isometry_algebra,
    euler_characteristic,
    weyl_group_order,
)

# |W| from the closed form of each series
for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)]:
    label = series if series == "G2" else f"{series}{rank}"
    print(f"|W({label})| = {weyl_group_order(series, rank)}")

# equal-rank quotients have positive Euler characteristic |W_G| / |W_H|
print("\nchi(SU(3)/T^2) =", euler_characteristic(("A", 2), [("T", 2)]))
print("chi(CP^2)      =", euler_characteristic(("A", 2), [("A", 1), ("T", 1)]))
print("chi(S^6)       =", euler_characteristic(("G2", 2), [("A", 2)]))

# rank drops to zero characteristic: SO(3) inside SO(5) principally
chi = euler_characteristic(("B", 2), [("B", 1)])
print("SO(5)/SO(3):", "chi = 0 (ranks differ)" if chi is NOT_EQUAL_RANK else chi)

# Berger metrics on the 3-sphere group: scale the fiber circle by a and the
# base by b; the right isometries that survive form a Lie algebra whose
# dimension drops 3 -> 1 -> 0
print()
for a, b in [(1.0, 1.0), (0.5, 1.0), (0.3, 0.7)]:
    rep = berger_right_isometry_algebra(a, b)
    print(f"coefficients ({a}, {b}): right isometry algebra dimension {rep.dimension}")
