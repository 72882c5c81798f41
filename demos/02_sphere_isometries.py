"""
Constant-displacement isometries of round spheres
=================================================

The eigen-angle test: an orthogonal map moves every point of the sphere
by the same angle exactly when all its eigenvalues share one angle |arg λ|.
Lens-space generators show both outcomes.  The exact displacement range over
the sphere, from the singular values of I - g and I + g, contains every
sampled displacement.
"""

import numpy as np

from homoglab import (
    invariant_geodesic_check,
    is_clifford_sphere,
    is_free_on_sphere,
    lens_group,
    sphere_displacement_range,
)

rng = np.random.default_rng(0)

# lens(8;1,1): both rotation blocks turn by the same angle
good = lens_group(8, (1, 1))[1]
ok, angle = is_clifford_sphere(good)
print("lens(8;1,1) generator constant displacement:", ok, f"angle {angle:.6f}")

# lens(5;1,2): the second block turns twice as fast, so points on the two
# core circles move by different amounts
bad = lens_group(5, (1, 2))[1]
ok, _ = is_clifford_sphere(bad)
print(f"lens(5;1,2) generator constant displacement: {ok}")
lo, hi = sphere_displacement_range(bad)
print(f"  exact displacement range   [{lo:.4f}, {hi:.4f}], gap {hi - lo:.4f}")
# 2000 uniform points, and the angle each is moved by, by Kahan's formula
pts = rng.standard_normal((2000, 4))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
moved = pts @ bad.T
disp = 2.0 * np.arctan2(np.linalg.norm(pts - moved, axis=1), np.linalg.norm(pts + moved, axis=1))
gap = disp.max() - disp.min()
print(f"  sampled displacement range [{disp.min():.4f}, {disp.max():.4f}], gap {gap:.4f}")

# both cyclic groups act freely -- fixed points would need a +1 eigenvalue
for name, k, exps in [("lens(8;1,1)", 8, (1, 1)), ("lens(5;1,2)", 5, (1, 2))]:
    res = is_free_on_sphere(lens_group(k, exps))
    print(f"{name} acts freely: {res.free}")

# a constant-displacement map slides each great circle through x and gx
# along itself; verify on a random base point
x = rng.normal(size=4)
x /= np.linalg.norm(x)
print("\ngeodesic slide check on lens(8;1,1):", invariant_geodesic_check(good, x))
