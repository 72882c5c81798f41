"""Decision tolerances: one name per numerical decision, one value per name.

Every threshold the library decides against is defined here and imported by
name.  Distances are max-abs entry distances unless a comment says otherwise.
Where a CLI report records a value, its comment gives the ``tolerances`` key.
"""

# two elements are the same: Cayley tables and the columns of the closure
# certificate, the identity of a listed group (the certificate's empty
# product), of a quaternion group, of a deck element (_identity_maps), and a
# matrix is the identity (_linalg._at_identity: cyclic powers, a flat or
# hyperbolic motion) ("closure")
CLOSURE = 1e-9
# the exact displacement range [lo, hi] of an orthogonal map spreads over at
# most this, hi - lo (constant displacement on the sphere), or a deck element
# fixes a point: its least eigen-angle |arg λ| is at most this on a sphere;
# its least displacement lo is at most this on a group manifold ("eigen")
EIGEN = 1e-9
# a real matrix is orthogonal; a point or a quaternion has unit norm
ORTHOGONAL = 1e-10
# a matrix lies in a compact group or its Lie algebra
GROUP = 1e-8
# a singular value below this times the largest counts as zero ("rank_cutoff")
RANK_CUTOFF = 1e-8
# a bracket vanishes, or a subspace of a Lie algebra is invariant under
# another: the norm of the coordinates that must vanish.  Catalog entry 10
# decides against it too ("bracket"): Casimir eigenvalues closer than this
# times the largest form one component, the metric form touches a component
# where its projection exceeds this, and the certified least projection of
# ξξᵀ must exceed it.  So does catalog entry 15: its circle direction
# normalizes the isotropy algebra
BRACKET = 1e-8
# the torus directions of the constant-length certificate are orthonormal
# in -trace(XY)
BASIS = 1e-9
# a deck factor g is central: its max-abs distance to the nearest center
# element; on SO(4), Ad of g is the identity on one of its two simple ideals:
# g^H B g - B for each basis element B of the ideal (compact_lie._constancy;
# "central")
CENTRAL = 1e-7
# a norm, an angle or a determinant error vanishes
ZERO = 1e-12
# an eigenvalue of the group mean of Ad, an orthogonal projector, counts as 1
# above this midpoint of its eigenvalues 0 and 1: a closed deck holds them
# within about 1e-14 of 0 or 1, so it is not recorded in reports
PROJECTOR_SPLIT = 0.5
# the mean adjoint character of a deck, its centralizer dimension, lies within
# this of an integer (compact_lie._centralizer_dim): moving each factor of d x d
# matrices by CLOSURE (max-abs) moves it by at most 2 d^2 CLOSURE per factor,
# 2.3e-6 for the two factors of Sp(12) (d = 24); a closed deck holds it within
# about 1e-14, so it is not recorded in reports
CHARACTER = 1e-5
# largest displacement spread of the pipeline's forward re-check
# ("displacement"; freeness is decided at EIGEN on every model), and the
# largest relative Killing length gap of check-killing ("relative_gap"): a
# constant field measures within about 1e-14 of 0, any other above 0.5
DISPLACEMENT = 1e-7
# a constant-displacement map slides a great circle along itself: g u against
# cos c u - sin c x (invariant_geodesic_check; "geodesic")
GEODESIC = 1e-8
