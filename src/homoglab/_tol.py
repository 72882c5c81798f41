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
# fixes a point: an eigenvalue lies this close to +1, the least singular value
# of I - g, on a sphere; its least displacement lo is at most this on a group
# manifold ("eigen")
EIGEN = 1e-9
# a real matrix is orthogonal; a point or a quaternion has unit norm
ORTHOGONAL = 1e-10
# a matrix lies in a compact group or its Lie algebra
GROUP = 1e-8
# a singular value below this times the largest counts as zero ("rank_cutoff")
RANK_CUTOFF = 1e-8
# the same, for the Berger isometry system of check-berger ("rank_cutoff")
BERGER_CUTOFF = 1e-10
# a bracket vanishes, or a subspace of a Lie algebra is invariant under
# another: the norm of the coordinates that must vanish.  Catalog entry 10
# decides against it too ("bracket"): Casimir eigenvalues closer than this
# times the largest form one component, the metric form touches a component
# where its projection exceeds this, and the certified least projection of
# ξξᵀ must exceed it.  So does catalog entry 15: its circle direction
# normalizes the isotropy algebra
BRACKET = 1e-8
# a basis of a Lie algebra is orthonormal in -trace(XY)
BASIS = 1e-9
# Ad of a deck factor g is the identity on a simple ideal: g^H B g - B for
# each basis element B of the ideal (compact_lie._adjoint_pass; "central")
CENTRAL = 1e-7
# a norm, an angle or a determinant error vanishes
ZERO = 1e-12
# an eigenvalue of the group mean of Ad, an orthogonal projector, counts as 1
# above this midpoint of its eigenvalues 0 and 1: a closed deck holds them
# within about 1e-14 of 0 or 1, so it is not recorded in reports
PROJECTOR_SPLIT = 0.5
# the default --tol: largest displacement spread of the forward re-check
# ("displacement"; freeness is decided at EIGEN on every model), or largest
# relative Killing length gap (check-killing; "relative_gap")
DISPLACEMENT = 1e-7
# a constant-displacement map slides a great circle along itself: g u against
# cos c u - sin c x (invariant_geodesic_check; "geodesic")
GEODESIC = 1e-8
# probe-noncompact adds I to a random 2x2 draw with |det| below this before
# scaling it to det 1 ("near_singular")
NEAR_SINGULAR = 1e-3
