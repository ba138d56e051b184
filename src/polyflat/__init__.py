"""Dually flat geometry of convex lattice polytopes.

Polytopes in exact half-space form, canonical affine-log potentials, the
Legendre/Bregman machinery of the induced Hesse structure, divergences
extended to boundary faces, and the mixture-family dictionary for polytopes
whose facet normals sum to zero.
"""

from .boundary import (
    BoundaryPoint,
    boundary_divergence,
    boundary_point,
    continuity_check,
    dual_geodesic_limit,
    extended_divergence,
    limit_divergence,
    product_boundary_check,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
)
from .dually_flat import (
    DualPair,
    GeodesicSpec,
    bregman,
    bregman_expanded,
    cosine_residual,
    from_dual,
    geodesic_point,
    newton_solve,
    to_dual,
)
from .errors import (
    DegenerateError,
    DomainError,
    EmptyFaceError,
    FaceBoundaryError,
    InvalidInputError,
    NoSolutionError,
    NotTorifiableError,
    NumericalError,
    PolyflatError,
)
from .mixture import MixtureFamily, from_mixture, kl, to_mixture, zero_sum_check
from .polynomial import Polynomial
from .polytope import (
    FaceChart,
    HalfSpace,
    Polytope,
    Vertex,
    face_chart,
    halfspace,
    is_bounded,
    product,
    restrict_polytope,
    validate_delzant,
    vertices,
)
from .potential import (
    AffineLogTerm,
    SymplecticPotential,
    guillemin,
    restrict_potential,
    validity_scan,
)
from .verify import run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
