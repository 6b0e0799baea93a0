"""Irreducible components of Fano schemes of linear subspaces on toric varieties.

A finite set ``A`` of lattice points defines a projective toric variety
``X_A``.  This package computes, for any ``k``, the irreducible components of
the scheme of ``k``-planes contained in ``X_A``: each component is described
exactly (over the integers / rationals, no floating point) by a face of ``A``
together with a partition of its points, and the package derives component
dimensions, torus-fixed points, chart semigroups and their smoothness,
pairwise intersections, and the connectivity graph of the Fano scheme.  For
fixed points of the largest interesting ``k`` it also computes the local
scheme structure: a monomial basis of the local ring, isolatedness, and the
multiplicity.

Every fast computation has an independent slow counterpart in
:mod:`toricfano.verify` (brute-force partition search and explicit
substitution of plane parametrizations into the defining equations).
"""

from .cayley import (
    CayleyPoset,
    CayleyStructure,
    enumerate_cayley_structures,
    is_cayley_structure,
    leq,
    maximal_cayley_structures,
)
from .components import (
    ChartSemigroup,
    ConnectivityGraph,
    FanoComponent,
    chart_generators_reduced,
    chart_is_smooth,
    chart_semigroup,
    component_dimension,
    component_fixed_points,
    component_id,
    component_points,
    components,
    components_intersection,
    connectivity_graph,
    is_covered_by_k_planes,
)
from .intlinalg import UnsupportedSizeError
from .localscheme import (
    HeightCoords,
    HypothesesViolated,
    MonomialSet,
    choose_w,
    height_coordinates,
    local_ring_basis,
    multiplicity,
    multiplicity_by_height,
    s_u_case,
)
from .pointconfig import Face, PointConfiguration
from .verify import (
    RelationBasis,
    brute_force_cayley,
    relation_basis,
    relations_vanish_on,
    verify_cayley_plane,
    verify_chart_sample,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyPoset",
    "CayleyStructure",
    "ChartSemigroup",
    "ConnectivityGraph",
    "Face",
    "FanoComponent",
    "HeightCoords",
    "HypothesesViolated",
    "MonomialSet",
    "PointConfiguration",
    "RelationBasis",
    "UnsupportedSizeError",
    "brute_force_cayley",
    "chart_generators_reduced",
    "chart_is_smooth",
    "chart_semigroup",
    "choose_w",
    "component_dimension",
    "component_fixed_points",
    "component_id",
    "component_points",
    "components",
    "components_intersection",
    "connectivity_graph",
    "enumerate_cayley_structures",
    "height_coordinates",
    "is_cayley_structure",
    "is_covered_by_k_planes",
    "leq",
    "local_ring_basis",
    "maximal_cayley_structures",
    "multiplicity",
    "multiplicity_by_height",
    "relation_basis",
    "relations_vanish_on",
    "s_u_case",
    "verify_cayley_plane",
    "verify_chart_sample",
]
