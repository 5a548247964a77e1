"""delzant — exact computations with rational Delzant polygons.

Verify the Delzant condition, test unimodular affine congruence,
classify Delzant quadrilaterals as Hirzebruch trapezoids, enumerate and
count the conjugacy classes of maximal tori in the Hamiltonian
symplectomorphism groups of the corresponding 4-manifolds, and read off
the labeled graphs, Betti numbers, and toric-extendability of circle
subactions.  All arithmetic is exact rational; no floating point is
used anywhere.
"""

from .circle_actions import (
    CircleDirection,
    ExtendabilityReport,
    FatVertex,
    FixedPointData,
    IsolatedFixed,
    IsolatedPoint,
    LabeledGraph,
    SurfaceFixed,
    Violation,
    ZkEdge,
    betti_numbers,
    check_extendable,
    circle_graph,
    fixed_point_data,
    flip_graph,
    graphs_isomorphic,
)
from .errors import DelzantError
from .hirzebruch import (
    BLOWUP_FORM,
    HYPERBOLIC_FORM,
    BlowUp,
    HirzebruchParams,
    IntersectionForm,
    ManifoldClass,
    SphereProduct,
    classify_quadrilateral,
    count_tori,
    enumerate_tori,
    form_automorphisms,
    manifold_of,
    parity_reduce,
    same_symplectic_class,
    standard_trapezoid,
)
from .lattice import (
    IntVec2,
    RatVec2,
    UnimodularAffine,
    det2,
    primitive,
)
from .polygon import (
    DelzantReport,
    EdgeData,
    Polygon,
    apply_map,
    congruent,
    edge_data,
    is_delzant,
    make_polygon,
)

__version__ = "0.1.0"

__all__ = [
    "BLOWUP_FORM",
    "BlowUp",
    "CircleDirection",
    "DelzantError",
    "DelzantReport",
    "EdgeData",
    "ExtendabilityReport",
    "FatVertex",
    "FixedPointData",
    "HYPERBOLIC_FORM",
    "HirzebruchParams",
    "IntersectionForm",
    "IntVec2",
    "IsolatedFixed",
    "IsolatedPoint",
    "LabeledGraph",
    "ManifoldClass",
    "Polygon",
    "RatVec2",
    "SphereProduct",
    "SurfaceFixed",
    "UnimodularAffine",
    "Violation",
    "ZkEdge",
    "apply_map",
    "betti_numbers",
    "check_extendable",
    "circle_graph",
    "classify_quadrilateral",
    "congruent",
    "count_tori",
    "det2",
    "edge_data",
    "enumerate_tori",
    "fixed_point_data",
    "flip_graph",
    "form_automorphisms",
    "graphs_isomorphic",
    "is_delzant",
    "make_polygon",
    "manifold_of",
    "parity_reduce",
    "primitive",
    "same_symplectic_class",
    "standard_trapezoid",
]
