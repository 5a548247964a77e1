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

# every public name the imports above bind, less the submodules they bind too
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and type(value) is not type(lattice))
