"""Planar convex bodies, inner parallel sets and p-torsion lower bounds.

The toolkit computes classical metrics of convex polygons, their inner
parallel profiles, analytic lower bounds for the weighted p-torsion, a desk
scale finite element reference solver, and quantitative deficit checks with
explicit constants.
"""

from .bounds import (
    BoundSet,
    bound_report,
    c_p,
    functional_F,
    functional_H_half,
    makai_upper,
    q_exponent,
)
from .geometry import (
    BodyMetrics,
    ConvexPolygon,
    metrics,
    polygon_from_vertices,
    scale,
)
from .harness import (
    FuzzConfig,
    classical_inequality_suite,
    fuzz_suite,
    random_convex_body,
    run_sequence,
)
from .parallel import (
    ParallelProfile,
    SteinerReport,
    WeightProfile,
    inner_body,
    profile,
    steiner_check,
)
from .quantitative import (
    DeficitReport,
    EnclosingRectangle,
    K_of_p,
    enclosing_rectangle,
    k_tilde,
    sigma_threshold,
    theorem2_report,
    theorem3_report,
)
from .shapes import (
    cylinder_perimeter,
    disk,
    isosceles_triangle,
    rectangle,
    slab_upper_bound,
    stadium,
    torsion_p_ball,
)
from .solver import (
    Mesh,
    RichardsonResult,
    TorsionResult,
    richardson_T,
    solve_torsion,
    triangulate,
)

__version__ = "0.1.0"

__all__ = [
    "BodyMetrics",
    "BoundSet",
    "ConvexPolygon",
    "DeficitReport",
    "EnclosingRectangle",
    "FuzzConfig",
    "K_of_p",
    "Mesh",
    "ParallelProfile",
    "RichardsonResult",
    "SteinerReport",
    "TorsionResult",
    "WeightProfile",
    "bound_report",
    "c_p",
    "classical_inequality_suite",
    "cylinder_perimeter",
    "disk",
    "enclosing_rectangle",
    "functional_F",
    "functional_H_half",
    "fuzz_suite",
    "inner_body",
    "isosceles_triangle",
    "k_tilde",
    "makai_upper",
    "metrics",
    "polygon_from_vertices",
    "profile",
    "q_exponent",
    "random_convex_body",
    "rectangle",
    "richardson_T",
    "run_sequence",
    "scale",
    "sigma_threshold",
    "slab_upper_bound",
    "solve_torsion",
    "stadium",
    "steiner_check",
    "theorem2_report",
    "theorem3_report",
    "torsion_p_ball",
    "triangulate",
]
