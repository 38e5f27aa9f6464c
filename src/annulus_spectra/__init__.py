"""Robin-Dirichlet Laplacian eigenvalues on annular domains.

Radial solvers for concentric shells in any dimension, a 2D P1 finite
element solver for convex annular domains, the web test-function
construction, and numerical certificates for the associated inequality
chain (shell maximality, Kuttler-type bounds, shape derivatives).
"""

from .errors import (
    AnnulusError,
    BracketError,
    ContainmentError,
    CurvatureUnavailableError,
    GeometryError,
    InfeasibleError,
    InvalidWebError,
    NumericalError,
    RangeError,
    SolverError,
    StarShapeError,
    UsageError,
)
from .geometry import (
    AnnularDomain,
    BoundaryCurve,
    Circle,
    ConvexPolygon,
    Ellipse,
    PolygonCurve,
    ShellSpec,
    aleksandrov_fenchel_check,
    class_s_data,
    inradius,
    isoperimetric_deficit,
    quermassintegrals_2d,
    random_convex_polygon,
    scale_hole_to_class_s,
    unit_ball_volume,
)

__version__ = "0.1.0"
