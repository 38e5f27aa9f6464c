"""Exception types shared across the package."""


class AnnulusError(Exception):
    """Base class for all package errors."""


class GeometryError(AnnulusError):
    """Invalid or degenerate geometric input."""


class ContainmentError(GeometryError):
    """A required compact containment between bodies fails."""


class InfeasibleError(AnnulusError):
    """No admissible configuration exists for the requested construction."""


class CurvatureUnavailableError(GeometryError):
    """Curvature was queried on a curve that has none (polygons)."""


class StarShapeError(GeometryError):
    """A boundary curve is not star shaped about the requested center."""


class BracketError(AnnulusError):
    """Root bracketing failed below the configured search ceiling."""


class NumericalError(AnnulusError):
    """An iterative numerical process failed to converge."""


class SolverError(NumericalError):
    """The sparse eigenvalue solver did not reach its tolerance."""


class RangeError(AnnulusError):
    """An evaluation outside the declared parameter range."""


class InvalidWebError(AnnulusError):
    """A web test function failed its validity certificate."""


class UsageError(AnnulusError):
    """Malformed command line or configuration input."""
