"""Exception types shared across the package.

``exit_code`` drives the CLI: 2 for input/usage problems, 3 for numerical
failures.
"""


class LineHeatError(Exception):
    exit_code = 2


class NumericalError(LineHeatError):
    exit_code = 3


class ZeroLengthEdge(LineHeatError):
    """Edge endpoints coincide (or a self-loop was given)."""


class InteriorIntersection(LineHeatError):
    """Two edges touch or cross somewhere that is not a shared endpoint vertex."""


class DanglingReference(LineHeatError):
    """Segment references a vertex id that does not exist."""


class LocationOffNetwork(LineHeatError):
    """Edge id out of range or offset outside [0, edge length]."""


class ParseError(LineHeatError):
    """Malformed input file."""


class GeometryTypeError(ParseError):
    """GeoJSON feature with a geometry type the reader does not accept."""


class AllPointsTooFar(LineHeatError):
    """Every input record was dropped by the snap-distance filter."""


class EmptyPattern(LineHeatError):
    """Estimator requires at least one data point."""


class UnboundedKernel(LineHeatError):
    """Path-enumeration estimators need a compactly supported kernel family."""


class PathExplosion(NumericalError):
    """Path enumeration exceeded the walk budget; lower the bandwidth."""


class PairBudgetExceeded(NumericalError):
    """A kernel estimate would compute more (source, node) distances than its budget."""


class StepBudgetExceeded(NumericalError):
    """A solve, or the solves of one estimate, would take more explicit steps than the budget."""


class BadDelta(LineHeatError):
    """Quantile step must be in (0, 1] with 1/delta an integer."""


class LatticeMismatch(LineHeatError):
    """Operation requires both functions on the same lattice."""


class NonpositivePilotWarning(UserWarning):
    """Pilot intensity at a data point was at or below the floor and was clamped."""
