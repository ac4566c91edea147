"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so
that tests and the CLI can distinguish them without string matching.
"""


class ElastislabError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(ElastislabError):
    """Operands live on different grids."""


class DegenerateMap(ElastislabError):
    """Coordinate map lost injectivity (d(phi)/dy3 <= 0 somewhere)."""


class CeilingViolated(ElastislabError):
    """Interface amplitude exceeded the configured ceiling."""


class SolverDiverged(ElastislabError):
    """An iterative solve failed to reach the requested residual."""


class NotMeanZero(ElastislabError):
    """A field required to have zero horizontal mean does not."""


class PreconditionViolated(ElastislabError):
    """A documented operation precondition does not hold."""


class StabilityLost(ElastislabError):
    """Both stability minima dropped below threshold on their regions."""


class InsufficientHistory(ElastislabError):
    """Not enough saved states for a finite-difference-in-time estimate."""


class ConfigInvalid(ElastislabError):
    """Config file failed to parse or validate."""
