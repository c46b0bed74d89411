"""Exception types shared across the package.

Every domain failure derives from :class:`FoliataError` so the CLI can map
"the input is outside the theory" to exit code 1 while genuine usage errors
keep argparse's exit code 2.
"""


class FoliataError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParams(FoliataError):
    """Parameters violate a precondition (non-finite, c != d at c0 = 0, ...)."""


class NoRealSolution(FoliataError):
    """The quadratic in f^2 (or g^2) has no admissible nonnegative range."""


class DriftExceeded(FoliataError):
    """First-integral drift of a profile integration exceeded 100x tolerance."""


class NonOscillatory(FoliataError):
    """No finite period exists (constant profile, homoclinic branch, ...)."""


class NotDegenerate(FoliataError):
    """Constant-profile constants requested away from the discriminant-zero curve."""


class GridMismatch(FoliataError):
    """Field inputs do not share parameters or the grid leaves the sampled range."""


class AllSingular(FoliataError):
    """Every node of the requested grid lies on the singular set."""


class TooFewNodes(FoliataError):
    """Grid too small for the requested finite-difference stencil."""


class NonConverged(FoliataError):
    """Newton iteration failed to converge within the iteration budget."""


class SingularCrossing(FoliataError):
    """Frame integration was asked to start on (or cross) the singular set."""


class PeriodUnavailable(FoliataError):
    """Holonomy requested but no profile period is available."""


class NotFlat(FoliataError):
    """Weierstrass construction requested for a curved ambient space."""
