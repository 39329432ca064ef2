"""Exception types raised by the numerical routines."""


class TimpsError(Exception):
    """Base class for all library-specific failures."""


class AmbiguousRankError(TimpsError):
    """An eigenvalue sits inside the rank-cutoff window; the numerical rank
    would depend on the exact threshold, so the decision is refused."""


class NotInEError(TimpsError):
    """The tensor does not admit the required block canonical form (injective
    normalized core plus filler) within tolerance."""


class NotInOError(TimpsError):
    """The tensor is outside the retraction domain: its core Gram spectrum is
    a nonzero multiple of the identity at full rank."""


class DegenerateLeadingEigenvalueError(TimpsError):
    """The leading transfer eigenvalue is not simple within the gap
    tolerance, so fixed-point data is unreliable."""


class NotPositiveError(TimpsError):
    """A matrix that must be positive semidefinite has a significantly
    negative eigenvalue."""


class IncompatibleGaugeMoveError(TimpsError):
    """A gauge move's filler term is not supported off the core of the tensor
    it is applied to."""


class WindowTooLargeError(TimpsError):
    """The requested window density matrix exceeds the dense-oracle cap."""


class RankMismatchError(TimpsError):
    """Two tensors that must share an essential rank do not."""


class VanishingOverlapError(TimpsError):
    """A link variable's leading overlap is numerically zero: the states at
    neighboring vertices are nearly orthogonal (mesh too coarse)."""


class NonIntegerTotalError(TimpsError):
    """The summed plaquette curvature is too far from an integer multiple of
    2*pi (mesh too coarse or a rank jump crosses the cycle)."""


class FlaggedPlaquetteError(TimpsError):
    """A plaquette's curvature lies within the branch-cut margin of +-pi, so
    the plaquette is not admissible and its value mod 2*pi is untrustworthy
    (mesh too coarse)."""


class OutOfChartError(TimpsError):
    """A parameter point lies outside the requested chart."""


class NotNormalizedPointError(TimpsError):
    """A projective-line point was given with non-unit norm."""
