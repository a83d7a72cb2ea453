"""Exception hierarchy shared by all hypercell modules."""


class HypercellError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedBody(HypercellError):
    """Operation is not defined for this body class (e.g. smooth-sum surface measure in d >= 3)."""


class ContainmentViolated(HypercellError):
    """A polytope claimed to contain the body fails the halfspace certificate."""


class OriginOutside(HypercellError):
    """The origin is not an interior point of the body, so the t > 0 parametrization breaks."""


class RejectionStall(HypercellError):
    """Rejection sampler acceptance rate collapsed; the supplied envelope is wrong."""


class InfeasibleBudget(HypercellError):
    """Shell mass budget cannot be met by any probability measure."""


class WindowOverflow(HypercellError):
    """Cell construction exceeded the maximum number of window growth rounds."""

    def __init__(self, rounds, radius):
        super().__init__(
            f"cell not certified after {rounds} window rounds (radius {radius:g})"
        )
        self.rounds = rounds
        self.radius = radius


class AnnulusOverflow(HypercellError):
    """An annulus would hold more hyperplanes than the sampling budget allows."""


class InvalidEpsilon(HypercellError):
    """Offset distance must be strictly positive."""


class DegenerateX(HypercellError):
    """Least-squares fit needs at least two distinct abscissae."""


class AllZeroTail(HypercellError):
    """Every estimated exceedance probability is zero; the intensity grid is too coarse/large."""


class ConfigError(HypercellError):
    """Invalid or missing CLI/experiment configuration."""
