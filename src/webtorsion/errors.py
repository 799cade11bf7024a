"""Exception types shared across the toolkit."""


class WebTorsionError(Exception):
    """Base class for all toolkit errors."""


class NonConvex(WebTorsionError):
    """A reflex turn was found in an ordered vertex list."""


class Degenerate(WebTorsionError):
    """Polygon area below threshold, or too few usable vertices."""


class NonPositiveScale(WebTorsionError):
    """Scaling factor must be strictly positive."""


class GridTooCoarse(WebTorsionError):
    """Profile grid size below the supported minimum."""


class BadExponent(WebTorsionError):
    """Exponent p outside the admissible range."""


class BadParameter(WebTorsionError):
    """Shape parameter outside its admissible range."""


class TooFine(WebTorsionError):
    """Requested mesh would exceed the node budget."""


class NoConvergence(WebTorsionError):
    """Iterative solver hit its iteration cap or its line search failed."""


class NonMonotoneConvergence(WebTorsionError):
    """Mesh refinement study did not produce decreasing increments."""


class ContainmentFailure(WebTorsionError):
    """Enclosing rectangle failed to contain the body."""


class RejectionOverflow(WebTorsionError):
    """Too many consecutive rejections while sampling a random body."""


class ViolationFound(WebTorsionError):
    """A checked inequality failed beyond tolerance.

    Attributes
    ----------
    name : str
        Identifier of the violated inequality.
    slack : float
        The (negative) slack that triggered the violation.
    where : object
        Node index, parameter value or other locator.
    """

    def __init__(self, name, slack, where=None):
        super().__init__(f"{name}: slack {slack:.3e} at {where!r}")
        self.name = name
        self.slack = slack
        self.where = where
