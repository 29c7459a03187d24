"""Exception hierarchy shared across the package."""


class CCAError(Exception):
    """Base class for all library errors."""


class ClosureExceedsCap(CCAError):
    """Generated group grew past the enumeration cap."""


class NotASubgroup(CCAError):
    pass


class BoundExceeded(CCAError):
    pass


class InvalidSpec(CCAError):
    pass


class UnknownLabel(CCAError, KeyError):
    """No group element has this label; still a KeyError for older callers."""

    __str__ = CCAError.__str__


class IncompatibleGroup(CCAError):
    pass


class NotInverseClosed(CCAError):
    pass


class ContainsIdentity(CCAError):
    pass


class NotNormal(CCAError):
    pass


class NotConnected(CCAError):
    pass


class NotEdgeRegular(CCAError):
    pass


class NotArcRegular(CCAError):
    pass


class NotRegular(CCAError):
    pass


class StabiliserTooLarge(CCAError):
    pass


class HypothesisViolated(CCAError):
    """A construction's machine-verified hypothesis failed; the message names it."""


class HypothesesNotMet(CCAError):
    pass


class DecompositionNotFound(CCAError):
    """The structure decomposition could not be realised; never silenced."""
