"""Exception types shared across the package."""


class VknotError(Exception):
    """Base class for all errors raised by this package."""


class GaussCodeError(VknotError, ValueError):
    """Malformed signed Gauss code (bad token, sign mismatch, orphan label...)."""


class UnknownChordError(VknotError, KeyError):
    """An operation referenced a chord id that is not in the diagram."""


class UnknownCheckError(VknotError, KeyError):
    """A sweep was asked for a check name that is not registered."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class PreconditionError(VknotError):
    """An operation was called on input outside its domain."""


class NotCheckerboardColorable(PreconditionError):
    """Determinant machinery requires a mod 2 Alexander numberable diagram."""


class UnderPassageFreeComponent(PreconditionError):
    """A link component without under-passages has no well-shaped coloring matrix."""
