"""Exception types shared across the package."""


class GroupError(ValueError):
    """Base class for all domain errors raised by this package."""


class UnknownGenerator(GroupError):
    """A word mentions a generator that is not part of the scheme."""


class SchemeMismatch(GroupError):
    """Two words from different schemes were combined."""


class TrivialElement(GroupError):
    """The identity was passed to an operation defined for nontrivial elements."""


class NotParabolic(GroupError):
    pass


class NotHyperbolic(GroupError):
    pass


class NotElliptic(GroupError):
    pass


class InvalidCertificate(GroupError):
    """A supplied certificate fails its defining multiplication check."""


class ParseError(GroupError):
    """Bad input text; carries the character position of the offending token."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidInvariant(GroupError):
    """Seifert data violates a structural constraint."""


class UnsupportedBase(GroupError):
    """Element-level decisions need a base surface with boundary."""


class UnknownSuite(GroupError):
    """sweep_agreement was asked for a suite name it does not know."""


class MalformedCertificate(GroupError):
    """A certificate document is missing fields or has the wrong shape."""
