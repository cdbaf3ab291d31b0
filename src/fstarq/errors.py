"""Exception types shared across the toolkit."""


class FStarError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FStarError):
    """Malformed expression or mini-language text.

    Carries the character position of the offending token and, when known,
    the set of token kinds that would have been accepted there.
    """

    def __init__(self, message, position, expected=None):
        self.message = message
        self.position = position
        self.expected = tuple(sorted(expected)) if expected else ()
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class NonPositiveValue(FStarError):
    """A deformation function evaluated to a non-positive or non-finite value."""


class SingularAmplitude(FStarError):
    """The f-star amplitude F(n) has a vanishing denominator at a probed point."""


class SeriesDivergence(FStarError):
    """A normalization series failed to meet its truncation criterion."""
