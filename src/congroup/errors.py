"""Exceptions and warnings shared across the package."""


class CongroupError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(CongroupError):
    pass


class RingMismatch(CongroupError):
    pass


class SeriesSyntaxError(CongroupError):
    """Series text does not conform to the grammar; carries the offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WindowTooSmall(CongroupError):
    """A declared finite window cannot support the requested operation and
    no sound value exists to return instead; ``needed`` describes what would
    suffice.  Raised for a plain eta evaluation at the ``evaluate`` boundary,
    for parameter windows on exact inputs, for a fingerprint precision
    budget and for centre probes at an undetermined level."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class SpecMismatch(CongroupError):
    pass


class InsufficientPrecision(CongroupError):
    pass


class BadParams(CongroupError):
    pass


class NotExact(CongroupError):
    pass


class OrderMismatch(CongroupError):
    pass


class NotContractive(CongroupError):
    def __init__(self, place, poly, test):
        super().__init__(f"{poly} fails the {test} test at place {place}")
        self.place = place
        self.poly = poly
        self.test = test


class DegreeZero(CongroupError):
    pass


class EmptyWindowWarning(UserWarning):
    """``evaluate`` returned a value with no known coefficient: the zero at
    the sound precision, whose absolute value is only an upper bound.
    Internal evaluations return the same zero without warning."""
