"""Exception types shared by the engines."""


class HoledEntropyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HoledEntropyError):
    """A parameter is outside its admissible range or malformed."""


class EmptyPartitionError(HoledEntropyError):
    """An operation required a nonempty cylinder collection."""


class ResourceLimitError(HoledEntropyError):
    """A configured size cap was exceeded before the computation finished."""


class NoRootError(HoledEntropyError):
    """The determinant has no zero in (0, 1), so the entropy is zero."""


class NotFinitelyMarkovError(HoledEntropyError):
    """Boundary orbits do not close into a finite Markov partition."""
