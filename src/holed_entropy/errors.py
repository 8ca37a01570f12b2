"""Exception types shared by the engines."""


class HoledEntropyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(HoledEntropyError):
    """A parameter is outside its admissible range or malformed."""


class ModeMismatchError(HoledEntropyError):
    """Exact and floating values were mixed in one computation."""


class AmbiguousBoundaryError(HoledEntropyError):
    """A float-mode value is too close to a classification boundary.

    Rerun in exact mode; float comparisons cannot decide the branch.
    """


class EmptyPartitionError(HoledEntropyError):
    """An operation required a nonempty cylinder collection."""


class ResourceLimitError(HoledEntropyError):
    """A configured size cap was exceeded before the computation finished."""


class TruncationError(HoledEntropyError):
    """A requested series truncation exceeds the available orbit data."""


class NoRootError(HoledEntropyError):
    """The determinant has no zero in (0, 1); entropy is zero at this truncation."""


class NotFinitelyMarkovError(HoledEntropyError):
    """Boundary orbits do not close into a finite Markov partition."""
