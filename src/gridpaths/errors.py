"""Exception types shared across the package."""


class GridPathsError(Exception):
    """Base class for every domain error raised by this package."""


class WrongMode(GridPathsError):
    """Operation requires the other representation mode (VPG vs EPG)."""


class GeneralPositionViolation(GridPathsError):
    """Two EPG paths share a corner point where weak general position is
    required."""


class UnknownId(GridPathsError):
    """A path id does not occur in the representation."""


class TooFewPaths(GridPathsError):
    """The operation needs at least two paths."""


class NotOneString(GridPathsError):
    """The representation has an adjacent pair crossing more than once."""


class NotDominating(GridPathsError):
    """The given id set does not dominate the derived graph."""


class NotHitting(GridPathsError):
    """The given element set misses at least one set of the system."""


class NetFailure(GridPathsError):
    """Sampling failed to produce a verified net within the retry budget."""


class DegreeTooHigh(GridPathsError):
    """Reduction input has a vertex of degree greater than three."""


class LayoutFailure(GridPathsError):
    """Emitted grid paths do not realize the target adjacency."""


class TooLarge(GridPathsError):
    """Instance exceeds the exact solver's size cap."""


class GenerationExhausted(GridPathsError):
    """Rejection sampling gave up before finding a conforming instance."""


class Infeasible(GridPathsError):
    """Requested instance parameters admit no valid instance."""


class ParseError(GridPathsError):
    """Instance or graph text is malformed."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason
