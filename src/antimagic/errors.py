"""Exception types shared across the package."""


class AntimagicError(Exception):
    """Base class for all errors raised by this package."""


class BijectionError(AntimagicError):
    """Edge labels do not map the edge set one-to-one onto [1..q]."""


class LoopError(AntimagicError):
    """A vertex merge would identify two adjacent vertices."""


class ParallelEdgeError(AntimagicError):
    """An operation would create two edges between the same vertex pair."""


class SumDriftError(AntimagicError):
    """A delete-add swap changed some vertex's induced label sum."""


class UseSpecialCase(AntimagicError):
    """The requested parameters are served by a dedicated bespoke labeling."""
