"""Exception hierarchy shared across the package."""


class ReinhardtError(Exception):
    """Base class for all library errors."""


class SpecError(ReinhardtError):
    """Malformed or inconsistent domain specification."""


class EmptyDomainError(SpecError):
    """The constraint system describes an empty open domain."""


class RayCapError(ReinhardtError):
    """A double description went past its cap of intermediate rays."""


class BoundaryIndeterminate(ReinhardtError):
    """A sign could not be resolved at the maximum working precision.

    Raised instead of guessing when an interval comparison still straddles
    zero after the precision ladder is exhausted.  ``what`` names the
    quantity, ``bits`` is the last working precision and ``interval`` holds
    the directed decimal endpoints (lo, hi) of its last enclosure.
    """

    def __init__(self, message: str, what: str = "", bits: int = 0,
                 interval: tuple[str, str] = ("", "")):
        super().__init__(message)
        self.what = what
        self.bits = bits
        self.interval = interval


class MonteCarloError(ReinhardtError):
    """Monte-Carlo estimation failed (unbounded domain, zero acceptance)."""
