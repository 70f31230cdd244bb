"""Exception hierarchy shared across the toolkit, and the one reader of the
``KCH_MAX_STEPS`` work cap."""

import os


class KchError(Exception):
    """Base class for all toolkit errors."""


class ParseError(KchError):
    """Malformed input text: polynomial grammar, PD code, or DGA document."""


class RingMismatchError(KchError):
    """Operands were declared over different variable rings."""


class DomainError(KchError):
    """Input lies outside an operation's domain (zero torus value, singular
    quadratic form, branch point, ...)."""


class ResourceLimitError(KchError):
    """A configured work cap was exceeded before the computation finished."""


class VerificationError(KchError):
    """A dual-route consistency check failed; the result cannot be trusted."""


def max_steps_limit(default: int) -> int:
    """The ``KCH_MAX_STEPS`` environment cap if set, else the caller's default."""
    raw = os.environ.get("KCH_MAX_STEPS")
    if raw is None:
        return default
    try:
        limit = int(raw)
    except ValueError:
        raise DomainError(f"KCH_MAX_STEPS must be an integer, got {raw!r}") from None
    if limit <= 0:
        raise DomainError("KCH_MAX_STEPS must be positive")
    return limit
