"""Exception hierarchy shared across the toolkit, the one rule for count
arguments (orders, sizes, levels, indices, step caps) and for integer text,
and the one reader of the ``KCH_MAX_STEPS`` work cap."""

import os
import re
from string import whitespace


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


def check_count(
    value, what: str, *, least: int | None = 0, cap: int | None = None, cap_name: str = ""
) -> int:
    """``value`` if it is an ``int`` (not a ``bool``, float or string) of at
    least ``least`` (any int when None) and at most ``cap`` (no cap when None).

    Raises ``DomainError`` for a non-int or a value below ``least``, and
    ``ResourceLimitError`` quoting the value and the cap past ``cap``.
    """
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{what} must be {'nonnegative' if least == 0 else f'at least {least}'}")
    if cap is not None and value > cap:
        raise ResourceLimitError(f"{what} {value} exceeds the {cap_name or 'cap'} {cap}")
    return value


def _integer_text(text: str) -> int:
    """The integer of an optional sign and ASCII digits between ASCII whitespace
    (``int`` alone reads any Unicode digit, space or underscore), else ``ValueError``."""
    text = text.strip(whitespace)
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past Python's int conversion limit
        raise ValueError(f"integer of {len(text)} digits is too long") from None


def max_steps_limit(default: int, given: int | None = None) -> int:
    """The step cap: ``given`` if not None, else the ``KCH_MAX_STEPS``
    environment cap if set, else the caller's default.  Either must be a
    positive integer; the environment's is read by ``_integer_text``."""
    if given is not None:
        return check_count(given, "max_steps", least=1)
    raw = os.environ.get("KCH_MAX_STEPS")
    if raw is None:
        return default
    try:
        limit = _integer_text(raw)
    except ValueError:
        raise DomainError(f"KCH_MAX_STEPS must be an integer, got {raw!r}") from None
    return check_count(limit, "KCH_MAX_STEPS", least=1)
