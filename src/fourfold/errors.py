"""Exception hierarchy shared across the package, and how an error line
quotes a value."""

import sys


class FourfoldError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(FourfoldError):
    """Unknown building-block id or out-of-range family parameter."""


class SurgeryError(FourfoldError):
    """Invalid surgery input (e.g. an empty connected sum)."""


class PremiseError(FourfoldError):
    """A theorem's structural precondition is violated."""


class NonIntegralError(FourfoldError):
    """A quantity that must be an integer is not; signals inadmissible input."""


class CapacityError(FourfoldError):
    """Input exceeds a documented size cap (e.g. ``model.PIECE_CAP``)."""


def int_str_limit() -> int:
    """The interpreter's int-str digit limit, or its default when the limit
    is disabled (0): the default is what stops ``--k 1e10000000`` from being
    expanded and its derived report printed."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def digit_bound(value: int) -> int:
    """At least the number of decimal digits of ``value``, estimated from its
    bit length with 30103 / 100000, just over log10 2, so never too small.
    Unlike ``len(str(value))`` it costs nothing and never meets the int-str
    limit."""
    return abs(value).bit_length() * 30103 // 100000 + 1


def shown(value: object) -> str:
    """``str(value)`` cut to 40 characters and "...", as an error line quotes it.

    An int that may have more than ``int_str_limit()`` digits is named by its
    ``digit_bound`` instead, which ``str`` would refuse (or, with the limit
    disabled, take time quadratic in the length)."""
    if isinstance(value, int):
        digits = digit_bound(value)
        if digits > int_str_limit():
            return f"<an integer of about {digits} digits>"
    text = str(value)
    return text if len(text) <= 40 else text[:40] + "..."
