"""Exception hierarchy shared across the package."""


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


def shown(value: object) -> str:
    """``str(value)`` cut to 40 characters and "...", as an error line quotes it."""
    text = str(value)
    return text if len(text) <= 40 else text[:40] + "..."
