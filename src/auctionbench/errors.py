"""Exception hierarchy for the toolkit."""


class AuctionBenchError(Exception):
    """Base class for all toolkit errors."""


class NegativeValue(AuctionBenchError):
    """A support value (or other quantity required non-negative) is negative, or an item value is not finite."""


class EmptySupport(AuctionBenchError):
    """A distribution was constructed with no support points."""


class NonPositiveProbability(AuctionBenchError):
    """A probability mass is zero or negative."""


class ProbabilityMassError(AuctionBenchError):
    """Input probabilities deviate from total mass 1 by more than the renormalization tolerance."""


class TooFewBidders(AuctionBenchError):
    """An operation needs more bidders than were supplied."""


class ShapeMismatch(AuctionBenchError):
    """An array argument has the wrong shape."""


class BadItemIndex(AuctionBenchError):
    """An item index is out of range."""


class FloorNotInSupport(AuctionBenchError):
    """The floor passed to a restricted ironing is not a support point."""


class EnumerationCapExceeded(AuctionBenchError):
    """An exact enumeration would exceed the configured cap.

    The message names the Monte-Carlo entry point when one exists.
    """


def size_text(k: int) -> str:
    """A count for a cap message: its digits up to 2^64, else "about 2^e" (Python prints no int past 4,300 digits)."""
    return str(k) if k.bit_length() <= 64 else f"about 2^{k.bit_length() - 1}"


class InstanceTooLarge(AuctionBenchError):
    """The mechanism LP for this instance exceeds the configured size cap."""


class LPNumericalFailure(AuctionBenchError):
    """The LP solver could not certify its answer numerically."""


class Unbounded(AuctionBenchError):
    """The LP is unbounded; for mechanism LPs this signals a construction bug."""


class MaxIterations(AuctionBenchError):
    """The simplex iteration limit was hit."""


class ConfigParseError(AuctionBenchError):
    """An instance config file could not be parsed or validated."""


class OutputError(AuctionBenchError):
    """A result could not be written to the file asked for."""
