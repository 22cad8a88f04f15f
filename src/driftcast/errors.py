"""Exception types raised across the toolkit.

Every operation's error contract maps to one class here; all inherit from
DriftcastError, and those that bad input causes from InputError (exit code 2).
"""


class DriftcastError(Exception):
    """Base class for all toolkit errors."""


class InputError(DriftcastError):
    """The input stream, event list or reports are unusable as given."""


# --- ingest ---------------------------------------------------------------

class EmptySeries(InputError):
    """Input carried no data rows."""


class NonMonotoneTimestamps(InputError):
    """Timestamps repeat or go backwards."""


class NegativeReading(InputError):
    """A consumption value is negative."""


class UnparseableRow(InputError):
    """A CSV row could not be parsed; message carries the line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class GapTooLarge(InputError):
    """A run of missing slots exceeds the allowed maximum."""


class NoCompleteDay(InputError):
    """Series does not span a single complete calendar day."""


class TooFewDays(InputError):
    """Not enough days to honour the split fractions."""


class InvalidEvent(InputError):
    """Synthetic drift event is not a whole day inside the generated range."""


# --- density --------------------------------------------------------------

class EmptyInput(DriftcastError):
    """A sample vector was empty."""


class NonPositiveBandwidth(DriftcastError):
    """Kernel bandwidth must be strictly positive."""


# --- divergence -----------------------------------------------------------

class GridMismatch(DriftcastError):
    """Two densities were evaluated on different grids."""


# --- drift ----------------------------------------------------------------

class InsufficientHistory(DriftcastError):
    """Detector initialisation needs at least two days."""


class EmptyHistory(DriftcastError):
    """p-value requested before any divergence was recorded."""


class OutOfRangeDivergence(DriftcastError):
    """Divergence outside [0, 1] cannot enter the history."""


# --- forecaster -----------------------------------------------------------

class NonFiniteInput(DriftcastError):
    """Forecaster input contains NaN or infinity."""


class EmptyTrainingSet(DriftcastError):
    """Training requires at least one supervised window."""


class DivergedLoss(DriftcastError):
    """Training loss became non-finite."""


class InsufficientContext(DriftcastError):
    """Not enough preceding readings to form a forecast input."""


# --- hpo ------------------------------------------------------------------

class ExhaustedSpace(DriftcastError):
    """Every point of the search space has been evaluated."""


# --- evaluation -----------------------------------------------------------

class ZeroActual(DriftcastError):
    """An actual value is (numerically) zero, so MAPE is undefined."""


class LengthMismatch(DriftcastError):
    """Actual and forecast vectors differ in length."""


class WrongCount(DriftcastError):
    """Daily aggregation expects exactly 24 hourly pairs."""


class NegativeDuration(DriftcastError):
    """A cost entry's duration must be non-negative."""


class ZeroBaseline(DriftcastError):
    """Improvement is undefined against a zero baseline error."""


class ZeroCost(DriftcastError):
    """Trade-off score is undefined at zero cost."""


# --- pipeline -------------------------------------------------------------

class MismatchedRuns(InputError):
    """Reports being compared come from different inputs or splits."""


class ConfigError(DriftcastError):
    """Run configuration is inconsistent or incomplete."""
