"""Exception types shared across the package."""


class KljnError(Exception):
    """Base class for all package errors."""


class ConfigError(KljnError):
    """Invalid configuration. Carries field-level diagnostics.

    ``problems`` is a list of "dotted.path: message" strings so callers can
    report every offending field at once instead of failing one at a time.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DegenerateInputError(KljnError):
    """An input (trace, file, measurement) is empty or too short to use."""


class AmbiguousMeasurementError(KljnError):
    """A mean-square value landed inside the guard band around a threshold."""


class InconsistentStateError(KljnError):
    """A bit-state contradicts the party's own resistor choice."""


class KeyExhaustedError(KljnError):
    """The shared key ledger has too few unconsumed bits left."""


class UnknownSpanError(KljnError):
    """An authentication tag names key bits outside the receiver's ledger."""


class InsufficientOverlapError(KljnError):
    """Exchanged records overlap by less than half after candidate shifts."""


class LivelockError(KljnError):
    """The event scheduler exceeded its event budget."""


class UnknownSeriesError(KljnError):
    """A report does not contain the requested plot series."""


class UnknownParameterError(KljnError):
    """A sweep named a config field that does not exist or is not numeric."""
