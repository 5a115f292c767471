"""Exception types shared across the package."""

DEFAULT_BOUND = 10**6  # most sequences enumerated, and most shifts swept, before EnumerationBoundError


class InvalidDistributionError(ValueError):
    """Probabilities are negative, don't sum to one, or are otherwise malformed."""


class ContractViolationError(ValueError):
    """An internal precondition was violated (e.g. renormalizing a code outside its interval)."""


class ParameterError(ValueError):
    """A caller-supplied parameter is out of range."""


class InvalidPrefixError(ValueError):
    """A conditional was requested for a prefix that is already complete."""


class InvalidSequenceError(ValueError):
    """A sequence contains out-of-vocabulary tokens or violates EOS/length rules."""


class InvalidModelError(ValueError):
    """A model definition is inconsistent (non-normalized table, missing rows, ...)."""


class EmptyIntervalError(ValueError):
    """A zero-probability sequence has no codebook interval."""


class EnumerationBoundError(ValueError):
    """The model's sequence space exceeds the configured enumeration bound."""


class InputError(ValueError):
    """A CLI input file or flag combination is unusable."""
