"""Exception types shared across the package."""


class EffmeasError(Exception):
    """Base class for all package errors."""


class NameViolation(EffmeasError):
    """A rational stream broke the Cauchy-name gap discipline."""


class MonotonicityViolation(EffmeasError):
    """A bound stream that must be monotone decreased (or increased)."""


class MalformedInterval(EffmeasError):
    pass


class EmptyCompact(EffmeasError):
    """A compact name produced an empty cover."""


class InsufficientNameProgress(EffmeasError):
    """A function name did not certify tight enough boxes within fuel."""


class UnsupportedMeasureClass(EffmeasError):
    pass


class SearchExhausted(EffmeasError):
    """A fuel-bounded search terminated without an answer."""


class DuplicateEnumeration(EffmeasError):
    """An enumeration that must be injective repeated an element."""


class DivergenceDetected(EffmeasError):
    """Certified oscillation refutes the caller-asserted convergence."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ContractViolation(EffmeasError):
    """A supplied certificate (modulus/witness) failed its contract."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ParseError(EffmeasError):
    """Malformed input; carries the offending 1-based line number.

    ``line_no`` is None when no line is at fault, as for a file that cannot
    be read or written at all.
    """

    def __init__(self, line_no, message):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
