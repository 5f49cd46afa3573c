"""Exception types shared across the package, and :func:`show` for their messages."""


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


def show(q) -> str:
    """``str(q)`` for a rational in a message, or its sign and bit lengths
    where its digits pass the interpreter's limit on ``int`` to ``str``
    conversion: never raises and never changes the limit."""
    try:
        return str(q)
    except ValueError:
        n, d = q.numerator, q.denominator
        return f"a {'negative ' * (n < 0)}rational of {abs(n).bit_length()}/{d.bit_length()} bits"
