"""Real numbers as rational streams.

Three name disciplines are supported:

* :class:`CauchyReal` -- a rational stream with ``|q_n - q_{n+1}| < 2^{-n}``,
  hence ``|q_n - lim| <= 2^{-n+1}``;
* :class:`LowerReal` -- a nondecreasing stream of lower bounds whose
  supremum is the represented value (an enumeration of the left cut);
* :class:`UpperReal` -- the mirror image for upper bounds, the same class
  body with the direction flipped.

All validation is lazy: invariants are checked at the first pull that can
refute them, never eagerly.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import gt, lt
from typing import Union

from .errors import MalformedInterval, MonotonicityViolation, NameViolation, show
from .streams import Fuel, Stream

RationalLike = Union[Fraction, int]


@functools.lru_cache(maxsize=256)
def _pow2(n: int) -> Fraction:
    """2^-n, exact.

    A Fraction is immutable, so one instance per exponent is shared by every
    caller; the memo is bounded, so a huge precision cannot pin memory.
    """
    return Fraction(1, 1 << n) if n >= 0 else Fraction(1 << -n)


def _scaled(p: int, q: int, n: int) -> tuple[int, int]:
    """``int``s a, b with a/b = (p/q) 2^n, for any sign of n: p shifted left
    when n >= 0, q when n < 0.  Comparing a with b compares p/q with 2^-n."""
    return (p << n, q) if n >= 0 else (p, q << -n)


def _exp_above(p: int, q: int) -> int:
    """Least integer e with p/q < 2^e, for positive ints p and q, coprime or
    not: at e = bitlen(p) - bitlen(q), 2^(e-1) < p/q < 2^(e+1)."""
    e = p.bit_length() - q.bit_length()
    return e if (p < q << e if e >= 0 else p << -e < q) else e + 1


def _first_below(target: Fraction) -> int:
    """Smallest n >= 0 with 2^-n < target: 1/target < 2^n.  A target <= 0
    has no such n."""
    p, q = target.numerator, target.denominator
    if p <= 0:
        raise ValueError(f"need a positive target, got {target}")
    return max(0, _exp_above(q, p))


def _fraction(v) -> Fraction:
    """``v`` as a Fraction, built only when ``v`` is not exactly one already;
    a value no Fraction takes, ``None`` say, and any ``float``, whose binary
    value need not be the decimal it prints, raise :class:`MalformedInterval`.
    Its message shows ``repr(v)``, or the type where that repr raises, as for
    a tuple holding an ``int`` past the interpreter's digit limit."""
    if type(v) is Fraction:
        return v
    try:
        if not isinstance(v, float):
            return Fraction(v)
    except (TypeError, ValueError, ArithmeticError):
        pass
    try:
        shown = repr(v)
    except Exception:  # whatever the repr raises, the refusal stays this one
        shown = f"a {type(v).__name__} that cannot be printed"
    raise MalformedInterval(f"expected a rational number, got {shown}")


class CauchyReal:
    """A real number given by a validated Cauchy name."""

    def __init__(self, terms):
        """``terms``: callable ``n -> Fraction`` or an iterable of rationals."""

        def check_gap(i: int, prefix: list):
            if i >= 1 and abs(prefix[i - 1] - prefix[i]) >= _pow2(i - 1):
                raise NameViolation(
                    f"name violation at index {i - 1}: "
                    f"|q_{i - 1} - q_{i}| = {show(abs(prefix[i - 1] - prefix[i]))} >= 2^-{i - 1}"
                )

        self._terms = Stream(terms, validate=check_gap)

    @classmethod
    def from_rational(cls, q: RationalLike) -> "CauchyReal":
        q = _fraction(q)
        return cls(lambda _n: q)

    def approx(self, n: int) -> Fraction:
        """``q_n`` of the name; within ``2^{-n+1}`` of the real."""
        if n < 0:
            raise ValueError("precision exponent must be nonnegative")
        return self._terms[n]


def make_cauchy(terms) -> CauchyReal:
    """Wrap a rational stream as a lazily validated Cauchy name."""
    return CauchyReal(terms)


class _Bounds:
    """Monotone rational bounds on a real, checked at each pull: a bound
    ``_worse`` than the one before is refused.  The subclasses set the direction."""

    _worse, _sign = lt, "<"

    def __init__(self, bounds):
        worse, sign = self._worse, self._sign

        def check_monotone(i: int, prefix: list):
            if i >= 1 and worse(prefix[i], prefix[i - 1]):
                raise MonotonicityViolation(
                    f"monotonicity violation at index {i}: "
                    f"{show(prefix[i])} {sign} {show(prefix[i - 1])}"
                )

        self._bounds = Stream(bounds, validate=check_monotone)

    @classmethod
    def from_rational(cls, q: RationalLike):
        q = _fraction(q)
        return cls(lambda _n: q)

    def bound(self, n: int) -> Fraction:
        return self._bounds[n]

    def approx(self, fuel: Fuel) -> Fraction:
        """The last bound enumerated within fuel, the best so far."""
        return self._bounds[fuel.budget]


class LowerReal(_Bounds):
    """A left-c.e. real: nondecreasing rational lower bounds with sup = value."""


class UpperReal(_Bounds):
    """A right-c.e. real: nonincreasing rational upper bounds with inf = value."""

    _worse, _sign = gt, ">"
