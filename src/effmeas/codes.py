"""The fixed coding of rational open intervals by natural numbers.

Every rational open interval is a ball B(a, r) with rational center a and
rational radius r > 0.  We pin one computable bijection

    N  <->  (a, r) in Q x Q_{>0}

by composing the Calkin-Wilf enumeration of the rationals with the Cantor
pairing function.  Nothing downstream depends on which bijection is used,
but fixing it makes codes reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .reals import _fraction


def cantor_pair(u: int, v: int) -> int:
    return (u + v) * (u + v + 1) // 2 + v


def cantor_unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    v = n - t
    return w - v, v


def nat_to_posrat(n: int) -> Fraction:
    """Calkin-Wilf tree node ``n >= 1`` as a positive rational."""
    if n < 1:
        raise ValueError("positive-rational codes start at 1")
    a, b = 1, 1
    for bit in bin(n)[3:]:  # walk from the root along the bits below the MSB
        if bit == "0":
            b = a + b
        else:
            a = a + b
    return Fraction(a, b)


def posrat_to_nat(q: Fraction) -> int:
    """Inverse of :func:`nat_to_posrat`."""
    if q <= 0:
        raise ValueError("expected a positive rational")
    p, d = q.numerator, q.denominator
    bits: list[str] = []
    while (p, d) != (1, 1):
        if p < d:
            k = (d - 1) // p
            d -= k * p
            bits.append("0" * k)
        else:
            k = (p - 1) // d
            p -= k * d
            bits.append("1" * k)
    return int("1" + "".join(reversed(bits)), 2)


def nat_to_rat(n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    q = nat_to_posrat((n + 1) // 2)
    return q if n % 2 == 1 else -q


def rat_to_nat(q: Fraction) -> int:
    if q == 0:
        return 0
    k = posrat_to_nat(abs(q))
    return 2 * k - 1 if q > 0 else 2 * k


def decode_ball(i: int) -> tuple[Fraction, Fraction]:
    """Code ``i`` as (center, radius) with radius > 0."""
    u, v = cantor_unpair(i)
    return nat_to_rat(u), nat_to_posrat(v + 1)


def encode_ball(center: Fraction, radius: Fraction) -> int:
    center, radius = _fraction(center), _fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    return cantor_pair(rat_to_nat(center), posrat_to_nat(radius) - 1)


def encode_open_interval(left: Fraction, right: Fraction) -> int:
    left, right = _fraction(left), _fraction(right)
    if not left < right:
        raise ValueError("need left < right")
    c = (left + right) / 2
    return encode_ball(c, right - c)


def decode_open_interval(i: int) -> tuple[Fraction, Fraction]:
    c, r = decode_ball(i)
    return c - r, c + r


def encode_pair_code(i: int, j: int) -> int:
    """Code for a pair of interval codes (used by compact-open names)."""
    return cantor_pair(i, j)


def decode_pair_code(n: int) -> tuple[int, int]:
    return cantor_unpair(n)
