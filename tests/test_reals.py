"""Cauchy names and the monotone bound streams."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from effmeas import (
    CauchyReal,
    Fuel,
    LowerReal,
    UpperReal,
    MonotonicityViolation,
    NameViolation,
    make_cauchy,
)
from effmeas.reals import _pow2, _scaled


def wobbly(q: Fraction) -> CauchyReal:
    """A legal non-constant name of q: q + (-1)^n 2^-(n+2)."""
    return make_cauchy(lambda n: q + (-1) ** n * _pow2(n + 2))


class TestCauchyNames:
    def test_gap_violation_raises_lazily(self):
        x = make_cauchy(iter([Fraction(0), Fraction(2), Fraction(2)]))
        assert x.approx(0) == 0  # index 0 alone is fine
        with pytest.raises(NameViolation, match="name violation at index 0"):
            x.approx(1)

    def test_rejected_name_stays_rejected(self):
        x = make_cauchy(iter([0, 5, 5, 5]))
        for _ in range(2):
            with pytest.raises(NameViolation, match="name violation at index 0"):
                x.approx(1)
        with pytest.raises(NameViolation):
            x.approx(0)

    def test_wobbly_name_is_legal(self):
        x = wobbly(Fraction(1, 3))
        for n in range(10):
            assert abs(x.approx(n) - Fraction(1, 3)) <= _pow2(n + 2)

    def test_from_rational_is_constant(self):
        x = CauchyReal.from_rational(Fraction(5, 7))
        assert x.approx(0) == x.approx(20) == Fraction(5, 7)


class TestMonotoneReals:
    def test_lower_real_monotone_violation(self):
        x = LowerReal(iter([Fraction(0), Fraction(1), Fraction(1, 2)]))
        assert x.bound(1) == 1
        with pytest.raises(MonotonicityViolation, match=r"^monotonicity violation at index 2: 1/2 < 1$"):
            x.bound(2)

    def test_upper_real_monotone_violation(self):
        x = UpperReal(iter([Fraction(3), Fraction(2), Fraction(5, 2)]))
        assert x.bound(1) == 2
        with pytest.raises(MonotonicityViolation, match=r"^monotonicity violation at index 2: 5/2 > 2$"):
            x.bound(2)

    def test_upper_is_not_lower(self):
        assert not isinstance(UpperReal.from_rational(1), LowerReal)

    @pytest.mark.parametrize(
        "read, error",
        [
            (lambda big: LowerReal(iter([big, big - 1])).bound(1), MonotonicityViolation),
            (lambda big: UpperReal(iter([big, big + 1])).bound(1), MonotonicityViolation),
            (lambda big: make_cauchy(iter([big, -big])).approx(1), NameViolation),
        ],
        ids=["lower", "upper", "cauchy"],
    )
    def test_violation_of_huge_values_raised_as_itself(self, read, error):
        big = Fraction(10**5000 + 1, 3)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(error, match=r"a rational of 1661[01]/2 bits"):
                read(big)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_approx_is_the_bound_at_the_fuel(self):
        # closed_neighborhood reads a distance's bounds through approx(Fuel(m))
        a = LowerReal(lambda n: Fraction(1) - _pow2(n))
        for k in (0, 5, 9):
            assert a.approx(Fuel(k)) == a.bound(k) == Fraction(1) - _pow2(k)


class TestPow2:
    @given(st.integers(-300, 300))
    def test_exact_value(self, n):
        assert _pow2(n) == (Fraction(1, 2**n) if n >= 0 else Fraction(2**-n))
        assert type(_pow2(n)) is Fraction

    def test_one_shared_instance_per_exponent(self):
        assert _pow2(37) is _pow2(37)
        assert _pow2(-5) is _pow2(-5)

    def test_memo_is_bounded(self):
        for n in range(2000):
            _pow2(n)
        assert _pow2.cache_info().currsize <= 256


class TestScaled:
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-64, 64))
    def test_value_for_either_sign_of_the_exponent(self, p, q, n):
        a, b = _scaled(p, q, n)
        assert type(a) is int and type(b) is int and b > 0
        assert Fraction(a, b) == Fraction(p, q) * _pow2(-n)
        # the comparison the converters make: p/q against 2^-n
        assert (a < b) == (Fraction(p, q) < _pow2(n)) and (a == b) == (Fraction(p, q) == _pow2(n))
