"""Streams, fuel, and the rational/interval coding bijections."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from effmeas import Stream, Fuel
from effmeas.codes import (
    cantor_pair,
    cantor_unpair,
    decode_ball,
    decode_open_interval,
    decode_pair_code,
    encode_ball,
    encode_open_interval,
    encode_pair_code,
    nat_to_posrat,
    nat_to_rat,
    posrat_to_nat,
    rat_to_nat,
)


class TestStream:
    def test_memoizes_source_calls(self):
        calls = []

        def src(i):
            calls.append(i)
            return i * i

        s = Stream(src)
        assert s[3] == 9
        assert s[3] == 9
        assert calls.count(3) == 1

    def test_prefix_and_pulled(self):
        s = Stream(iter([10, 20, 30]))
        assert s.prefix(2) == [10, 20]
        assert s.pulled == 2

    def test_validation_runs_once_per_element(self):
        seen = []

        def validate(i, prefix):
            seen.append(i)
            if prefix[i] < 0:
                raise ValueError("negative")

        s = Stream(iter([1, 2, -3]), validate=validate)
        assert s[1] == 2
        with pytest.raises(ValueError):
            s[2]
        assert seen == [0, 1, 2]

    def test_rejected_term_poisons_the_stream(self):
        def validate(i, prefix):
            if prefix[i] < 0:
                raise ValueError(f"negative at {i}")

        s = Stream(iter([1, -2, 3]), validate=validate)
        with pytest.raises(ValueError) as first:
            s[1]
        for n in (1, 0, 2):
            with pytest.raises(ValueError) as again:
                s[n]
            assert again.value is first.value
        assert s.pulled == 1

    def test_fuel_requires_nonnegative(self):
        assert Fuel(3).budget == 3
        with pytest.raises(ValueError):
            Fuel(-1)


class TestCantorPair:
    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_roundtrip(self, u, v):
        assert cantor_unpair(cantor_pair(u, v)) == (u, v)

    def test_surjective_prefix(self):
        seen = {cantor_unpair(n) for n in range(66)}
        assert {(u, v) for u in range(5) for v in range(5)} <= seen


class TestRationalCodes:
    @given(st.integers(0, 10**5))
    def test_nat_to_rat_roundtrip(self, n):
        assert rat_to_nat(nat_to_rat(n)) == n

    @given(st.integers(1, 10**5))
    def test_posrat_roundtrip(self, n):
        q = nat_to_posrat(n)
        assert q > 0
        assert posrat_to_nat(q) == n

    @given(
        st.integers(-10**4, 10**4),
        st.integers(1, 10**4),
    )
    def test_every_rational_has_a_code(self, num, den):
        q = Fraction(num, den)
        assert nat_to_rat(rat_to_nat(q)) == q

    def test_posrat_enumeration_is_calkin_wilf(self):
        # the classical start of the Calkin-Wilf traversal
        got = [nat_to_posrat(n) for n in range(1, 8)]
        assert got == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(2),
            Fraction(1, 3),
            Fraction(3, 2),
            Fraction(2, 3),
            Fraction(3),
        ]


class TestIntervalCodes:
    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=64),
        st.fractions(min_value=0, max_value=20, max_denominator=64).filter(
            lambda q: q > 0
        ),
    )
    def test_ball_roundtrip(self, c, r):
        assert decode_ball(encode_ball(c, r)) == (c, r)

    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=32),
        st.fractions(min_value=-20, max_value=20, max_denominator=32),
    )
    def test_open_interval_roundtrip(self, a, b):
        if not a < b:
            return
        i = encode_open_interval(a, b)
        assert decode_open_interval(i) == (a, b)

    @given(st.integers(0, 10**5))
    def test_every_code_decodes_to_interval(self, i):
        l, r = decode_open_interval(i)
        assert l < r

    @given(st.integers(0, 10**4), st.integers(0, 10**4))
    def test_pair_code_roundtrip(self, i, j):
        assert decode_pair_code(encode_pair_code(i, j)) == (i, j)
