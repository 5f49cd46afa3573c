"""Corpus helpers and a pinned table of converter indices.

The benchmark checks that each index is valid, not that it is unchanged, so
the table below, recorded before the vague side stopped re-normalising its
rationals, is what catches a silent change of index.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from effmeas import (
    CauchyReal,
    PolyFunc,
    limit_from_vague,
    specker_sequence,
    supported_from_poly,
    uniformize_vague,
    vague_to_weak,
)
from effmeas.corpora import _first_below, builtin_function, corpus_by_name
from effmeas.functions import co_name_of_poly


def first_below_loop(target: Fraction) -> int:
    """The counting loop, kept as the oracle for the bit-length formula."""
    n = 0
    while Fraction(1, 2**n) >= target:
        n += 1
    return n


class TestFirstBelow:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**200), st.integers(1, 2**200))
    def test_matches_loop(self, p, q):
        t = Fraction(p, q)
        assert _first_below(t) == first_below_loop(t)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_targets_above_one(self, q, extra):
        t = Fraction(q + extra, q)
        assert _first_below(t) == first_below_loop(t) == 0

    @given(st.integers(-200, 200))
    def test_exact_powers_of_two(self, k):
        t = Fraction(2) ** k
        assert _first_below(t) == first_below_loop(t) == max(0, 1 - k)

    @pytest.mark.parametrize("t", [Fraction(0), Fraction(-1, 3), Fraction(-5)])
    def test_nonpositive_target_rejected(self, t):
        with pytest.raises(ValueError):
            _first_below(t)


V2W_INDICES = {
    (fam, fname): tuple(range(11, 21))
    for fam in ("deltashrink", "mixture", "deltadrift")
    for fname in ("constant-one", "hat", "clamped-identity")
}

UNIFORMIZE_POLYS = (
    ((-1, 0), (Fraction(1, 2), Fraction(3, 2)), (2, 0)),
    ((Fraction(-5, 2), 0), (-1, -1), (0, Fraction(1, 4)), (Fraction(3, 4), 2), (Fraction(7, 4), 0)),
)
UNIFORMIZE_NS = (2, 4, 6, 8)
UNIFORMIZE_INDICES = {
    (0, "deltashrink"): (4, 6, 8, 10),
    (0, "mixture"): (4, 6, 8, 10),
    (1, "deltashrink"): (5, 7, 9, 11),
    (1, "mixture"): (5, 7, 9, 11),
}

SPECKER_PERM = [(7 * i) % 16 for i in range(16)]
SPECKER_LOWER = tuple(
    Fraction(q)
    for q in ("0", "0", "0", "0", "0", "133/32768", "389/32768", "517/32768",
              "581/32768", "613/32768", "629/32768")
)


class TestPinnedIndices:
    @pytest.mark.parametrize("fam,fname", sorted(V2W_INDICES))
    def test_vague_to_weak(self, fam, fname):
        got = []
        for N in range(1, 11):
            c = corpus_by_name(fam)
            p, _ = builtin_function(fname)
            got.append(vague_to_weak(
                c.seq, c.limit, c.tm, c.vague_oracle,
                co_name_of_poly(p), int(p.bound().__ceil__()), N,
            ))
        assert tuple(got) == V2W_INDICES[fam, fname]

    @pytest.mark.parametrize("i,fam", sorted(UNIFORMIZE_INDICES))
    def test_uniformize_vague(self, i, fam):
        got = []
        for N in UNIFORMIZE_NS:
            c = corpus_by_name(fam)
            f = supported_from_poly(PolyFunc(UNIFORMIZE_POLYS[i], "zero-outside"))
            got.append(uniformize_vague(c.seq, c.limit, c.vague_oracle, f, N))
        assert tuple(got) == UNIFORMIZE_INDICES[i, fam]

    def test_specker_lower_bounds(self):
        total = sum((Fraction(1, 2 ** (v + 1)) for v in SPECKER_PERM), Fraction(0))
        sp = specker_sequence(iter(SPECKER_PERM))
        rec = limit_from_vague(sp.seq, sp.vague_oracle(), CauchyReal.from_rational(total))
        lower = rec.interval_mass_lower(Fraction(1, 2), Fraction(9, 2))
        assert tuple(lower.bound(t) for t in range(11)) == SPECKER_LOWER
