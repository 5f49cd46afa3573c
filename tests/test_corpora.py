"""Corpus helpers and a pinned table of converter indices.

The benchmark checks that each index is valid, not that it is unchanged, so
the table below, recorded before the vague side stopped re-normalising its
rationals, is what catches a silent change of index.
"""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import (
    CauchyReal,
    MeasureSeq,
    Modulus,
    PolyFunc,
    UnsupportedMeasureClass,
    constant_func,
    limit_from_vague,
    specker_sequence,
    supported_from_poly,
    uniformize_vague,
    vague_to_weak,
)
from effmeas.convergence import validate_total_mass_modulus
from effmeas.corpora import (
    DriftingAtomFamily,
    _deltan_vague_oracle,
    _exp_above,
    _first_below,
    builtin_function,
    corpus_by_name,
)
from effmeas.functions import co_name_of_poly
from effmeas.measures import DiscreteMeasure
from effmeas.reals import _pow2


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**80), st.integers(1, 2**80), st.integers(1, 2**40))
    def test_exp_above_is_the_least_exponent(self, p, q, g):
        # unreduced pairs too: p * g / (q * g) is the same number
        e = _exp_above(p * g, q * g)
        x = Fraction(p, q)
        assert x < Fraction(2) ** e and not x < Fraction(2) ** (e - 1)


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


# rationals with mixed and dyadic denominators
_DEN = st.sampled_from((1, 2, 3, 4, 5, 7, 8, 12, 16, 64, 1024))
_LOC = st.builds(Fraction, st.integers(-8, 8), _DEN)
_WEIGHT = st.builds(Fraction, st.integers(1, 8), _DEN)
_ATOMS = st.lists(st.tuples(_LOC, _WEIGHT, st.integers(0, 1)), min_size=1, max_size=4)


class TestIntegralOracle:
    @settings(max_examples=100, deadline=None)
    @given(_ATOMS, st.lists(_LOC, min_size=2, max_size=6, unique=True), st.lists(_LOC, min_size=4, max_size=4))
    def test_index_is_the_counting_loop(self, atoms, xs, ys):
        """The modulus of lw = L * total at N is the least n >= 0 with
        2^-n < 2^-N / lw, for zero-outside and constant-extend polygons."""
        fam = DriftingAtomFamily(atoms)
        xs = sorted(xs)
        ys = [ys[i % len(ys)] for i in range(len(xs))]
        for p in (PolyFunc(tuple(zip(xs, ys)), "constant-extend"),
                  PolyFunc(tuple(zip(xs, [Fraction(0)] + ys[1:-1] + [Fraction(0)])), "zero-outside")):
            lw = p.lipschitz() * fam.total
            mod = fam.integral_oracle(p)
            for N in range(43):
                assert mod.of(N) == (first_below_loop(_pow2(N) / lw) if lw else 0)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled: any type must match
        return type(exc), str(exc), getattr(exc, "witness", None)


class TestDriftingAtomFamily:
    @settings(max_examples=200, deadline=None)
    @given(
        atoms=_ATOMS,
        start=st.integers(-3, 10),
        slope=st.integers(0, 2),
        window=st.integers(0, 12),
    )
    # the drifting atom reaches 1/4 at n = 2 and merges with the fixed one
    @example(
        atoms=[(Fraction(0), Fraction(1, 2), 1), (Fraction(1, 4), Fraction(1, 3), 0)],
        start=0, slope=1, window=4,
    )
    def test_total_mass_matches_members(self, atoms, start, slope, window):
        fam = DriftingAtomFamily(atoms)
        for n in range(65):
            assert fam.total_mass(n) == fam[n].exact_total_mass()
        tm = Modulus(lambda N: start + slope * N)
        plain = MeasureSeq(DriftingAtomFamily(atoms).member)
        check = validate_total_mass_modulus
        assert _outcome(check, fam, tm) == _outcome(check, plain, tm)
        for lo in (start, start + slope):
            hi = lo + window
            assert _outcome(fam.mass_spread, lo, hi) == _outcome(plain.mass_spread, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(
        atoms=st.lists(st.tuples(_LOC, _WEIGHT, st.integers(0, 1)), min_size=1, max_size=3),
        twin=st.one_of(st.none(), st.tuples(st.integers(0, 2), _WEIGHT)),
        meet=st.one_of(st.none(), st.tuples(_LOC, st.integers(0, 8), _WEIGHT, _WEIGHT)),
    )
    # one limit location, both drift flags: they part at every n and meet
    # the fixed atom at 1/4 at n = 2
    @example(
        atoms=[(Fraction(0), Fraction(1, 2), 1), (Fraction(1, 4), Fraction(1, 3), 0)],
        twin=(0, Fraction(1, 5)), meet=None,
    )
    def test_members_match_the_constructor(self, atoms, twin, meet):
        """The limit and members 0..64, built on the family's lattice, against
        ``DiscreteMeasure`` built from the drifted ``Fraction``s: one limit
        location with both drift flags, and a drifting atom that meets a
        fixed one at some n."""
        if twin is not None:
            x, _, d = atoms[twin[0] % len(atoms)]
            atoms = [*atoms, (x, twin[1], 1 - d)]
        if meet is not None:
            y, n, w, v = meet
            atoms = [*atoms, (y - _pow2(n), w, 1), (y, v, 0)]
        fam = DriftingAtomFamily(atoms)

        def values(mu):
            xs, ws, lx, lw = mu.lattice()
            assert all(a < b for a, b in zip(xs, xs[1:]))
            return [Fraction(x, lx) for x in xs], [Fraction(w, lw) for w in ws]

        pairs = [(fam.limit(), DiscreteMeasure(tuple((x, w) for x, w, _ in atoms)))]
        pairs += [(fam[n], DiscreteMeasure(tuple((x + d * _pow2(n), w) for x, w, d in atoms))) for n in range(65)]
        for got, want in pairs:
            assert values(got) == values(want)
            assert got.exact_total_mass() == want.exact_total_mass()
            assert got.atoms == want.atoms

    def test_pinned_merge_case_merges(self):
        fam = DriftingAtomFamily(
            [(Fraction(0), Fraction(1, 2), 1), (Fraction(1, 4), Fraction(1, 3), 0)]
        )
        assert fam[2].atoms == ((Fraction(1, 4), Fraction(5, 6)),)

    @pytest.mark.parametrize("w", [Fraction(0), Fraction(-1, 3)])
    def test_nonpositive_weight_refused(self, w):
        with pytest.raises(ValueError, match="atom weights must be positive"):
            DriftingAtomFamily([(Fraction(0), Fraction(1), 1), (Fraction(1), w, 0)])

    @pytest.mark.parametrize(
        "fam",
        ["deltashrink", "deltan", "mixture", "deltadrift", "specker", "specker:identity", "specker:squares"],
    )
    def test_corpus_freed_without_cycle_collector(self, fam):
        c = corpus_by_name(fam)
        c.seq[3]
        ref = weakref.ref(c.seq)
        gc.disable()
        try:
            del c
            assert ref() is None
        finally:
            gc.enable()

    def test_negative_total_mass_index_refused(self):
        with pytest.raises(IndexError):
            corpus_by_name("mixture").seq.total_mass(-1)

    @pytest.mark.parametrize("fam", ["deltashrink", "mixture", "deltadrift"])
    def test_total_mass_check_reads_no_mass(self, fam, monkeypatch):
        # a passing check takes the window's spread whole, not mass by mass
        c = corpus_by_name(fam)
        read = []
        total_mass = c.seq.total_mass
        monkeypatch.setattr(c.seq, "total_mass", lambda n: read.append(n) or total_mass(n))
        validate_total_mass_modulus(c.seq, c.tm)
        assert read == []

    @pytest.mark.parametrize("fam", ["deltashrink", "mixture", "deltadrift"])
    @pytest.mark.parametrize("fname", ["constant-one", "hat", "clamped-identity"])
    def test_vague_to_weak_builds_few_members(self, fam, fname):
        # the total-mass check reads 41 masses; none of them needs a member
        for N in (1, 5, 10):
            c = corpus_by_name(fam)
            built = []
            member = c.seq._at
            c.seq._at = lambda n: built.append(n) or member(n)
            p, _ = builtin_function(fname)
            vague_to_weak(
                c.seq, c.limit, c.tm, c.vague_oracle,
                co_name_of_poly(p), int(p.bound().__ceil__()), N,
            )
            assert len(built) <= 2, built


class TestSpeckerCorpus:
    """``corpus_by_name`` is the one registry of SEQ names, Specker included."""

    @pytest.mark.parametrize(
        "name, enum",
        [("specker", "identity"), ("specker:identity", "identity"), ("specker:squares", "squares")],
    )
    def test_specker_names(self, name, enum):
        c = corpus_by_name(name)
        values = [0, 1, 2, 3] if enum == "identity" else [0, 1, 4, 9]
        sp = specker_sequence(iter(values))
        assert [c.seq[n].atoms for n in range(4)] == [sp.seq[n].atoms for n in range(4)]
        assert c.limit.prefix(4) == [(Fraction(i), sp.weight(i)) for i in range(4)]
        hat, _ = builtin_function("hat")
        assert c.vague_oracle(hat).of(3) == sp.vague_modulus(hat).of(3) == 4
        assert (c.weak_oracle, c.tm, c.ad_modulus) == (None, None, None)

    @pytest.mark.parametrize("name", ["speckerfoo", "specker:nosuch", "specker:", "Specker", "nosuch"])
    def test_other_names_refused(self, name):
        with pytest.raises(KeyError):
            corpus_by_name(name)


class TestDeltanOracle:
    def test_constant_extend_polygon_refused(self):
        with pytest.raises(UnsupportedMeasureClass, match="compactly supported"):
            _deltan_vague_oracle(constant_func(Fraction(1)))

    def test_zero_polygon_index_is_zero(self):
        zero, _ = builtin_function("zero")
        assert _deltan_vague_oracle(zero).of(0) == 0
