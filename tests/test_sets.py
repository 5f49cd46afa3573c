"""Effectively open/closed/compact sets and their exact-geometry kernels."""

import itertools
from fractions import Fraction
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from effmeas import (
    CauchyReal,
    Fuel,
    Membership,
    PiSet,
    SigmaSet,
    closed_neighborhood,
    compact_from_closed_union,
    dist_to_closed,
    pi_from_complement,
    sigma_member,
)
import effmeas.codes as codes
import effmeas.sets as sets
from effmeas.errors import EmptyCompact, MalformedInterval
from effmeas.reals import LowerReal, _pow2
from effmeas.sets import (
    compact_hull_bounds,
    complement_of_closed,
    dist_point_to_closed,
    expand_closed,
    merge_closed,
    merge_open,
)
from effmeas.streams import Stream
from tests.conftest import exact_open, open_contains_interval, open_contains_point

frac = st.fractions(min_value=-6, max_value=6, max_denominator=24)


def open_ivs(draw_pairs):
    return [(min(a, b), max(a, b)) for a, b in draw_pairs if a != b]


class TestMergeGeometry:
    def test_merge_open_keeps_touching_apart(self):
        # (0,1) and (1,2) do not cover the point 1
        assert merge_open([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))]) == (
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(2)),
        )

    def test_merge_open_orders_infinite_endpoints_exactly(self):
        # the unbounded component sorts first however far left the other lies
        far = -(10**31)
        assert merge_open([(far, far + 1), (None, far - 5)]) == (
            (None, far - 5),
            (far, far + 1),
        )

    def test_merge_open_joins_left_unbounded(self):
        assert merge_open([(None, Fraction(3)), (None, Fraction(5))]) == ((None, Fraction(5)),)
        assert merge_open(
            [(None, Fraction(3)), (None, None), (Fraction(2), None)]
        ) == ((None, None),)

    def test_merge_closed_joins_touching(self):
        assert merge_closed(
            [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))]
        ) == ((Fraction(0), Fraction(2)),)

    @given(st.lists(st.tuples(frac, frac), max_size=6))
    def test_merge_open_preserves_membership(self, pairs):
        comps = open_ivs(pairs)
        merged = merge_open(comps)
        # sorted and disjoint (touching allowed: the shared point is outside)
        for (l0, r0), (l1, r1) in zip(merged, merged[1:]):
            assert r0 <= l1
        # membership preserved on a probe grid
        probes = {l for l, _ in comps} | {r for _, r in comps}
        probes |= {(l + r) / 2 for l, r in comps}
        for x in probes:
            naive = any(l < x < r for l, r in comps)
            assert naive == any(l < x < r for l, r in merged)

    @given(st.lists(st.tuples(frac, frac), max_size=6))
    def test_merge_closed_preserves_membership(self, pairs):
        comps = [(min(a, b), max(a, b)) for a, b in pairs]
        merged = merge_closed(comps)
        probes = {x for c in comps for x in c} | {(l + r) / 2 for l, r in comps}
        for x in probes:
            naive = any(l <= x <= r for l, r in comps)
            assert naive == any(l <= x <= r for l, r in merged)

    @given(st.lists(st.tuples(frac, frac), min_size=1, max_size=5), frac)
    def test_complement_partitions_line(self, pairs, x):
        comps = merge_closed([(min(a, b), max(a, b)) for a, b in pairs])
        hole = complement_of_closed(comps)
        inside_closed = any(l <= x <= r for l, r in comps)
        inside_open = any(
            (l is None or l < x) and (r is None or x < r) for l, r in hole
        )
        assert inside_closed != inside_open

    @given(st.lists(st.tuples(frac, frac), min_size=1, max_size=5), frac)
    def test_dist_point_to_closed_is_exact(self, pairs, x):
        comps = merge_closed([(min(a, b), max(a, b)) for a, b in pairs])
        d = dist_point_to_closed(x, comps)
        brute = min(
            min(abs(x - l), abs(x - r)) if not l <= x <= r else Fraction(0)
            for l, r in comps
        )
        assert d == brute


class TestSigmaSet:
    def test_enumeration_stays_inside(self):
        U = SigmaSet.ball(Fraction(0), Fraction(1))
        for k in range(40):
            l, r = U.interval(k)
            assert -1 <= l < r <= 1

    def test_enumeration_exhausts_the_ball(self):
        U = SigmaSet.ball(Fraction(0), Fraction(1))
        # every strictly interior dyadic interval appears eventually
        target = (Fraction(-1, 2), Fraction(1, 2))
        seen = set()
        for k in range(4000):
            l, r = U.interval(k)
            seen.add((l, r))
            if l <= target[0] and target[1] <= r:
                return
        raise AssertionError(f"interior interval never covered: {sorted(seen)[:5]}")

    def test_sigma_member(self):
        U = SigmaSet.ball(Fraction(0), Fraction(1))
        assert sigma_member(CauchyReal.from_rational(Fraction(1, 3)), U, Fuel(16)) == Membership.INSIDE
        # boundary point is never certified
        assert sigma_member(CauchyReal.from_rational(Fraction(1)), U, Fuel(16)) == Membership.UNDETERMINED


class TestPiSet:
    def test_avoided_intervals_miss_the_set(self):
        C = pi_from_complement([(Fraction(0), Fraction(1))])
        for k in range(40):
            l, r = C.complement.interval(k)
            assert r <= 0 or l >= 1

    def test_dist_to_closed_lower_bounds(self):
        C = pi_from_complement([(Fraction(0), Fraction(1))])
        d = dist_to_closed(CauchyReal.from_rational(Fraction(3)), C)
        exact = Fraction(2)
        vals = [d.bound(n) for n in range(14)]
        assert all(v <= exact for v in vals)
        assert vals[-1] >= exact - _pow2(8)

    def test_dist_to_closed_far_from_a_half_line(self):
        # C = [-1, oo) as an opaque enumeration; d(-3*10^9, C) = 2999999999
        C = PiSet(itertools.repeat((None, Fraction(-1))))
        d = dist_to_closed(CauchyReal.from_rational(Fraction(-3 * 10**9)), C)
        vals = [d.bound(n) for n in range(12)]
        assert all(v <= 2999999999 for v in vals)
        assert vals[-1] >= 2999999999 - _pow2(8)

    def test_dist_to_empty_closed_set_rejected(self):
        C = PiSet(itertools.repeat((None, None)))
        d = dist_to_closed(CauchyReal.from_rational(Fraction(5)), C)
        with pytest.raises(ValueError):
            d.bound(0)

    def test_closed_neighborhood_exact(self):
        C = pi_from_complement([(Fraction(0), Fraction(1))])
        N = closed_neighborhood(C, Fraction(1, 2))
        assert N.closed_components == ((Fraction(-1, 2), Fraction(3, 2)),)

    def test_closed_neighborhood_generic_sound(self):
        # strip the exact description to exercise the fueled path
        base = pi_from_complement([(Fraction(0), Fraction(1))])
        opaque = PiSet(lambda k: base.complement.interval(k))
        N = closed_neighborhood(opaque, Fraction(1, 2))
        for k in range(6):
            l, r = N.complement.interval(k)
            # avoided intervals must miss [0,1] fattened by 1/2
            assert r <= Fraction(-1, 2) or l >= Fraction(3, 2)


def gaps_of(closed) -> list:
    """The gaps of a closed union, with the half-lines beyond it, in order:
    the complement's components read off the closed set's own ends."""
    merged = merge_closed(closed)
    ends = [None, *(x for comp in merged for x in comp), None]
    return [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]


def avoided_direct(closed) -> Iterator:
    """The avoided intervals of a closed union built from the closed set
    itself: the inner exhaustion of its complement, where round m = 1, 2, ...
    gives each gap shrunk by 2^-m at its finite ends and cut to -2^m, 2^m at
    its infinite ones.  The oracle for the complement's enumeration."""
    gaps = gaps_of(closed)
    for m in itertools.count(1):
        for l, r in gaps:
            lo = -(2**m) if l is None else l + _pow2(m)
            hi = 2**m if r is None else r - _pow2(m)
            if lo < hi:
                yield (lo, hi)


def dist_off_gaps(x: Fraction, closed) -> Fraction:
    """d(x, C) read off the exact complement components: the distance to
    the nearer finite end of the gap holding x, or 0 inside C."""
    for l, r in gaps_of(closed):
        if (l is None or l < x) and (r is None or x < r):
            return min(abs(x - e) for e in (l, r) if e is not None)
    return Fraction(0)


def dist_direct(x: CauchyReal, avoided) -> LowerReal:
    """d(x, C) from a list of the avoided intervals pulled so far, merged
    afresh at each step: the oracle for :func:`dist_to_closed`."""

    def gen():
        best = Fraction(0)
        pulled = []
        for n in itertools.count():
            pulled.append(avoided(n))
            merged = merge_open(pulled)
            xn = x.approx(n)
            t = Fraction(0)
            for l, r in merged:
                if (l is None or l < xn) and (r is None or xn < r):
                    ends = []
                    if l is not None:
                        ends.append(xn - l)
                    if r is not None:
                        ends.append(r - xn)
                    if not ends:
                        raise ValueError("C avoids all of R")
                    t = min(ends)
                    break
            best = max(best, t - _pow2(n - 1), Fraction(0))
            yield best

    return LowerReal(gen())


# closed unions, points included
closed_unions = st.lists(
    st.one_of(frac.map(lambda a: (a, a)), st.tuples(frac, frac).map(lambda ab: (min(ab), max(ab)))),
    max_size=4,
)


class TestPiSetOnComplement:
    @settings(max_examples=40, deadline=None)
    @given(closed_unions)
    def test_avoided_stream_is_the_direct_one(self, closed):
        C = pi_from_complement(closed)
        want = list(itertools.islice(avoided_direct(closed), 200))
        assert [C.complement.interval(k) for k in range(200)] == want

    @given(closed_unions, frac, frac)
    def test_avoids_interval_is_disjointness(self, closed, a, b):
        # (a, b) lies in one component of the exact complement iff it misses
        # every closed interval given.  A closed interval that (a, b) meets
        # has an end inside (a, b) or holds all of it, so these probes meet it
        if not a < b:
            return
        C = pi_from_complement(closed)
        probes = [a + (b - a) * t / 8 for t in range(1, 8)]
        probes += [x for iv in closed for x in iv if a < x < b]
        meets = any(l <= x <= r for l, r in closed for x in probes)
        assert open_contains_interval(C.complement.components, a, b) == (not meets)

    @settings(max_examples=60, deadline=None)
    @given(closed_unions.filter(bool), frac, st.booleans())
    def test_dist_to_closed_bounds_unchanged(self, closed, x, opaque):
        # an opaque set's bounds read its pulls; an exact set's read the
        # exact components of its complement, whatever its enumeration
        base = pi_from_complement(closed)
        if opaque:
            C = PiSet(lambda k: base.complement.interval(k))
            direct = dist_direct(CauchyReal.from_rational(x), Stream(avoided_direct(closed)).__getitem__)
            want = [direct.bound(n) for n in range(12)]
        else:
            C = base
            t = dist_off_gaps(x, closed)
            assert t == dist_point_to_closed(x, merge_closed(closed))
            want = [max(Fraction(0), t - _pow2(n - 1)) for n in range(12)]
        got = dist_to_closed(CauchyReal.from_rational(x), C)
        assert [got.bound(n) for n in range(12)] == want

    @pytest.mark.parametrize("avoid", [(None, Fraction(-1)), (Fraction(2), None), (None, None)])
    def test_dist_to_closed_on_unbounded_avoided(self, avoid):
        x = CauchyReal.from_rational(Fraction(-3))
        got = dist_to_closed(x, PiSet(itertools.repeat(avoid)))
        want = dist_direct(x, lambda _k: avoid)
        if avoid == (None, None):
            for d in (got, want):
                with pytest.raises(ValueError):
                    d.bound(0)
            return
        assert [got.bound(n) for n in range(10)] == [want.bound(n) for n in range(10)]

    def test_no_stream_built(self, monkeypatch):
        def refuse(*_args, **_kw):
            raise AssertionError("a Stream was built")

        monkeypatch.setattr(sets, "Stream", refuse)
        C = pi_from_complement([(Fraction(0), Fraction(1)), (Fraction(2), Fraction(2))])
        assert C.complement.components == (
            (None, Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(2), None)
        )
        with pytest.raises(AssertionError, match="Stream"):
            C.complement.interval(0)

    def test_pulled_union_and_inner(self):
        ivs = [(Fraction(0), Fraction(1)), (Fraction(3), Fraction(4)), (Fraction(1, 2), Fraction(2))]
        U = SigmaSet(iter(ivs))
        assert U.pulled_union(0) == ((Fraction(0), Fraction(1)),)
        assert U.pulled_union(2) == ((Fraction(0), Fraction(2)), (Fraction(3), Fraction(4)))
        assert U.inner(1) == U.pulled_union(1)
        exact = exact_open(ivs)
        assert exact.inner(0) == exact.components == U.pulled_union(2)


end = st.one_of(st.none(), frac)
open_intervals = st.tuples(end, end).filter(lambda iv: None in iv or iv[0] < iv[1])


class TestExactEnumeration:
    """An exact open set is enumerated by its inner exhaustion alone, and
    each interval it pulls lies inside the set: no check runs on a pull, so
    these tests are that guarantee."""

    def test_exact_sets_decode_no_code(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a code was decoded")

        monkeypatch.setattr(codes, "decode_open_interval", refuse)
        for U in (
            SigmaSet.ball(Fraction(0), Fraction(1, 16)),
            SigmaSet.ball_exterior(Fraction(1), Fraction(2)),
            exact_open([(None, Fraction(-3)), (Fraction(5), Fraction(6))]),
            pi_from_complement([(Fraction(0), Fraction(1)), (Fraction(2), Fraction(2))]).complement,
        ):
            for k in range(64):
                l, r = U.interval(k)
                assert open_contains_interval(U.components, l, r)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["union", "ball", "ball exterior", "complement"]),
        ivs=st.lists(open_intervals, max_size=4),
        center=frac,
        radius=frac.map(abs),
        closed=closed_unions,
    )
    def test_pulls_lie_inside(self, kind, ivs, center, radius, closed):
        # each of the first 64 pulls lies inside one component of the set
        U = {
            "union": lambda: exact_open(ivs),
            "ball": lambda: SigmaSet.ball(center, radius),
            "ball exterior": lambda: SigmaSet.ball_exterior(center, radius),
            "complement": lambda: pi_from_complement(closed).complement,
        }[kind]()
        for k in range(64 if U.components else 0):
            l, r = U.interval(k)
            assert l < r and open_contains_interval(U.components, l, r)

    def test_tiny_ball_first_pull(self):
        radius = Fraction(1, 2**64)
        l, r = SigmaSet.ball(Fraction(0), radius).interval(0)
        assert -radius < l < r < radius

    def test_fuel_one_on_a_small_ball_returns(self):
        zero = CauchyReal.from_rational(Fraction(0))
        U = SigmaSet.ball(Fraction(0), Fraction(1, 16))
        assert sigma_member(zero, U, Fuel(1)) == Membership.UNDETERMINED
        assert sigma_member(zero, U, Fuel(16)) == Membership.INSIDE

    def test_empty_set_enumerates_nothing(self):
        for U in (exact_open([]), SigmaSet.ball(Fraction(3), Fraction(0))):
            with pytest.raises(IndexError, match="exhausted at index 0"):
                U.interval(0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(open_intervals, min_size=1, max_size=4), frac)
    def test_pulls_inside_and_covering(self, ivs, x):
        # each pulled interval's closure lies in the set, and a point at
        # distance d from its component's finite ends with |x| < 2^m, for
        # 2^-m < d, is covered within the first m * len(comps) pulls
        U = exact_open(ivs)
        comps = U.components
        holding = [c for c in comps if open_contains_point((c,), x)]
        d = min((abs(x - e) for c in holding for e in c if e is not None), default=None)
        m = 1
        while not ((d is None or _pow2(m) < d) and abs(x) < 2**m):
            m += 1
        pulls = [U.interval(k) for k in range(m * len(comps))]
        for l, r in pulls:
            assert open_contains_point(comps, l) and open_contains_point(comps, r)
        assert any(l < x < r for l, r in pulls) == bool(holding)


class TestPulledUnion:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(open_intervals, min_size=1, max_size=12),
        st.lists(st.integers(0, 11), min_size=1, max_size=12),
    )
    def test_running_union_is_the_merged_prefix(self, ivs, ks):
        # read in any order, the carried union is the prefix merged afresh
        U = SigmaSet(iter(ivs))
        for k in (k % len(ivs) for k in ks):
            assert U.pulled_union(k) == merge_open(U.enumeration.prefix(k + 1))


class TestMalformedSets:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SigmaSet.ball(Fraction(0), Fraction(-1)),
            lambda: SigmaSet.ball_exterior(Fraction(0), Fraction(-1)),
            lambda: SigmaSet.ball(Fraction(0), -Fraction(10**5000)),
            lambda: pi_from_complement([(None, Fraction(1))]),
            lambda: pi_from_complement([(Fraction(0), None)]),
            lambda: pi_from_complement([(Fraction(0), "1")]),
            lambda: pi_from_complement([(0.5, Fraction(1))]),
            lambda: pi_from_complement([(Fraction(10**5000), Fraction(0))]),
        ],
        ids=["ball", "ball exterior", "huge radius", "None left", "None right",
             "string end", "float end", "huge reversed"],
    )
    def test_refused_loudly(self, make):
        with pytest.raises(MalformedInterval) as exc:
            make()
        assert str(exc.value)  # never breaks on a rational's digits


class TestExpandClosed:
    @given(st.lists(st.tuples(frac, frac), min_size=1, max_size=4), frac)
    def test_expansion_soundness(self, pairs, x):
        comps = merge_closed([(min(a, b), max(a, b)) for a, b in pairs])
        s = Fraction(1, 3)
        fat = expand_closed(comps, s)
        d = dist_point_to_closed(x, comps)
        in_fat = any(l <= x <= r for l, r in fat)
        assert in_fat == (d <= s)


class TestCompactName:
    def test_cover_shrinks_to_exact_hull(self):
        intervals = [(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))]
        K = compact_from_closed_union(intervals)
        lo, hi = intervals[0][0], intervals[-1][1]
        l8, u8 = compact_hull_bounds(K, 8)
        assert l8 <= lo and hi <= u8
        assert u8 - l8 <= hi - lo + 2 * _pow2(7)

    def test_min_covers_stay_disjoint(self):
        K = compact_from_closed_union([(0, 1), (2, 3)])
        for m in (0, 2, 6):
            cov = K.cover(m)
            assert len(cov) == 2
            assert cov[0][1] < cov[1][0]

    def test_empty_union_rejected(self):
        with pytest.raises(EmptyCompact):
            compact_from_closed_union([])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(frac, frac), min_size=1, max_size=4),
        st.lists(st.integers(0, 40), min_size=1, max_size=6),
    )
    def test_covers_on_demand_match_sequential_stream(self, pairs, ms):
        K = compact_from_closed_union([(min(a, b), max(a, b)) for a, b in pairs])
        sequential = Stream(K._cover_at)
        for m in ms:
            assert K.cover(m) == sequential[m]

    def test_negative_cover_index_rejected(self):
        K = compact_from_closed_union([(0, 1)])
        for m in (-1, -7):
            with pytest.raises(IndexError):
                K.cover(m)
