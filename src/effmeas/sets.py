"""Effective subsets of the real line.

Open sets are enumerations of rational open intervals they contain.  A
closed set is the complement of an open one: the intervals it avoids are
the enumeration of that open set.  Compact sets are enumerations of minimal
finite covers.  Sets built from concrete rational data additionally carry an
exact finite description, on which every semi-decision collapses to a
decidable rational-geometry check; the stream interfaces stay fully general.

Open components are ``(left, right)`` pairs of rationals where ``None``
stands for an infinite endpoint; closed components are finite ``[left,
right]`` pairs with ``left <= right`` (points allowed).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Optional, Sequence, Union

from .errors import EmptyCompact, MalformedInterval, show
from .reals import CauchyReal, LowerReal, _fraction, _pow2
from .streams import Fuel, Stream

OpenComp = tuple[Optional[Fraction], Optional[Fraction]]
ClosedComp = tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# exact geometry on component lists


def _key(x: Optional[Fraction], sign: int) -> Union[Fraction, float]:
    # None sorts as -inf on the left (sign -1) / +inf on the right (sign +1);
    # Fraction compares with float infinities exactly.
    if x is not None:
        return x
    return sign * math.inf


def merge_open(intervals: Sequence[OpenComp]) -> tuple[OpenComp, ...]:
    """Union of open intervals as disjoint sorted open components.

    Touching open intervals like (0,1) and (1,2) are NOT merged: their union
    is not an interval.
    """
    ivs = [iv for iv in intervals if iv[0] is None or iv[1] is None or iv[0] < iv[1]]
    ivs.sort(key=lambda iv: (_key(iv[0], -1), _key(iv[1], 1)))
    out: list[OpenComp] = []
    for l, r in ivs:
        if out:
            pl, pr = out[-1]
            if pr is None or l is None or l < pr:
                if pr is not None and (r is None or r > pr):
                    out[-1] = (pl, r)
                continue
        out.append((l, r))
    return tuple(out)


def merge_closed(intervals: Sequence[ClosedComp]) -> tuple[ClosedComp, ...]:
    """Union of closed intervals as disjoint sorted closed components."""
    ivs = sorted(intervals)
    out: list[ClosedComp] = []
    for l, r in ivs:
        if l > r:
            raise MalformedInterval("closed component needs left <= right")
        if out and l <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], r))
        else:
            out.append((l, r))
    return tuple(out)


def dist_point_to_closed(x: Fraction, comps: Sequence[ClosedComp]) -> Fraction:
    if not comps:
        raise ValueError("distance to the empty set is undefined")
    best = None
    for l, r in comps:
        d = Fraction(0) if l <= x <= r else (l - x if x < l else x - r)
        best = d if best is None else min(best, d)
    return best


def expand_closed(comps: Sequence[ClosedComp], s: Fraction) -> tuple[ClosedComp, ...]:
    """closure(B(C, s)) for a finite closed union C."""
    return merge_closed([(l - s, r + s) for l, r in comps])


def complement_of_closed(comps: Sequence[ClosedComp]) -> tuple[OpenComp, ...]:
    """The complement of a finite closed union, as open components."""
    comps = merge_closed(comps)
    out: list[OpenComp] = []
    prev: Optional[Fraction] = None
    for l, r in comps:
        out.append((prev, l))
        prev = r
    out.append((prev, None))
    return tuple(iv for iv in out if iv[0] is None or iv[1] is None or iv[0] < iv[1])


# ---------------------------------------------------------------------------
# enumeration schedules


def _exhaustion(comps: tuple[OpenComp, ...]) -> Iterator[tuple[Fraction, Fraction]]:
    """The enumeration of an exact open set, its inner exhaustion: round
    m = 1, 2, ... emits each component shrunk by 2^-m at its finite ends,
    its infinite ends cut to -2^m and 2^m, when that is not empty.  What a
    round emits, every later round does, so the first pull walks up to the
    first nonempty round (a bounded component of width W needs W > 2^(1-m),
    about log2(2/W) rounds) and each later pull at most one more round; no
    code is decoded.  A point x at distance d > 2^-m from its component's
    finite ends, with |x| < 2^m, lies in that component's round-m interval,
    so within the first m * len(comps) pulls.  The empty set emits nothing.
    """
    if not comps:
        return
    for m in itertools.count(1):
        delta = _pow2(m)
        span = Fraction(2**m)
        for cl, cr in comps:
            l = -span if cl is None else cl + delta
            r = span if cr is None else cr - delta
            if l < r:
                yield (l, r)


def _radius(radius) -> Fraction:
    radius = _fraction(radius)
    if radius < 0:
        raise MalformedInterval(f"negative radius {show(radius)}")
    return radius


class SigmaSet:
    """An effectively open subset of R: a stream of open intervals inside it.

    The enumeration ``Stream`` is built on its first read: most exact sets
    are only ever queried through ``components``.
    """

    def __init__(self, enumeration):
        self.components: tuple[OpenComp, ...] | None = None
        self._source = enumeration
        self._stream: Stream | None = None
        # (n, union of 0..n-1)
        self._pulled: tuple[int, tuple[OpenComp, ...]] = (0, ())

    @property
    def enumeration(self) -> Stream:
        if self._stream is None:
            self._stream = Stream(self._source)
        return self._stream

    @classmethod
    def _exact(cls, comps: tuple[OpenComp, ...]) -> "SigmaSet":
        """The set on the merged ``comps``, enumerated by :func:`_exhaustion`."""
        made = cls(_exhaustion(comps))
        made.components = comps
        return made

    @classmethod
    def ball(cls, center: Fraction, radius: Fraction) -> "SigmaSet":
        """(center - radius, center + radius); empty at radius 0."""
        center, r = _fraction(center), _radius(radius)
        return cls._exact(((center - r, center + r),) if r else ())

    @classmethod
    def ball_exterior(cls, center: Fraction, radius: Fraction) -> "SigmaSet":
        """The two open rays outside the closed ball, already disjoint."""
        center, r = _fraction(center), _radius(radius)
        return cls._exact(((None, center - r), (center + r, None)))

    def interval(self, k: int) -> tuple[Fraction, Fraction]:
        return self.enumeration[k]

    def pulled_union(self, k: int) -> tuple[OpenComp, ...]:
        """The union of enumerated intervals 0..k, as merged components: the
        union of the furthest prefix read is kept and only later intervals
        are merged onto it (an earlier ``k`` is merged afresh)."""
        n, union = self._pulled
        if k + 1 < n:
            return merge_open(self.enumeration.prefix(k + 1))
        union = merge_open(union + tuple(self.enumeration[i] for i in range(n, k + 1)))
        self._pulled = (k + 1, union)
        return union

    def inner(self, k: int) -> tuple[OpenComp, ...]:
        """Components inside the set: the exact ones when known, else
        :meth:`pulled_union` ``(k)``."""
        return self.components if self.components is not None else self.pulled_union(k)


class PiSet:
    """An effectively closed subset of R, named by its open complement: the
    intervals it avoids are the enumeration of the SigmaSet ``complement``.

    An interval misses C exactly when it lies in one component of the
    complement; a set from :func:`pi_from_complement` knows its exact
    ``closed_components``, and the complement its exact components.
    """

    def __init__(self, avoid_enumeration):
        self.closed_components: tuple[ClosedComp, ...] | None = None
        self.complement = SigmaSet(avoid_enumeration)


def pi_from_complement(closed_intervals) -> PiSet:
    """PiSet for a finite union of closed rational intervals (points allowed)."""
    comps: list[ClosedComp] = []
    for l, r in closed_intervals:
        if not (isinstance(l, Rational) and isinstance(r, Rational)):
            kinds = f"{type(l).__name__}, {type(r).__name__}"
            raise MalformedInterval(f"closed interval ends must be rationals, got ({kinds})")
        l, r = Fraction(l), Fraction(r)
        if l > r:
            raise MalformedInterval(f"malformed closed interval [{show(l)}, {show(r)}]")
        comps.append((l, r))
    made = PiSet.__new__(PiSet)
    made.closed_components = merge_closed(comps)
    made.complement = SigmaSet._exact(complement_of_closed(made.closed_components))
    return made


# ---------------------------------------------------------------------------
# semi-decisions and derived objects


class Membership:
    INSIDE = "inside"
    UNDETERMINED = "undetermined"


def sigma_member(x: CauchyReal, U: SigmaSet, fuel: Fuel) -> str:
    """Semi-decide x in U: certified containment of an approximant box."""
    pulled: list[tuple[Fraction, Fraction]] = []
    for k in range(fuel.budget):
        pulled.append(U.interval(k))
        xk = x.approx(k)
        err = _pow2(k - 1)
        for l, r in pulled:
            if l < xk - err and xk + err < r:
                return Membership.INSIDE
    return Membership.UNDETERMINED


def dist_to_closed(x: CauchyReal, C: PiSet) -> LowerReal:
    """d(x, C) as a left-c.e. real, from ``C.complement.inner(n)``: the exact
    components of the complement when known, else the avoided intervals
    merged so far.

    If those components contain a ball of radius t around the approximant,
    the true point is at distance > t - 2^{-n+1} from C; t is the distance
    to the nearer finite end of the component holding it.  Pulling a bound
    raises ``ValueError`` once the components are all of R: then C is empty
    and d(x, C) is no real number.
    """

    def gen():
        best = Fraction(0)
        for n in itertools.count():
            merged = C.complement.inner(n)
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
                        raise ValueError("C avoids all of R: d(x, C) is infinite")
                    t = min(ends)
                    break
            best = max(best, t - _pow2(n - 1), Fraction(0))
            yield best

    return LowerReal(gen())


def closed_neighborhood(C: PiSet, s: Fraction) -> PiSet:
    """A PiSet for closure(B(C, s)).

    An interval B(a, r) is avoided exactly when d(a, C) > r + s is
    certified: exactly for concrete closed sets, by fueled lower bounds on
    the distance otherwise.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("s must be a positive rational")
    if C.closed_components is not None:
        return pi_from_complement(expand_closed(C.closed_components, s))

    def gen():
        for m in itertools.count(2):
            radius = _pow2(m)
            for j in range(-m * 2**m, m * 2**m + 1):
                a = j * radius
                d = dist_to_closed(CauchyReal.from_rational(a), C)
                if d.approx(Fuel(m)) > radius + s:
                    yield (a - radius, a + radius)

    return PiSet(gen())


class CompactName:
    """A compact set named by a sequence of minimal finite covers.

    ``cover_at`` is a pure function ``m -> cover m``; each cover is computed
    on demand, so reading cover m builds none of the covers before it.
    Names constructed by :func:`compact_from_closed_union` shrink their
    cover hull by at least 2^-m per index m.
    """

    def __init__(self, cover_at):
        self._cover_at = cover_at

    def cover(self, m: int) -> tuple[tuple[Fraction, Fraction], ...]:
        if m < 0:
            raise IndexError("cover indices start at 0")
        return self._cover_at(m)


def compact_from_closed_union(closed_intervals) -> CompactName:
    comps = merge_closed([(_fraction(l), _fraction(r)) for l, r in closed_intervals])
    if not comps:
        raise EmptyCompact("empty compact")
    gaps = [comps[i + 1][0] - comps[i][1] for i in range(len(comps) - 1)]
    max_delta = min(gaps) / 3 if gaps else None

    def cover_at(m: int):
        delta = _pow2(m)
        if max_delta is not None:
            delta = min(delta, max_delta)
        return tuple((l - delta, r + delta) for l, r in comps)

    return CompactName(cover_at)


def compact_hull_bounds(K: CompactName, m: int) -> tuple[Fraction, Fraction]:
    """Rational hull [l, u] with l <= min K and max K <= u, from cover m."""
    cov = K.cover(m)
    if not cov:
        raise EmptyCompact("empty compact")
    return min(l for l, _ in cov), max(r for _, r in cov)
