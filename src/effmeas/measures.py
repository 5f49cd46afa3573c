"""Computable finite Borel measures on the real line.

Two exactly-integrable concrete classes are provided: finite discrete
measures and measures with a polygonal density.  A lazily revealed
discrete class on the natural numbers backs the hidden-enumeration demo:
its prefix is exact and it has no total-mass name.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

from .errors import SearchExhausted, UnsupportedMeasureClass
from .functions import (
    PolyFunc,
    SupportedFunc,
    _common,
    _Lazy,
    _lattice_of,
    _pairs_of,
    _rational,
    approx_polygonal,
    polygonal_on_window,
)
from .reals import CauchyReal, LowerReal, _fraction, _pow2
from .sets import OpenComp, SigmaSet, merge_closed, merge_open
from .streams import Stream

# (xs, ws, lx, lw): atom i at xs[i]/lx with mass ws[i]/lw
Side = tuple[Sequence[int], Sequence[int], int, int]


def integrate_product(p: PolyFunc, q: PolyFunc, a: Fraction, b: Fraction) -> Fraction:
    """Exact integral of p*q over [a, b] (Simpson is exact for quadratics)."""
    a, b = _fraction(a), _fraction(b)
    if a >= b:
        return Fraction(0)
    cuts = sorted(
        {a, b}
        | {x for x in p.breakpoints() if a < x < b}
        | {x for x in q.breakpoints() if a < x < b}
    )
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        total += (hi - lo) * (
            p(lo) * q(lo) + 4 * p(mid) * q(mid) + p(hi) * q(hi)
        ) / 6
    return total


class Measure:
    """Interface: a computable finite Borel measure.

    What a class can answer is in its own methods, and each default here
    raises :class:`UnsupportedMeasureClass` through :meth:`_unsupported`,
    the one place a class is refused:

    - :meth:`total_mass_real` and :meth:`total_mass_upper`, from an exact mass;
    - :meth:`cumulative`, exact masses left of points on an ``int`` lattice,
      on which :meth:`region_mass_open`, :meth:`mass_closed`, :meth:`open_mass`
      and :meth:`null_test`, for the null spheres of almost decidable balls, are built;
    - :meth:`integrate_poly` (exact) and, built on it and within 2^-n,
      :meth:`integrate_zero_outside` for a ``zero-outside`` polygon and
      :meth:`integrate_supported` for a named function;
    - :meth:`support_radius`;
    - :meth:`cells`, the finite discretisation the Prokhorov bounds search.

    :meth:`exact_total_mass` is an optional fast path and returns ``None``
    when the class has no exact mass.
    """

    def _unsupported(self, what: str):
        raise UnsupportedMeasureClass(
            f"unsupported measure class {type(self).__name__}: no {what}"
        )

    def total_mass_real(self) -> CauchyReal:
        m = self.exact_total_mass()
        if m is None:
            self._unsupported("total mass name")
        return CauchyReal.from_rational(m)

    def exact_total_mass(self) -> Optional[Fraction]:
        return None

    def total_mass_upper(self) -> Fraction:
        """An exact rational upper bound on mu(R)."""
        m = self.exact_total_mass()
        if m is None:
            self._unsupported("exact total mass")
        return m

    def cumulative(self, points: Sequence[int], l: int) -> tuple[list[int], list[int], int, int]:
        """``(below, upto, total, lw)``: lw times mu((-inf, x)) and mu((-inf, x])
        at each x = ``points[i]/l``, the points in any order, and lw times mu(R)."""
        self._unsupported("exact region masses")

    def region_mass_open(self, comps: Sequence[OpenComp]) -> Fraction:
        """mu of a finite union of open intervals, exact: (l, r) has mass below(r) - upto(l)."""
        return self._union_mass(merge_open(comps), closed=False)

    def mass_closed(self, comps) -> Fraction:
        """mu of a finite union of closed intervals ``(l, r)``, exact: upto(r) - below(l)."""
        return self._union_mass(merge_closed(comps), closed=True)

    def _union_mass(self, comps, closed: bool) -> Fraction:
        """The mass of merged components from one :meth:`cumulative` call at
        their finite ends; a ``None`` end reads 0 on the left, the total on the right."""
        keys, l = _common([e for comp in comps for e in comp if e is not None])
        below, upto, total, lw = self.cumulative(keys, l)
        at = iter(zip(below, upto) if closed else zip(upto, below))
        mass = 0
        for a, b in comps:
            mass -= 0 if a is None else next(at)[0]
            mass += total if b is None else next(at)[1]
        return Fraction(mass, lw)

    def open_mass(self, U: SigmaSet) -> LowerReal:
        """mu(U) from below: the exact mass of each finite union pulled."""
        if U.components is not None:
            return LowerReal.from_rational(self.region_mass_open(U.components))
        return LowerReal(lambda k: self.region_mass_open(U.pulled_union(k)))

    def integrate_poly(self, p: PolyFunc) -> Fraction:
        """The exact integral of a polygonal function."""
        self._unsupported("exact integration")

    def integrate_zero_outside(self, p: PolyFunc, n: int) -> Fraction:
        """The integral of a ``zero-outside`` polygon within 2^-n: the exact
        one, unless the class reveals its atoms lazily."""
        return self.integrate_poly(p)

    def integrate_supported(self, f: SupportedFunc, n: int) -> Fraction:
        """The integral of a compactly supported named function within 2^-n."""
        tol = _pow2(n) / (self.total_mass_upper() + 1)
        return integrate_poly(approx_polygonal(f, tol), self)

    def null_test(self) -> Callable[[Fraction], bool]:
        """x -> is {x} mu-null: :meth:`cumulative` at x gives (-inf, x) and (-inf, x] one mass."""

        def null(x: Fraction) -> bool:
            below, upto, _, _ = self.cumulative((x.numerator,), x.denominator)
            return below == upto

        return null

    def support_radius(self) -> Fraction:
        """An a with mu(R \\ [-a, a]) = 0."""
        self._unsupported("bounded support")

    def cells(self, pitch: Fraction) -> tuple[Side, Fraction]:
        """``(side, err)``: finitely many atoms (:data:`Side`), the ``xs``
        strictly increasing and the ``ws`` positive, within Prokhorov distance
        ``err`` of this measure; a density's lie on the grid of ``pitch``."""
        self._unsupported("discretisation")


def _atom_lattice(atoms) -> tuple:
    """Atoms ``(location, weight)`` on their lattice ``(keys, iws, lx, lw)``
    (:func:`~effmeas.functions._lattice_of`), the one place an atom is refused:
    :class:`~effmeas.errors.MalformedInterval` names a value no ``Fraction``
    takes, and a weight <= 0 raises ``ValueError``."""
    pairs = []
    for loc, w in atoms:
        loc, w = _fraction(loc), _fraction(w)
        if w.numerator <= 0:  # a Fraction's denominator is positive
            raise ValueError("atom weights must be positive")
        pairs.append((loc, w))
    return _lattice_of(pairs)


def _sort_merge(keys: Sequence[int], iws: Sequence[int]) -> tuple[list[int], list[int]]:
    """The one sort and merge of a discrete measure's atoms, on ``int``s.

    Atom i lies at lattice point ``keys[i]`` with lattice weight ``iws[i]``.
    Returns ``(xs, ws)``: the distinct points in increasing order and the
    summed weight at each.
    """
    xs, ws = [], []
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        k = keys[i]
        if xs and k == xs[-1]:
            ws[-1] += iws[i]
        else:
            xs.append(k)
            ws.append(iws[i])
    return xs, ws


@dataclass(frozen=True)
class DiscreteMeasure(Measure):
    """A finite purely atomic measure with rational data.

    Its one stored form is :meth:`lattice`, the atoms as ``int`` keys and
    weights, sorted and merged on ``int``s (:func:`_sort_merge`).  ``atoms``
    (reduced ``Fraction`` pairs, for ``==``, hash and repr) and the total are
    built from it on their first read (:class:`~effmeas.functions._Lazy`).
    The constructor refuses an atom as :func:`_atom_lattice` does, with
    :class:`~effmeas.errors.MalformedInterval` or ``ValueError``, then drops
    the ``atoms`` it was given; :meth:`from_ints` and :meth:`_from_lattice`
    build the same measure from ``int``s.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]
    _lattice: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys, iws, lx, lw = _atom_lattice(self.atoms)
        xs, ws = _sort_merge(keys, iws)
        object.__setattr__(self, "_lattice", (tuple(xs), tuple(ws), lx, lw))
        object.__delattr__(self, "atoms")

    @classmethod
    def from_ints(cls, xn, xd, wn, wd) -> "DiscreteMeasure":
        """The measure with atoms at ``xn[i]/xd[i]`` of mass ``wn[i]/wd[i]``,
        all ``int``, every denominator nonzero and weight positive (unchecked),
        on the lattices of the lcms of ``xd`` and ``wd``."""
        lx, lw = math.lcm(*xd), math.lcm(*wd)
        keys, iws = [n * (lx // d) for n, d in zip(xn, xd)], [n * (lw // d) for n, d in zip(wn, wd)]
        return cls._from_lattice(keys, iws, lx, lw)

    @classmethod
    def _from_lattice(cls, keys, iws, lx: int, lw: int) -> "DiscreteMeasure":
        """Atom i at ``keys[i]/lx`` of mass ``iws[i]/lw``, all ``int``, weights
        positive (unchecked): one :func:`_sort_merge` and no ``Fraction``."""
        xs, ws = _sort_merge(keys, iws)
        mu = object.__new__(cls)
        object.__setattr__(mu, "_lattice", (tuple(xs), tuple(ws), lx, lw))
        return mu

    @classmethod
    def point(cls, loc, weight=1) -> "DiscreteMeasure":
        """One atom of mass ``weight`` at ``loc``, refused as the constructor
        refuses it: :class:`~effmeas.errors.MalformedInterval` or ``ValueError``."""
        return cls(((loc, weight),))

    @classmethod
    def zero(cls) -> "DiscreteMeasure":
        # the empty atom list is a valid (zero) measure
        return cls(())

    def exact_total_mass(self) -> Fraction:
        return self._total

    def lattice(self) -> Side:
        """The atoms as ``(xs, ws, lx, lw)``: atom i at ``xs[i]/lx`` with mass
        ``ws[i]/lw``, ``lx`` and ``lw`` the lcms of the input's location and
        weight denominators (unreduced ones, from :meth:`from_ints`, may give
        a multiple of the reduced lcm): the measure's one stored form."""
        return self._lattice

    def cells(self, pitch: Fraction) -> tuple[Side, Fraction]:
        """The atoms themselves, for any pitch: :meth:`lattice`, error 0."""
        return self.lattice(), 0

    def cumulative(self, points, l) -> tuple[list[int], list[int], int, int]:
        """A prefix sum of the lattice weights, bisected at ceil(p*lx/l) for
        x/lx < p/l and at floor(p*lx/l) for x/lx <= p/l."""
        xs, ws, lx, lw = self._lattice
        pre = list(itertools.accumulate(ws, initial=0))
        below = [pre[bisect_left(xs, -(-p * lx // l))] for p in points]
        upto = [pre[bisect_right(xs, p * lx // l)] for p in points]
        return below, upto, pre[-1], lw

    def integrate_poly(self, p: PolyFunc) -> Fraction:
        """Per-piece moments of the atoms, on the ``int`` lattice.

        The vertices cut the sorted :meth:`lattice` locations into runs: the
        atoms at x <= xl, the first vertex, read yl; those in x0 < x <= x1
        lie on that piece, where p(x) = y0 + (y1 - y0)(x - x0)/(x1 - x0),
        also at x = x1; those at x > xr, the last vertex, read yr.  So a
        run of weight W = sum w and first moment S = sum w*x on a piece
        contributes y0*W + (y1 - y0)/(x1 - x0)*(S - x0*W), and one outside
        yl*W or yr*W: the per-atom sum sum w*p(x), regrouped, hence equal
        to it exactly.  Under ``zero-outside``, yl = yr = 0, so the outside
        runs need no branch on the extension.

        With the vertices on the polygon's lattice (X = x*dx, Y = y*dy,
        :meth:`PolyFunc.lattice`), dy*lx*lw times the
        piece's term is (lx*W*(Y0*X1 - Y1*X0) + (Y1 - Y0)*dx*S)/(X1 - X0),
        W and S now sums of the lattice's ``int`` weights and locations; the
        terms are added over the lcm of the widths, and the one ``Fraction``
        is the total.  Only :meth:`lattice` is read, so a measure from
        :meth:`from_ints` builds no atoms.
        """
        xs, ws, lx, lw = self._lattice
        X, Y, dx, dy = p.lattice()
        # cut k counts the atoms at or left of vertex k: xs[i]/lx <= v/dx
        # iff xs[i] <= v*lx//dx, with v = X[k]
        cuts = [bisect_right(xs, v * lx // dx) for v in X]
        num = lx * (Y[0] * sum(ws[: cuts[0]]) + Y[-1] * sum(ws[cuts[-1] :]))
        den = 1
        for x0, x1, y0, y1, a, b in zip(X, X[1:], Y, Y[1:], cuts, cuts[1:]):
            if a == b:
                continue
            W = sum(ws[a:b])
            S = sum(map(mul, xs[a:b], ws[a:b]))
            t = lx * W * (y0 * x1 - y1 * x0) + (y1 - y0) * dx * S
            g = math.gcd(den, x1 - x0)
            num = num * ((x1 - x0) // g) + t * (den // g)
            den = den // g * (x1 - x0)
        return Fraction(num, dy * lx * lw * den)

    def support_radius(self) -> Fraction:
        xs, _, lx, _ = self._lattice
        return Fraction(max(abs(xs[0]), abs(xs[-1])), lx) if xs else Fraction(0)


def _atoms_of(mu: DiscreteMeasure) -> tuple:
    return _pairs_of(mu._lattice)


DiscreteMeasure.atoms = _Lazy("atoms", _atoms_of)
DiscreteMeasure._total = _Lazy("_total", lambda mu: Fraction(sum(mu._lattice[1]), mu._lattice[3]))


@dataclass(frozen=True)
class PolyDensityMeasure(Measure):
    """Absolutely continuous with a nonnegative zero-outside polygonal density.

    The constructor raises ``ValueError`` for a :class:`PolyFunc` that is not
    ``zero-outside`` or has a negative ordinate on its :meth:`~PolyFunc.lattice`.
    """

    density: PolyFunc

    def __post_init__(self):
        d = self.density
        if d.extension != "zero-outside":
            raise ValueError("density must be zero-outside")
        if any(y < 0 for y in d.lattice()[1]):
            raise ValueError("density must be nonnegative")

    @classmethod
    def uniform(cls, a, b) -> "PolyDensityMeasure":
        """Plateau 1 on [a, b] with ramps (b - a)/2^20 wide, which keep the
        density polygonal: on the lattice of a = A/l and b = B/l refined 2^20 times."""
        (A, B), l = _common([_rational(a), _rational(b)])
        A, B, s = A << 20, B << 20, B - A
        return cls(PolyFunc.from_ints((A - s, A, B, B + s), (0, 1, 1, 0), l << 20, 1))

    def exact_total_mass(self) -> Fraction:
        _, _, total, lw = self.cumulative((), 1)
        return Fraction(total, lw)

    def cumulative(self, points, l) -> tuple[list[int], list[int], int, int]:
        """M*F at each point from :meth:`_table`, the points in any order; a
        density has no atoms, so (-inf, x) and (-inf, x] have the same mass."""
        _, MF, dx, M, total = self._table(l)
        F = [MF(p * (dx // l)) for p in points]
        return F, F, total, M

    def _table(self, q: int):
        """``(pieces, MF, dx, M, total)``: the cumulative integral F, an ``int``
        quadratic per piece, for :meth:`cells` and :meth:`cumulative`.  The
        abscissae of the :meth:`~effmeas.functions.PolyFunc.lattice` go onto
        ``dx``, the lcm of q and theirs; with L the lcm over the pieces, (X0,
        Y0) to (X1, Y1) of width w, of w/gcd(w, Y1 - Y0) and M = 2*dx*dy*L,
        M*F at offset D on a piece is M*F(X0) + D*(2*L*Y0 + (Y1 - Y0)*(L/w)*D).
        ``MF(x)``, x in any order, is M*F(x/dx): 0 left of the first vertex
        and ``total`` = M*F(+inf) right of the last."""
        X, Y, dx, dy = self.density.lattice()
        l = math.lcm(dx, q)
        X, dx = [x * (l // dx) for x in X], l
        steps = list(zip(X, X[1:], Y, Y[1:]))
        L = math.lcm(*((x1 - x0) // math.gcd(x1 - x0, y1 - y0) for x0, x1, y0, y1 in steps))
        pieces = []  # right end, left end, M*F there, 2*L*Y0, (Y1 - Y0)*L/w
        total = 0
        for x0, x1, y0, y1 in steps:
            pieces.append((x1, x0, total, 2 * L * y0, (y1 - y0) * L // (x1 - x0)))
            total += L * (x1 - x0) * (y0 + y1)
        pieces.append((math.inf, X[-1], total, 0, 0))  # right of the last vertex, F is the total
        i = 0  # the piece holding the last point evaluated

        def MF(x: int) -> int:
            nonlocal i
            while pieces[i][0] < x:
                i += 1
            while i and pieces[i][1] > x:
                i -= 1
            _, x0, f0, a, b = pieces[i]
            d = x - x0
            return f0 + d * (a + b * d) if d > 0 else f0

        return pieces, MF, dx, 2 * dx * dy * L, total

    def integrate_poly(self, p: PolyFunc) -> Fraction:
        X, _, dx, _ = self.density.lattice()
        return integrate_product(p, self.density, Fraction(X[0], dx), Fraction(X[-1], dx))

    def support_radius(self) -> Fraction:
        X, _, dx, _ = self.density.lattice()
        return Fraction(max(abs(X[0]), abs(X[-1])), dx)

    def cells(self, pitch: Fraction) -> tuple[Side, Fraction]:
        """Cell [k*pitch, (k+1)*pitch] becomes one atom at its midpoint with
        the cell's whole mass, a difference of the cumulative integral F, in
        one ``int`` sweep; no mass moves farther than half the pitch, so the
        pitch bounds the distance.  With pitch = p/q, F is :meth:`_table`'s
        on the lattice of the density's abscissae and 1/q, where the pitch is
        P = p*dx/q.  Cell k has the key (2k + 1)*p on ``lx`` = 2q and the
        weight M*F((k+1)*P) - M*F(k*P) on ``lw`` = M.

        Only the cells of pieces with a nonzero end are visited, so any gap
        is skipped, and a cell straddling one is emitted once.  A cell meets
        the support in an interval of positive length, where the density is
        positive but at finitely many points, so its mass is positive.
        O(cells + vertices).
        """
        p, q = pitch.numerator, pitch.denominator
        pieces, MF, dx, M, _ = self._table(q)
        P = p * (dx // q)
        xs: list[int] = []
        ws: list[int] = []
        k = None  # the first cell not yet emitted; f is M*F at its left end
        for x1, x0, _, a, b in pieces:
            if not (a or b):  # zero on the whole piece: a gap
                continue
            if k is None or x0 // P > k:
                k = x0 // P
                f = MF(k * P)
            while k * P < x1:
                f_hi = MF((k + 1) * P)
                xs.append((2 * k + 1) * p)
                ws.append(f_hi - f)
                f = f_hi
                k += 1
        return (xs, ws, 2 * q, M), pitch


class LazyDiscreteMeasure(Measure):
    """Mass ``weight(i)`` at each natural number i, revealed atom by atom.

    No tail bound is known, so the total mass is only left-c.e. and
    :meth:`Measure.total_mass_real` and :meth:`Measure.total_mass_upper`
    refuse: the hidden-enumeration regime of the Specker limit.  A function
    that is 0 right of some point still integrates exactly, over the atoms
    at or left of it.
    """

    def __init__(self, weight: Callable[[int], Fraction]):
        self.weight = weight

    def prefix(self, k: int) -> list[tuple[Fraction, Fraction]]:
        """The first k atoms, ``(i, weight(i))`` for i < k."""
        return [(Fraction(i), self.weight(i)) for i in range(k)]

    def _up_to(self, hi: Fraction) -> DiscreteMeasure:
        """The atoms at or left of ``hi``: no weight beyond floor(hi) is read."""
        return DiscreteMeasure(tuple(self.prefix(math.floor(hi) + 1)))

    def integrate_zero_outside(self, p: PolyFunc, n: int) -> Fraction:
        """Exact, over the atoms up to the end of p's support (none for the
        zero polygon): p is 0 at every atom beyond it."""
        comps = p.support_components()
        return self._up_to(comps[-1][1] if comps else -1).integrate_poly(p)

    def integrate_supported(self, f: SupportedFunc, n: int) -> Fraction:
        """Over the atoms up to the right end of f's support hull."""
        return self._up_to(f.hull()[1]).integrate_supported(f, n)

    def null_test(self) -> Callable[[Fraction], bool]:
        return lambda x: x.denominator != 1 or x < 0

    def open_mass(self, U: SigmaSet) -> LowerReal:
        """Bound k: the mass of U's k-th inner union under the first k atoms."""
        return LowerReal(lambda k: DiscreteMeasure(tuple(self.prefix(k))).region_mass_open(U.inner(k)))


# ---------------------------------------------------------------------------
# exact integration


def integrate_poly(p: PolyFunc, mu: Measure) -> Fraction:
    """Exact integral of a polygonal function (:meth:`Measure.integrate_poly`)."""
    return mu.integrate_poly(p)


def integrate_named(f, mu: Measure, n: int) -> Fraction:
    """Integral within 2^-n of a named function.

    ``f`` is either a :class:`SupportedFunc` or a pair ``(name, B)`` of a
    compact-open name and an integer bound on |f|.  The route is the
    contract one: polygonal approximation through the name, exact polygonal
    integration, tail estimates for the mass the window misses.
    """
    if isinstance(f, SupportedFunc):
        return mu.integrate_supported(f, n)
    name, B = f
    B = Fraction(B)
    mass = mu.total_mass_upper()
    radius = mu.support_radius() + 1
    tol = _pow2(n + 1) / (mass + 1)
    psi = polygonal_on_window(name, -radius, radius, tol)
    return integrate_poly(psi, mu)


# ---------------------------------------------------------------------------
# almost decidable sets


@dataclass(frozen=True)
class AlmostDecidablePair:
    """Disjoint effectively open (U, V) with mu(U)+mu(V)=mu(R), U u V dense."""

    U: SigmaSet
    V: SigmaSet
    for_measure: Measure

    def masses(self) -> tuple[Fraction, Fraction, Fraction]:
        mu = self.for_measure
        return (
            mu.region_mass_open(self.U.components),
            mu.region_mass_open(self.V.components),
            mu.exact_total_mass(),
        )

    def check(self) -> bool:
        """One merge of U's and V's merged exact components: U and V meet exactly
        when it joins some, and U u V is dense exactly when it runs from -inf
        to +inf with only point gaps."""
        U, V = self.U.components, self.V.components
        if U is None or V is None:
            raise UnsupportedMeasureClass("check needs exact set descriptions")
        comps = merge_open(U + V)
        if len(comps) < len(U) + len(V):
            return False
        mu_u, mu_v, mu_r = self.masses()
        if mu_u + mu_v != mu_r or not comps or comps[0][0] is not None or comps[-1][1] is not None:
            return False
        return all(r0 == l1 for (_, r0), (l1, _) in zip(comps, comps[1:]))


_RADIUS_GRIDS = (4, 16, 64, 256, 1024, 4096)


def _radius_grid():
    """(u, v) per candidate radius min + (bound - min)*u/v, u/v = (2i + 1)/(2K) on finer and finer K."""
    return ((2 * i + 1, 2 * K) for K in _RADIUS_GRIDS for i in range(K))


def _null_sphere_search(
    mu: Measure, radius_bound: Fraction, min_radius: Fraction
) -> Callable[[Fraction], Fraction]:
    """center -> the first candidate radius (:func:`_radius_grid`) whose sphere is mu-null."""
    if not min_radius < radius_bound:
        raise ValueError("need min_radius < radius_bound")
    null, span = mu.null_test(), radius_bound - min_radius

    def radius(center: Fraction) -> Fraction:
        for u, v in _radius_grid():
            r = min_radius + span * Fraction(u, v)
            if null(center - r) and null(center + r):
                return r
        raise SearchExhausted("search exhausted: no null sphere found")

    return radius


def _ball_pair(mu: Measure, center: Fraction, r: Fraction) -> AlmostDecidablePair:
    return AlmostDecidablePair(
        U=SigmaSet.ball(center, r),
        V=SigmaSet.ball_exterior(center, r),
        for_measure=mu,
    )


def almost_decidable_ball(
    mu: Measure, center, radius_bound, min_radius=0
) -> tuple[Fraction, AlmostDecidablePair]:
    """A ball around ``center`` whose bounding sphere is mu-null.

    Searches rational radii on successively finer odd grids inside
    (min_radius, radius_bound); only finitely many radii are excluded by
    atoms, so the search succeeds for the concrete classes.
    """
    center = _fraction(center)
    r = _null_sphere_search(mu, _fraction(radius_bound), _fraction(min_radius))(center)
    return r, _ball_pair(mu, center, r)


def _walk_step(j: int) -> int:
    """The k of the j-th cover centre k*pitch in the walk 0, 1, -1, 2, -2, ..."""
    return (j + 1) // 2 if j % 2 else -(j // 2)


def _walk_place(k: int) -> int:
    """Place in the walk of the centre k*pitch; inverse of :func:`_walk_step`."""
    return 2 * k - 1 if k > 0 else -2 * k


def almost_decidable_cover(mu: Measure, s) -> Stream:
    """An open cover of R by mu-almost decidable balls with radius < s.

    Centers walk the grid 0, s/2, -s/2, s, -s, ...; radii live in
    (s/4, 15s/16), so consecutive balls overlap and the union is all of R.
    Ball j is the one ``almost_decidable_ball(mu, c_j, 15s/16, s/4)``
    returns; one radius search serves every center.  This is the paper's
    enumeration of a basis of almost decidable balls; reaching a point x
    takes about 4|x|/s balls, so callers that only need the balls holding
    given points use :func:`first_cover_balls`, which finds the same balls
    directly.
    """
    s = _fraction(s)
    if s <= 0:
        raise ValueError("s must be positive")

    def pairs():
        pitch, radius = s / 2, _null_sphere_search(mu, s * Fraction(15, 16), s / 4)
        for j in itertools.count():
            c = _walk_step(j) * pitch
            yield _ball_pair(mu, c, radius(c))

    return Stream(pairs())


def _cover_radius(on: set, lx: int, p: int, q: int, k: int) -> tuple[int, int]:
    """``(m, D)`` of the walk's first radius r = s/4 + 11s/16*u/v = s*m/D whose
    sphere about k*s/2 misses the atoms, keys ``on`` over ``lx``, s = p/q: c -+ r =
    s*(8kv -+ m)/D is an atom iff p*(8kv -+ m)*lx over q*D is an ``int`` key."""
    for u, v in _radius_grid():
        m, D = 4 * v + 11 * u, 16 * v
        for t in (8 * k * v - m, 8 * k * v + m):
            key, off = divmod(p * t * lx, q * D)
            if not off and key in on:
                break
        else:
            return m, D
    raise SearchExhausted("search exhausted: no null sphere found")


def first_cover_balls(
    mu: DiscreteMeasure, s, points: Sequence[Fraction]
) -> list[tuple[int, AlmostDecidablePair]]:
    """For each point x, the first ball of the cover that holds x.

    Returns (j, pair) per point, where ``pair`` is ball j of
    ``almost_decidable_cover(mu, s)`` and no ball before it holds x.  A
    cover ball has radius below 15s/16, so only the centers k*s/2 with
    |k*s/2 - x| < 15s/16 can hold x: at most four, tried in walk order
    with one radius search each, however far x lies from 0.  The two
    centers next to x are among them, and radii above s/4 make one of
    those hold x.  All in ``int``s on mu's :meth:`~DiscreteMeasure.lattice`:
    with x = a/b, |k*s/2 - x| < s*m/D iff |p*(kD/2)*b - a*q*D| < p*m*b.
    """
    s = _fraction(s)
    if s <= 0:
        raise ValueError("s must be positive")
    xs, _, lx, _ = mu.lattice()
    on = set(xs)
    p, q = s.numerator, s.denominator
    out = []
    for x in points:
        a, b = x.numerator, x.denominator
        # the k with |k*s/2 - x| < 15s/16, that is |8kpb - 16aq| < 15pb
        A, B = 16 * a * q, p * b
        near = range((A - 15 * B) // (8 * B) + 1, -((-A - 15 * B) // (8 * B)))
        for k in sorted(near, key=_walk_place):
            m, D = _cover_radius(on, lx, p, q, k)
            if abs(p * (k * D // 2) * b - a * q * D) < p * m * b:
                out.append((_walk_place(k), _ball_pair(mu, Fraction(k * p, 2 * q), Fraction(p * m, q * D))))
                break
    return out
