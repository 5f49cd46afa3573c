"""Rational polygonal functions and names of continuous functions.

A :class:`PolyFunc` is piecewise linear with rational vertices and one of
two extension rules.  A :class:`CompactOpenName` names a continuous function
by sound (compact interval, open interval) range pairs.  A name made by
:func:`co_name_of_poly` keeps its polygon as ``poly``, the one place a
function's exact backing is kept: approximation and integration read that
polygon itself, where fitting it through range boxes would only rebuild
it, and every other name is read through its boxes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import lt

from . import codes
from .errors import InsufficientNameProgress, MalformedInterval
from .reals import _fraction
from .sets import (
    ClosedComp,
    CompactName,
    compact_from_closed_union,
    compact_hull_bounds,
)
from .streams import Stream

CONST = "constant-extend"
ZERO = "zero-outside"
_FIT_MAX_DEPTH = 64  # range-box bisections before a fit gives up
_HULL_ROUND = 8  # the support cover SupportedFunc.hull reads


class _Lazy:
    """A field built from the instance on its first read and stored in it,
    a frozen dataclass's too: a rational view of an ``int`` lattice, which no
    constructor sets.  Set on the class after ``@dataclass``, which would
    take a class attribute for the field's default."""

    def __init__(self, name: str, build):
        self.name, self.build = name, build

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.build(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _rational(v):
    """``v`` if an ``int`` or a ``Fraction`` (both have numerator and
    denominator), else :func:`~effmeas.reals._fraction` of it, which refuses
    a value no ``Fraction`` takes."""
    return v if type(v) is int or type(v) is Fraction else _fraction(v)


def _common(qs) -> tuple[list[int], int]:
    """Rationals as ``int``s on the lcm of their denominators, and that lcm."""
    l = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (l // q.denominator) for q in qs], l


@dataclass(frozen=True)
class PolyFunc:
    """A piecewise-linear function with rational vertices.

    ``constant-extend`` keeps the boundary values outside the vertex hull;
    ``zero-outside`` requires the boundary values to be 0 and evaluates to 0
    there, so it agrees everywhere with its constant-extend reading.

    The one stored form of both builds is the ``int`` :meth:`lattice`, which
    evaluation, :meth:`lipschitz`, :meth:`bound`, :meth:`support_components`
    and exact integration read; ``vertices``, for ``==``, hash and repr, is
    built from it on the first read (:class:`_Lazy`).  The constructor raises
    :class:`MalformedInterval` for a coordinate no ``Fraction`` takes, then
    as :func:`_check` does, and drops the ``vertices`` it was given.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]
    extension: str = ZERO
    _lattice: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X, Y, dx, dy = lattice = _lattice_of([(_fraction(x), _fraction(y)) for x, y in self.vertices])
        _check(X, Y, self.extension)
        object.__setattr__(self, "_lattice", lattice)
        object.__delattr__(self, "vertices")

    @classmethod
    def from_ints(cls, X, Y, dx: int, dy: int, extension: str = ZERO) -> "PolyFunc":
        """The polygon with vertices (X[i]/dx, Y[i]/dy), all ``int``, dx, dy > 0
        (unchecked).  Refuses through :func:`_check`, as the constructor does;
        the lattice is reduced to the one the same vertices would give."""
        _check(X, Y, extension)
        g, h = math.gcd(dx, *X), math.gcd(dy, *Y)
        if g > 1 or h > 1:
            X, Y, dx, dy = [x // g for x in X], [y // h for y in Y], dx // g, dy // h
        p = object.__new__(cls)
        object.__setattr__(p, "extension", extension)
        object.__setattr__(p, "_lattice", (tuple(X), tuple(Y), dx, dy))
        return p

    def lattice(self) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """``(X, Y, dx, dy)``: vertex i at (X[i]/dx, Y[i]/dy), on the lcms of the denominators."""
        return self._lattice

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> Fraction:
        """The end value outside the hull (0 under ``zero-outside``), else the
        piece's chord, in ``int``s: the one ``Fraction`` built is the value."""
        x = _rational(x)
        X, Y, dx, dy = self._lattice
        xn, xd = x.numerator, x.denominator
        hi = bisect_right(X, xn * dx // xd)  # the vertices at or left of x
        if hi == 0:
            return Fraction(Y[0], dy)
        if hi == len(X):
            return Fraction(Y[-1], dy)
        x0, x1, y0, y1 = X[hi - 1], X[hi], Y[hi - 1], Y[hi]
        w = x1 - x0
        return Fraction(y0 * w * xd + (y1 - y0) * (xn * dx - x0 * xd), dy * w * xd)

    # -- exact range ------------------------------------------------------

    def exact_range(self, a, b) -> tuple[Fraction, Fraction]:
        """Exact [min, max] on [a, b]: of the values at a, b and the vertices between."""
        a, b = _fraction(a), _fraction(b)
        if a > b:
            raise MalformedInterval("need a <= b")
        X, Y, dx, dy = self._lattice
        inside = Y[bisect_right(X, a.numerator * dx // a.denominator) :
                   bisect_left(X, -(-b.numerator * dx // b.denominator))]
        values = [self(a), self(b)] + [Fraction(y, dy) for y in inside]
        return min(values), max(values)

    def bound(self) -> Fraction:
        """A bound on |f| over all of R."""
        _, Y, _, dy = self._lattice
        return Fraction(max(map(abs, Y)), dy)

    def lipschitz(self) -> Fraction:
        """The largest |slope| of a piece, 0 for a single vertex: the steepest
        |dY|/dX on the lattice, an ``int`` pair, times dx/dy."""
        X, Y, dx, dy = self._lattice
        bn, bd = 0, 1
        for x0, x1, y0, y1 in zip(X, X[1:], Y, Y[1:]):
            n, d = abs(y1 - y0), x1 - x0
            if n * bd > bn * d:
                bn, bd = n, d
        return Fraction(bn * dx, bd * dy)

    def breakpoints(self) -> tuple[Fraction, ...]:
        X, _, dx, _ = self._lattice
        return tuple(Fraction(x, dx) for x in X)

    def support_components(self) -> tuple[ClosedComp, ...]:
        """Closure of {f != 0}, exact, for zero-outside functions.

        The boundary values are 0, so a component is a maximal run of pieces
        with a nonzero end: one left-to-right pass finds them, in order.
        """
        if self.extension == CONST:
            raise MalformedInterval("support is only finite for zero-outside")
        X, Y, dx, _ = self._lattice
        comps: list[list[int]] = []
        for x0, x1, y0, y1 in zip(X, X[1:], Y, Y[1:]):
            if y0 or y1:
                if comps and comps[-1][1] == x0:
                    comps[-1][1] = x1
                else:
                    comps.append([x0, x1])
        return tuple((Fraction(l, dx), Fraction(r, dx)) for l, r in comps)


def _check(X, Y, extension: str) -> None:
    """The refusals of both builds, on the abscissae ``X`` and ordinates ``Y``
    (``Fraction``s, or ``int``s on one lattice each): abscissae that do not
    strictly increase, no vertex, an unknown extension, and non-zero end
    values under ``zero-outside``, in that order."""
    if not all(map(lt, X, X[1:])):
        raise MalformedInterval("vertex abscissae must strictly increase")
    if not X:
        raise MalformedInterval("a polygonal function needs at least one vertex")
    if extension not in (CONST, ZERO):
        raise MalformedInterval(f"unknown extension mode {extension!r}")
    if extension == ZERO and (Y[0] != 0 or Y[-1] != 0):
        raise MalformedInterval("zero-outside requires zero boundary values")


def _pairs_of(lattice) -> tuple:
    """The ``Fraction`` pairs (X[i]/dx, Y[i]/dy) of a lattice ``(X, Y, dx, dy)``."""
    X, Y, dx, dy = lattice
    return tuple(zip([Fraction(x, dx) for x in X], [Fraction(y, dy) for y in Y]))


def _lattice_of(pairs) -> tuple:
    """Rational pairs (x, y) as ``(X, Y, dx, dy)``, each column on the lcm of
    its denominators: the inverse of :func:`_pairs_of`."""
    X, dx = _common([x for x, _ in pairs])
    Y, dy = _common([y for _, y in pairs])
    return tuple(X), tuple(Y), dx, dy


PolyFunc.vertices = _Lazy("vertices", lambda p: _pairs_of(p._lattice))


def constant_func(c) -> PolyFunc:
    c = _rational(c)
    return PolyFunc.from_ints((0,), (c.numerator,), 1, c.denominator, CONST)


def hat_function(left, peak_x, right, peak_y=1) -> PolyFunc:
    X, dx = _common([_rational(left), _rational(peak_x), _rational(right)])
    y = _rational(peak_y)
    return PolyFunc.from_ints(X, (0, y.numerator, 0), dx, y.denominator, ZERO)


def tent_function(interval) -> PolyFunc:
    """The plateau-1 tent over [c, d] with unit ramps; support [c-1, d+1]."""
    (c, d), l = _common([_rational(interval[0]), _rational(interval[1])])
    if c > d:
        raise MalformedInterval("need c <= d")
    if c == d:
        return PolyFunc.from_ints((c - l, c, c + l), (0, 1, 0), l, 1)
    return PolyFunc.from_ints((c - l, c, d, d + l), (0, 1, 1, 0), l, 1)


def indicator_approx(interval, k: int) -> PolyFunc:
    """Trapezoid T_k below the indicator of the open interval I.

    The plateau is shrunk by 2^-k * |I|/2 per side, so T_k <= T_{k+1}
    pointwise, supp T_k = closure(I), and T_k increases to the indicator.
    On the lattice of I = (A/l, B/l) refined 2^(k+1) times, the shrink is B - A.
    """
    (a, b), l = _common([_rational(interval[0]), _rational(interval[1])])
    if not a < b:
        raise MalformedInterval("need a nondegenerate open interval")
    if k < 0:
        raise ValueError("k must be a natural number")
    if k == 0:
        return PolyFunc.from_ints((2 * a, a + b, 2 * b), (0, 1, 0), 2 * l, 1)
    a, b, s = a << k + 1, b << k + 1, b - a
    return PolyFunc.from_ints((a, a + s, b - s, b), (0, 1, 1, 0), l << k + 1, 1)


# ---------------------------------------------------------------------------
# compact-open names


class CompactOpenName:
    """A name of a continuous function via sound range boxes.

    ``range_box(a, b, tol)`` returns a closed [lo, hi] containing f[[a,b]]
    and at most ``tol`` wider than the exact range.  The enumeration lists,
    in the fixed code order, every (compact I, open J) pair with f[I]
    strictly inside J; its ``Stream`` is built on the first read.  ``poly``
    is the polygon an exact name is backed by, or ``None`` for an opaque
    name.
    """

    def __init__(self, range_fn, poly: "PolyFunc | None" = None):
        self._range_fn = range_fn
        self.poly = poly

    def _pairs(self):
        for n in itertools.count():
            i, j = codes.decode_pair_code(n)
            ca, ra = codes.decode_ball(i)
            jl, jr = codes.decode_open_interval(j)
            I = (ca - ra, ca + ra)
            lo, hi = self._range_fn(I[0], I[1], (jr - jl) / 8)
            if jl < lo and hi < jr:
                yield (I, (jl, jr))

    def range_box(self, a, b, tol) -> tuple[Fraction, Fraction]:
        a, b, tol = _fraction(a), _fraction(b), _fraction(tol)
        if a > b:
            raise MalformedInterval("need a <= b")
        return self._range_fn(a, b, tol)

    def value_box(self, x, tol) -> tuple[Fraction, Fraction]:
        return self.range_box(x, x, tol)


CompactOpenName.enumeration = _Lazy("enumeration", lambda name: Stream(name._pairs()))


def co_name_of_poly(p: PolyFunc) -> CompactOpenName:
    def range_fn(a, b, _tol):
        return p.exact_range(a, b)

    return CompactOpenName(range_fn, poly=p)


@dataclass(frozen=True)
class SupportedFunc:
    """A continuous function bundled with a name of its compact support.

    Only the input of :func:`~effmeas.convergence.uniformize_vague` and of
    :func:`~effmeas.measures.integrate_named`.  An exact backing, if any, is
    the name's ``poly``; vague oracles take that polygon itself, never a
    ``SupportedFunc``, and the converters integrate the polygons they build
    through :meth:`~effmeas.measures.Measure.integrate_zero_outside`,
    unwrapped.
    """

    name: CompactOpenName
    support: CompactName

    def hull(self) -> tuple[Fraction, Fraction]:
        """Rationals l <= min supp f and max supp f <= u, from cover ``_HULL_ROUND``."""
        return compact_hull_bounds(self.support, _HULL_ROUND)


def supported_from_poly(p: PolyFunc) -> SupportedFunc:
    if p.extension != ZERO:
        raise MalformedInterval("a supported function must be zero-outside")
    comps = p.support_components()
    if not comps:
        comps = ((Fraction(0), Fraction(0)),)  # zero function: any null set works
    return SupportedFunc(co_name_of_poly(p), compact_from_closed_union(comps))


# ---------------------------------------------------------------------------
# polygonal approximation through the name interface


def _fit(
    name: CompactOpenName,
    a: Fraction,
    va: Fraction,
    b: Fraction,
    vb: Fraction,
    err: Fraction,
    depth: int,
) -> list[tuple[Fraction, Fraction]]:
    """Interior vertices making the chord through (a,va),(b,vb) err-close to f.

    The deviation bound on each half-cell compares the function's range box
    with the chord's range; it is a sound bound on sup |f - chord| there, so
    accepting a cell never overstates accuracy.
    """
    mid = (a + b) / 2
    box_tol = err / 8
    bound = Fraction(0)
    for s0, s1 in ((a, mid), (mid, b)):
        flo, fhi = name.range_box(s0, s1, box_tol)
        c0 = va + (vb - va) * (s0 - a) / (b - a)
        c1 = va + (vb - va) * (s1 - a) / (b - a)
        clo, chi = min(c0, c1), max(c0, c1)
        bound = max(bound, fhi - clo, chi - flo)
    if bound < err:
        return []
    if depth <= 0:
        raise InsufficientNameProgress(
            "insufficient name progress: boxes did not certify the error bound"
        )
    lo, hi = name.value_box(mid, err / 4)
    vm = (lo + hi) / 2
    left = _fit(name, a, va, mid, vm, err, depth - 1)
    right = _fit(name, mid, vm, b, vb, err, depth - 1)
    return left + [(mid, vm)] + right


def polygonal_on_window(
    name: CompactOpenName, a, b, err, *, va=None, vb=None, extension=CONST
) -> PolyFunc:
    """A rational polygonal function within err of the named f on [a, b]."""
    return PolyFunc.from_ints(*_window_lattice(name, a, b, err, va, vb), extension)


def _window_lattice(name: CompactOpenName, a, b, err, va=None, vb=None) -> tuple:
    """:func:`polygonal_on_window`'s polygon as unreduced :meth:`PolyFunc.from_ints`
    arguments, for a caller that adds vertices before building it."""
    a, b, err = _rational(a), _rational(b), _fraction(err)
    if err <= 0:
        raise ValueError("err must be positive")
    if not a < b:
        raise MalformedInterval("need a < b")

    backing = name.poly
    if backing is not None:
        # Exactly backed name: the restriction of f itself is the best
        # polygonal fit (error 0), provided any forced endpoint values
        # agree with f.  Range-box fitting below handles opaque names.
        va0, vb0 = backing(a), backing(b)
        if (va is None or _fraction(va) == va0) and (vb is None or _fraction(vb) == vb0):
            X, Y, dx, dy = backing.lattice()
            i = bisect_right(X, a.numerator * dx // a.denominator)  # the first vertex > a
            j = bisect_left(X, -(-b.numerator * dx // b.denominator))  # the first >= b
            lx = math.lcm(dx, a.denominator, b.denominator)
            ly = math.lcm(dy, va0.denominator, vb0.denominator)
            X = [a.numerator * (lx // a.denominator), *[x * (lx // dx) for x in X[i:j]],
                 b.numerator * (lx // b.denominator)]
            Y = [va0.numerator * (ly // va0.denominator), *[y * (ly // dy) for y in Y[i:j]],
                 vb0.numerator * (ly // vb0.denominator)]
            return X, Y, lx, ly

    a, b = _fraction(a), _fraction(b)  # _fit halves [a, b]

    def node(x, forced):
        if forced is not None:
            return _fraction(forced)
        lo, hi = name.value_box(x, err / 4)
        return (lo + hi) / 2

    va = node(a, va)
    vb = node(b, vb)
    return _lattice_of([(a, va)] + _fit(name, a, va, b, vb, err, _FIT_MAX_DEPTH) + [(b, vb)])


def approx_polygonal(f: SupportedFunc, err) -> PolyFunc:
    """Lemma-style polygonal approximation of a compactly supported function.

    Picks rationals p < min supp f and q > max supp f inside the integer
    hull, forces the approximation to vanish there, and certifies the
    sup-error on [p, q] through range boxes alone.

    A name with a ``zero-outside`` exact backing returns the backing itself,
    with error 0: the fit would be that polygon cut at p and q, where it is
    0, so the same function on all of R, with the same integrals,
    :meth:`PolyFunc.lipschitz`, :meth:`PolyFunc.bound` and
    :meth:`PolyFunc.support_components`.
    """
    err = _fraction(err)
    if err <= 0:
        raise ValueError("err must be positive")
    backing = f.name.poly
    if backing is not None and backing.extension == ZERO:
        return backing
    l, u = f.hull()
    # greatest integer strictly below l, smallest strictly above u
    fl = l.__ceil__() - 1
    cu = u.__floor__() + 1
    p = (Fraction(fl) + l) / 2
    q = (u + Fraction(cu)) / 2
    return polygonal_on_window(
        f.name, p, q, err, va=Fraction(0), vb=Fraction(0), extension=ZERO
    )
