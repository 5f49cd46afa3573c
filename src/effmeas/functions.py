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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import codes
from .errors import InsufficientNameProgress, MalformedInterval
from .reals import _fraction, _pow2
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
_HULL_ROUND = 8  # precision of the support hull bounds approx_polygonal reads
_ZERO = Fraction(0)  # immutable, so shared by every polygon built here


@dataclass(frozen=True)
class PolyFunc:
    """A piecewise-linear function with rational vertices.

    ``constant-extend`` keeps the boundary values outside the vertex hull;
    ``zero-outside`` requires the boundary values to be 0 and evaluates to 0
    there.  Note a zero-outside function agrees everywhere with its
    constant-extend reading, which the algebra below exploits.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]
    extension: str = ZERO

    def __post_init__(self):
        verts = []
        for x, y in self.vertices:
            if type(x) is not Fraction:
                x = Fraction(x)
            if type(y) is not Fraction:
                y = Fraction(y)
            if verts and not verts[-1][0] < x:
                raise MalformedInterval("vertex abscissae must strictly increase")
            verts.append((x, y))
        verts = tuple(verts)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise MalformedInterval("a polygonal function needs at least one vertex")
        if self.extension not in (CONST, ZERO):
            raise MalformedInterval(f"unknown extension mode {self.extension!r}")
        if self.extension == ZERO and (verts[0][1] != 0 or verts[-1][1] != 0):
            raise MalformedInterval("zero-outside requires zero boundary values")

    # -- evaluation -------------------------------------------------------

    def __call__(self, x) -> Fraction:
        if type(x) is not Fraction:
            x = Fraction(x)
        verts = self.vertices
        if x <= verts[0][0]:
            if x == verts[0][0]:
                return verts[0][1]
            return verts[0][1] if self.extension == CONST else Fraction(0)
        if x >= verts[-1][0]:
            if x == verts[-1][0]:
                return verts[-1][1]
            return verts[-1][1] if self.extension == CONST else Fraction(0)
        lo, hi = 0, len(verts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if verts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = verts[lo], verts[hi]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    # -- exact range ------------------------------------------------------

    def exact_range(self, a, b) -> tuple[Fraction, Fraction]:
        """Exact [min, max] of the function on the closed interval [a, b]."""
        a, b = _fraction(a), _fraction(b)
        if a > b:
            raise MalformedInterval("need a <= b")
        values = [self(a), self(b)]
        values.extend(y for x, y in self.vertices if a < x < b)
        # extension plateaus inside [a, b] contribute their constant value
        if self.extension == ZERO:
            if a < self.vertices[0][0]:
                values.append(Fraction(0))
            if b > self.vertices[-1][0]:
                values.append(Fraction(0))
        return min(values), max(values)

    def bound(self) -> Fraction:
        """A bound on |f| over all of R."""
        m = max(abs(y) for _, y in self.vertices)
        return m

    def lipschitz(self) -> Fraction:
        """The largest |slope| of a piece, 0 for a single vertex.

        Each vertex's four ``int``s are read once; each piece's |dy|/dx is
        an ``int`` pair n/d, d > 0, compared with the steepest so far by
        cross-multiplying, so the only ``Fraction`` built is the answer.
        """
        bn, bd = 0, 1
        ints = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in self.vertices]
        for (xn0, xd0, yn0, yd0), (xn1, xd1, yn1, yd1) in zip(ints, ints[1:]):
            n = abs(yn1 * yd0 - yn0 * yd1) * xd0 * xd1
            d = (xn1 * xd0 - xn0 * xd1) * yd0 * yd1
            if n * bd > bn * d:
                bn, bd = n, d
        return Fraction(bn, bd)

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.vertices)

    def support_components(self) -> tuple[ClosedComp, ...]:
        """Closure of {f != 0}, exact, for zero-outside functions.

        The boundary values are 0, so a component is a maximal run of pieces
        with a nonzero end: one left-to-right pass finds them, in order.
        """
        if self.extension == CONST:
            raise MalformedInterval("support is only finite for zero-outside")
        comps: list[ClosedComp] = []
        verts = self.vertices
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if y0 or y1:
                if comps and comps[-1][1] == x0:
                    comps[-1] = (comps[-1][0], x1)
                else:
                    comps.append((x0, x1))
        return tuple(comps)

    # -- algebra ----------------------------------------------------------

    def combine(self, other: "PolyFunc", op: Callable[[Fraction, Fraction], Fraction]) -> "PolyFunc":
        xs = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        ys = [op(self(x), other(x)) for x in xs]
        ext = ZERO if (
            self.extension == ZERO
            and other.extension == ZERO
            and ys[0] == 0
            and ys[-1] == 0
        ) else CONST
        return PolyFunc(tuple(zip(xs, ys)), ext)

    def __add__(self, other: "PolyFunc") -> "PolyFunc":
        return self.combine(other, lambda a, b: a + b)

    def __sub__(self, other: "PolyFunc") -> "PolyFunc":
        return self.combine(other, lambda a, b: a - b)

    def scale(self, c) -> "PolyFunc":
        c = Fraction(c)
        return PolyFunc(
            tuple((x, c * y) for x, y in self.vertices),
            self.extension if c != 0 or self.extension == CONST else ZERO,
        )


def constant_func(c) -> PolyFunc:
    return PolyFunc(((Fraction(0), Fraction(c)),), CONST)


def hat_function(left, peak_x, right, peak_y=1) -> PolyFunc:
    return PolyFunc(
        ((Fraction(left), Fraction(0)), (Fraction(peak_x), Fraction(peak_y)),
         (Fraction(right), Fraction(0))),
        ZERO,
    )


def tent_function(interval) -> PolyFunc:
    """The plateau-1 tent over [c, d] with unit ramps; support [c-1, d+1]."""
    c, d = _fraction(interval[0]), _fraction(interval[1])
    if c > d:
        raise MalformedInterval("need c <= d")
    one = _pow2(0)
    if c == d:
        return PolyFunc(((c - 1, _ZERO), (c, one), (c + 1, _ZERO)), ZERO)
    return PolyFunc(((c - 1, _ZERO), (c, one), (d, one), (d + 1, _ZERO)), ZERO)


def indicator_approx(interval, k: int) -> PolyFunc:
    """Trapezoid T_k below the indicator of the open interval I.

    The plateau is shrunk by 2^-k * |I|/2 per side, so T_k <= T_{k+1}
    pointwise, supp T_k = closure(I), and T_k increases to the indicator.
    """
    a, b = _fraction(interval[0]), _fraction(interval[1])
    if not a < b:
        raise MalformedInterval("need a nondegenerate open interval")
    if k < 0:
        raise ValueError("k must be a natural number")
    s = (b - a) / 2 * _pow2(k)
    one = _pow2(0)
    if 2 * s >= b - a:
        return PolyFunc(((a, _ZERO), ((a + b) / 2, one), (b, _ZERO)), ZERO)
    return PolyFunc(((a, _ZERO), (a + s, one), (b - s, one), (b, _ZERO)), ZERO)


# ---------------------------------------------------------------------------
# compact-open names


class CompactOpenName:
    """A name of a continuous function via sound range boxes.

    ``range_box(a, b, tol)`` returns a closed [lo, hi] containing f[[a,b]]
    and at most ``tol`` wider than the exact range.  The enumeration lists,
    in the fixed code order, every (compact I, open J) pair with f[I]
    strictly inside J.  ``poly`` is the polygon an exact name is backed by,
    or ``None`` for an opaque name.
    """

    def __init__(self, range_fn, exact: bool = True, poly: "PolyFunc | None" = None):
        self._range_fn = range_fn
        self.exact = exact
        self.poly = poly

        def pairs():
            for n in itertools.count():
                i, j = codes.decode_pair_code(n)
                ca, ra = codes.decode_ball(i)
                jl, jr = codes.decode_open_interval(j)
                I = (ca - ra, ca + ra)
                lo, hi = self._range_fn(I[0], I[1], (jr - jl) / 8)
                if jl < lo and hi < jr:
                    yield (I, (jl, jr))

        self.enumeration = Stream(pairs())

    def range_box(self, a, b, tol) -> tuple[Fraction, Fraction]:
        a, b, tol = _fraction(a), _fraction(b), _fraction(tol)
        if a > b:
            raise MalformedInterval("need a <= b")
        return self._range_fn(a, b, tol)

    def value_box(self, x, tol) -> tuple[Fraction, Fraction]:
        return self.range_box(x, x, tol)


def co_name_of_poly(p: PolyFunc) -> CompactOpenName:
    def range_fn(a, b, _tol):
        return p.exact_range(a, b)

    return CompactOpenName(range_fn, exact=True, poly=p)


@dataclass(frozen=True)
class SupportedFunc:
    """A continuous function bundled with a name of its compact support.

    Only the input of :func:`~effmeas.convergence.uniformize_vague` and of
    :func:`~effmeas.measures.integrate_named`.  An exact backing, if any, is
    the name's ``poly`` (:func:`_exact_backing`); vague oracles take that
    polygon itself, never a ``SupportedFunc``, and the converters integrate
    the polygons they build through
    :meth:`~effmeas.measures.Measure.integrate_zero_outside`, unwrapped.
    """

    name: CompactOpenName
    support: CompactName


def supported_from_poly(p: PolyFunc) -> SupportedFunc:
    if p.extension != ZERO:
        raise MalformedInterval("a supported function must be zero-outside")
    comps = p.support_components()
    if not comps:
        comps = ((Fraction(0), Fraction(0)),)  # zero function: any null set works
    return SupportedFunc(co_name_of_poly(p), compact_from_closed_union(comps))


# ---------------------------------------------------------------------------
# polygonal approximation through the name interface


def _exact_backing(name: CompactOpenName) -> "PolyFunc | None":
    """The polygon an exact name is backed by (:func:`co_name_of_poly`), or
    ``None`` for an opaque or inexact name, which is fitted by range boxes."""
    return name.poly if name.exact else None


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
    return PolyFunc(tuple(_window_vertices(name, a, b, err, va, vb)), extension)


def _window_vertices(name: CompactOpenName, a, b, err, va=None, vb=None) -> list:
    """The vertices of :func:`polygonal_on_window`'s polygon, from a to b,
    for a caller that adds vertices before building the one ``PolyFunc``."""
    a, b, err = _fraction(a), _fraction(b), _fraction(err)
    if err <= 0:
        raise ValueError("err must be positive")
    if not a < b:
        raise MalformedInterval("need a < b")

    backing = _exact_backing(name)
    if backing is not None:
        # Exactly backed name: the restriction of f itself is the best
        # polygonal fit (error 0), provided any forced endpoint values
        # agree with f.  Range-box fitting below handles opaque names.
        va0, vb0 = backing(a), backing(b)
        if (va is None or _fraction(va) == va0) and (vb is None or _fraction(vb) == vb0):
            return [(a, va0)] + [(x, y) for x, y in backing.vertices if a < x < b] + [(b, vb0)]

    def node(x, forced):
        if forced is not None:
            return _fraction(forced)
        lo, hi = name.value_box(x, err / 4)
        return (lo + hi) / 2

    va = node(a, va)
    vb = node(b, vb)
    return [(a, va)] + _fit(name, a, va, b, vb, err, _FIT_MAX_DEPTH) + [(b, vb)]


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
    backing = _exact_backing(f.name)
    if backing is not None and backing.extension == ZERO:
        return backing
    l, u = compact_hull_bounds(f.support, _HULL_ROUND)
    # greatest integer strictly below l, smallest strictly above u
    fl = l.__ceil__() - 1
    cu = u.__floor__() + 1
    p = (Fraction(fl) + l) / 2
    q = (u + Fraction(cu)) / 2
    return polygonal_on_window(
        f.name, p, q, err, va=Fraction(0), vb=Fraction(0), extension=ZERO
    )
