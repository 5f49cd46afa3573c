"""Polygons on the ``int`` lattice against the ``Fraction`` polygon they replace.

:class:`FractionPolyFunc` is ``PolyFunc`` as it was before it kept its
vertices as ``int``s: it coerces, compares and interpolates vertex by vertex
in ``Fraction``s.  A polygon built from its vertices and one built by
``PolyFunc.from_ints`` on an unreduced lattice must both agree with it on
every observable, and refuse the same bad input with the same message.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from effmeas import DiscreteMeasure, PolyDensityMeasure, PolyFunc, constant_func, hat_function, indicator_approx
from effmeas import co_name_of_poly, tent_function
from effmeas.errors import MalformedInterval
from effmeas.fileformat import serialize_function
from effmeas.functions import CONST, ZERO, polygonal_on_window

# ---------------------------------------------------------------------------
# the oracle


@dataclass(frozen=True)
class FractionPolyFunc:
    """``PolyFunc`` with its vertices in ``Fraction``s only."""

    vertices: tuple
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

    def exact_range(self, a, b):
        a, b = Fraction(a), Fraction(b)
        if a > b:
            raise MalformedInterval("need a <= b")
        values = [self(a), self(b)]
        values.extend(y for x, y in self.vertices if a < x < b)
        if self.extension == ZERO:
            if a < self.vertices[0][0]:
                values.append(Fraction(0))
            if b > self.vertices[-1][0]:
                values.append(Fraction(0))
        return min(values), max(values)

    def bound(self) -> Fraction:
        return max(abs(y) for _, y in self.vertices)

    def lipschitz(self) -> Fraction:
        verts = self.vertices
        return max(
            (abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(verts, verts[1:])),
            default=Fraction(0),
        )

    def support_components(self):
        if self.extension == CONST:
            raise MalformedInterval("support is only finite for zero-outside")
        comps = []
        verts = self.vertices
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if y0 or y1:
                if comps and comps[-1][1] == x0:
                    comps[-1] = (comps[-1][0], x1)
                else:
                    comps.append((x0, x1))
        return tuple(comps)


def on_lattice(verts, k: int = 1, m: int = 1):
    """``verts`` as from_ints arguments, the lattices refined k and m times."""
    dx = math.lcm(*(Fraction(x).denominator for x, _ in verts)) * k
    dy = math.lcm(*(Fraction(y).denominator for _, y in verts)) * m
    X = [Fraction(x).numerator * (dx // Fraction(x).denominator) for x, _ in verts]
    Y = [Fraction(y).numerator * (dy // Fraction(y).denominator) for _, y in verts]
    return X, Y, dx, dy


# ---------------------------------------------------------------------------
# strategies

coord = st.fractions(min_value=-4, max_value=4, max_denominator=12)
point = st.fractions(min_value=-6, max_value=6, max_denominator=50)


@st.composite
def polygons(draw):
    extension = draw(st.sampled_from((CONST, ZERO)))
    xs = sorted(draw(st.sets(coord, min_size=1, max_size=7)))
    ys = [draw(coord) for _ in xs]
    if extension == ZERO:
        ys[0] = ys[-1] = Fraction(0)
    return tuple(zip(xs, ys)), extension


atom_lists = st.lists(
    st.tuples(point, st.fractions(min_value=Fraction(1, 64), max_value=2, max_denominator=64)),
    max_size=8,
)


class TestAgainstFractionPolygon:
    @settings(max_examples=200, deadline=None)
    @given(
        poly=polygons(),
        k=st.integers(1, 6),
        m=st.integers(1, 6),
        extra=st.lists(point, max_size=6),
        atoms=atom_lists,
    )
    def test_every_observable(self, poly, k, m, extra, atoms):
        verts, ext = poly
        oracle = FractionPolyFunc(verts, ext)
        built = PolyFunc(verts, ext)
        ints = PolyFunc.from_ints(*on_lattice(verts, k, m), ext)
        xs = [x for x, _ in verts]
        points = (
            xs
            + [(x0 + x1) / 2 for x0, x1 in zip(xs, xs[1:])]
            + [(2 * x0 + x1) / 3 for x0, x1 in zip(xs, xs[1:])]
            + [xs[0] - 1, xs[0] - Fraction(1, 97), xs[-1] + Fraction(1, 3), xs[-1] + 5]
            + extra
        )
        members = (
            DiscreteMeasure(tuple(atoms)),
            DiscreteMeasure.from_ints(
                [x.numerator * 3 for x, _ in atoms], [x.denominator * 3 for x, _ in atoms],
                [w.numerator for _, w in atoms], [w.denominator * 2 for _, w in atoms],
            ),
        )
        assert built.lattice() == ints.lattice()
        for p in (built, ints):
            for x in points:
                got = p(x)
                assert type(got) is Fraction and got == oracle(x)
            assert p(int(xs[0].__floor__())) == oracle(xs[0].__floor__())
            assert p.lipschitz() == oracle.lipschitz()
            assert p.bound() == oracle.bound()
            for a, b in zip(points, points[1:]):
                a, b = min(a, b), max(a, b)
                assert p.exact_range(a, b) == oracle.exact_range(a, b)
            if ext == ZERO:
                assert p.support_components() == oracle.support_components()
            else:
                with pytest.raises(MalformedInterval, match="only finite for zero-outside"):
                    p.support_components()
            want = sum((w * oracle(x) for x, w in atoms), Fraction(0))
            for mu in members:
                assert mu.integrate_poly(p) == want * (1 if mu is members[0] else Fraction(1, 2))
        assert "vertices" not in vars(ints)  # nothing above built the Fraction view
        for p in (built, ints):
            assert p.vertices == oracle.vertices
            assert p == PolyFunc(oracle.vertices, ext) and p == built
            assert hash(p) == hash(oracle)
            assert repr(p) == repr(oracle).replace("FractionPolyFunc", "PolyFunc")
            assert serialize_function(p) == serialize_function(oracle)
        assert vars(ints)["vertices"] is ints.vertices  # built once, then kept

    def test_lattice_readers_build_no_vertices(self):
        """A polygon built from its vertices keeps only its lattice: the
        readers below, a density's among them, never rebuild ``vertices``."""
        verts = ((Fraction(-3, 4), 0), (Fraction(1, 3), Fraction(5, 2)), (Fraction(3, 2), Fraction(1, 7)), (2, 0))
        oracle, p = FractionPolyFunc(verts), PolyFunc(verts)
        points = [-1, Fraction(-3, 4), 0, Fraction(1, 3), 1, Fraction(7, 4), 3]
        assert [p(x) for x in points] == [oracle(x) for x in points]
        assert (p.lipschitz(), p.bound()) == (oracle.lipschitz(), oracle.bound())
        assert p.support_components() == oracle.support_components()
        mu = PolyDensityMeasure(p)
        total = sum(((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(oracle.vertices, oracle.vertices[1:])))
        (_, ws, _, lw), err = mu.cells(Fraction(1, 4))
        assert (Fraction(sum(ws), lw), err) == (total, Fraction(1, 4))
        assert mu.integrate_poly(constant_func(1)) == mu.exact_total_mass() == total
        assert mu.support_radius() == 2
        assert "vertices" not in vars(p)

    @settings(max_examples=200, deadline=None)
    @given(
        c=coord, d=coord, k=st.integers(0, 6), peak=coord, c0=coord,
        ab=st.tuples(point, point), err=st.fractions(min_value=Fraction(1, 1024), max_value=1),
        poly=polygons(),
    )
    def test_library_polygons(self, c, d, k, peak, c0, ab, err, poly):
        """The converters' tents, trapezoids and windows, built from ``int``s,
        have the vertices the ``Fraction`` formulas gave."""
        c, d = min(c, d), max(c, d)
        one, zero = Fraction(1), Fraction(0)
        if c == d:
            want = ((c - 1, zero), (c, one), (c + 1, zero))
        else:
            want = ((c - 1, zero), (c, one), (d, one), (d + 1, zero))
        assert tent_function((c, d)).vertices == FractionPolyFunc(want).vertices
        if c < d:
            s = (d - c) / 2 / 2**k
            if 2 * s >= d - c:
                want = ((c, zero), ((c + d) / 2, one), (d, zero))
            else:
                want = ((c, zero), (c + s, one), (d - s, one), (d, zero))
            assert indicator_approx((c, d), k).vertices == FractionPolyFunc(want).vertices
            assert hat_function(c, (c + d) / 2, d, peak).vertices == (
                (c, zero), ((c + d) / 2, peak), (d, zero))
        assert constant_func(c0).vertices == ((zero, c0),)
        verts, ext = poly
        a, b = min(ab), max(ab)
        if a < b:
            oracle = FractionPolyFunc(verts, ext)
            want = [(a, oracle(a))] + [(x, y) for x, y in verts if a < x < b] + [(b, oracle(b))]
            got = polygonal_on_window(co_name_of_poly(PolyFunc(verts, ext)), a, b, err)
            assert got.vertices == tuple(want) and got.extension == CONST


BAD = [
    ("equal abscissae", ((0, 0), (1, 1), (1, 2), (2, 0)), ZERO, "vertex abscissae must strictly increase"),
    ("decreasing abscissae", ((0, 1), (-1, 2)), CONST, "vertex abscissae must strictly increase"),
    ("non-zero left end", ((0, 1), (1, 0)), ZERO, "zero-outside requires zero boundary values"),
    ("non-zero right end", ((0, 0), (1, 0), (2, -3)), ZERO, "zero-outside requires zero boundary values"),
    ("single non-zero vertex", ((0, 1),), ZERO, "zero-outside requires zero boundary values"),
    ("unknown extension", ((0, 0), (1, 0)), "periodic", "unknown extension mode 'periodic'"),
    ("no vertices", (), ZERO, "a polygonal function needs at least one vertex"),
    ("no vertices, unknown extension", (), "periodic", "a polygonal function needs at least one vertex"),
]


class TestRefusals:
    @pytest.mark.parametrize("verts, ext, msg", [b[1:] for b in BAD], ids=[b[0] for b in BAD])
    def test_same_message_from_every_build(self, verts, ext, msg):
        lattices = [on_lattice(verts), on_lattice(verts, 2, 3)] if verts else [([], [], 1, 1)]
        builds = [lambda: FractionPolyFunc(verts, ext), lambda: PolyFunc(verts, ext)]
        builds += [lambda lat=lat: PolyFunc.from_ints(*lat, ext) for lat in lattices]
        for build in builds:
            with pytest.raises(MalformedInterval) as exc:
                build()
            assert str(exc.value) == msg
