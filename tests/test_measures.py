"""Concrete measure classes, exact integration, and almost decidable sets."""

import itertools
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import (
    AlmostDecidablePair,
    CauchyReal,
    DiscreteMeasure,
    Fuel,
    LazyDiscreteMeasure,
    Measure,
    PolyDensityMeasure,
    PolyFunc,
    SigmaSet,
    almost_decidable_ball,
    almost_decidable_cover,
    constant_func,
    hat_function,
    indicator_approx,
    integrate_named,
    integrate_poly,
    limit_from_vague,
    supported_from_poly,
    tent_function,
)
from effmeas.corpora import deltashrink
from effmeas.errors import MalformedInterval, UnsupportedMeasureClass
from effmeas.functions import co_name_of_poly
from effmeas.measures import first_cover_balls, integrate_product
from effmeas.reals import LowerReal, _pow2
from effmeas.sets import merge_closed, merge_open
from tests.conftest import (
    almost_decidable_by_pairs,
    exact_open,
    mass_closed_per_atom,
    mass_closed_per_component,
    open_contains_point,
    region_mass_open_per_atom,
    region_mass_open_per_component,
    spelled_from_ints,
)
from tests.test_functions import _SubFraction, opaque_name_of, spelled

frac = st.fractions(min_value=-4, max_value=4, max_denominator=16)


def discrete_atoms_dict_oracle(atoms):
    """The dict-merging normalisation, kept as the oracle for the one-pass sort."""
    merged = {}
    for loc, w in atoms:
        loc, w = Fraction(loc), Fraction(w)
        if w <= 0:
            raise ValueError("atom weights must be positive")
        merged[loc] = merged.get(loc, Fraction(0)) + w
    return tuple(sorted(merged.items()))


def discrete_atoms_fraction_loop(atoms):
    """The sort and merge on ``Fraction`` keys, kept as the oracle for the one
    on ``int`` keys: (atoms, total)."""
    pairs = []
    for loc, w in atoms:
        if type(loc) is not Fraction:
            loc = Fraction(loc)
        if type(w) is not Fraction:
            w = Fraction(w)
        if w.numerator <= 0:
            raise ValueError("atom weights must be positive")
        pairs.append((loc, w))
    pairs.sort(key=itemgetter(0))
    merged = []
    total = Fraction(0)
    for loc, w in pairs:
        total = total + w if total else w
        if merged and merged[-1][0] == loc:
            merged[-1] = (loc, merged[-1][1] + w)
        else:
            merged.append((loc, w))
    return tuple(merged), total


def _normalised(build, atoms):
    try:
        return build(atoms)
    except ValueError as exc:
        return type(exc), str(exc)


def _spelled(q: Fraction, spelling: int):
    """q as a Fraction, a str, or an int where q is integral."""
    if spelling == 1:
        return str(q)
    if spelling == 2 and q.denominator == 1:
        return int(q)
    return q


# few locations, so that they repeat; weights <= 0 included
_loc = st.builds(_spelled, st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)]), st.integers(0, 2))
_weight = st.builds(lambda k, d, sp: _spelled(Fraction(k, d), sp), st.integers(-2, 8), st.sampled_from([1, 4]), st.integers(0, 2))
_atom_lists = st.lists(st.tuples(_loc, _weight), max_size=10)


# every spelling of a few values, negative ones included, so locations repeat
_any_loc = st.builds(
    spelled,
    st.sampled_from([Fraction(-2), Fraction(-1, 3), Fraction(0), Fraction(1, 7), Fraction(5, 2)]),
    st.integers(0, 3),
)
_any_weight = st.builds(
    lambda k, d, sp: spelled(Fraction(k, d), sp),
    st.integers(-1, 9),
    st.sampled_from([1, 2, 6, 9]),
    st.integers(0, 3),
)


class TestIntegrateProduct:
    def test_linear_times_linear_exact(self):
        # int_0^1 x * x dx = 1/3, via piecewise-quadratic exact Simpson
        ident = PolyFunc(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))), "constant-extend")
        assert integrate_product(ident, ident, Fraction(0), Fraction(1)) == Fraction(1, 3)

    def test_constant_times_hat(self):
        hat = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        one = constant_func(Fraction(1))
        # triangle area = 1
        assert integrate_product(one, hat, Fraction(-1), Fraction(3)) == 1

    @given(frac, frac)
    def test_symmetric(self, a, b):
        if not a < b:
            return
        p = hat_function(Fraction(-2), Fraction(0), Fraction(2), Fraction(1))
        q = PolyFunc(((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))), "constant-extend")
        assert integrate_product(p, q, a, b) == integrate_product(q, p, a, b)

    @given(frac, frac, frac)
    def test_additive_in_interval(self, a, m, b):
        if not (a < m < b):
            return
        p = hat_function(Fraction(-2), Fraction(0), Fraction(2), Fraction(1))
        q = constant_func(Fraction(3, 2))
        whole = integrate_product(p, q, a, b)
        split = integrate_product(p, q, a, m) + integrate_product(p, q, m, b)
        assert whole == split


class TestDiscreteMeasure:
    def test_atoms_merged_and_sorted(self):
        mu = DiscreteMeasure(((Fraction(1), Fraction(1, 4)), (Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 4))))
        assert mu.atoms == ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))

    def test_masses(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
        assert mu.exact_total_mass() == 1
        assert mu.region_mass_open([(Fraction(-1, 2), Fraction(1, 2))]) == Fraction(1, 2)
        assert mu.mass_closed(((Fraction(0), Fraction(1)),)) == 1
        assert mu.mass_closed(((Fraction(1, 4), Fraction(3, 4)),)) == 0

    def test_reversed_closed_component_refused(self):
        with pytest.raises(MalformedInterval, match="closed component needs left <= right"):
            DiscreteMeasure(((Fraction(1, 2), 1),)).mass_closed([(1, 0)])

    @pytest.mark.parametrize(
        "mu, total",
        [(DiscreteMeasure.point(0, Fraction(3, 2)), Fraction(3, 2)), (DiscreteMeasure.zero(), 0)],
    )
    def test_total_mass_real_is_the_exact_mass(self, mu, total):
        name = mu.total_mass_real()
        assert [name.approx(n) for n in range(4)] == [total] * 4

    def test_lattice_readers_build_no_atoms(self):
        # -3/4, 2/4 and 10/6 of mass 1/6, 2/6 and 2/5, tokens unreduced
        mu = DiscreteMeasure.from_ints([-3, 2, 10], [4, 4, 6], [1, 2, 2], [6, 6, 5])
        twin = DiscreteMeasure(
            ((Fraction(-3, 4), Fraction(1, 6)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(5, 3), Fraction(2, 5)))
        )

        def answers(m):
            return (
                m.region_mass_open([(None, Fraction(1, 2)), (Fraction(1, 2), 2)]),
                m.mass_closed([(Fraction(1, 2), 2)]),
                m.support_radius(),
                m.integrate_poly(tent_function((Fraction(-1), Fraction(2)))),
                m.null_test()(Fraction(1, 2)),
                m.cells(Fraction(1, 4)),
            )

        got = answers(mu)
        assert "atoms" not in vars(mu)
        assert got == answers(twin)
        assert "atoms" not in vars(twin)
        assert got[:3] == (Fraction(17, 30), Fraction(11, 15), Fraction(5, 3))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), atoms=st.lists(st.tuples(frac, frac.filter(lambda w: w > 0)), max_size=6))
    def test_null_test_matches_the_location_set(self, data, atoms):
        """The lattice test against the set of the atoms' ``Fraction``s, on
        measures spelled through ``from_ints``, at atoms, at points on the
        lattice between them and at points off it."""
        mu = data.draw(spelled_from_ints(atoms))
        null = mu.null_test()
        locs = {Fraction(x) for x, _ in atoms}
        lx = mu.lattice()[2]
        on = st.integers(-4 * lx - 2, 4 * lx + 2).map(lambda k: Fraction(k, lx))
        points = [on, frac] + ([st.sampled_from(sorted(locs))] if locs else [])
        for x in data.draw(st.lists(st.one_of(*points))):
            assert null(x) is (x not in locs)

    def test_point_off_the_lattice_above_an_atom_is_null(self):
        # 1/2 is off the lattice of an atom at 0, and its floor there is that atom
        assert DiscreteMeasure.point(0).null_test()(Fraction(1, 2))

    @pytest.mark.parametrize("atoms", [((None, 1),), ((0, None),), ((Fraction(1), "1/0"),)])
    def test_non_rational_data_refused(self, atoms):
        with pytest.raises(MalformedInterval, match="expected a rational number, got"):
            DiscreteMeasure(atoms)

    def test_open_mass_enumeration(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(2), Fraction(1, 2))))
        U = SigmaSet.ball(Fraction(0), Fraction(1))
        lm = mu.open_mass(U)
        assert lm.bound(60) == Fraction(1, 2)

    def test_integrate_poly(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
        p = hat_function(Fraction(-1), Fraction(0), Fraction(2), Fraction(1))
        assert integrate_poly(p, mu) == Fraction(1, 2) + Fraction(1, 2) * Fraction(1, 2)
        # atoms on vertices and outside the hull, under both extensions
        hat = hat_function(Fraction(0), Fraction(1), Fraction(3), Fraction(2))
        clamp = PolyFunc(((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(1))), "constant-extend")
        mu = DiscreteMeasure(
            tuple((Fraction(x), Fraction(1, 2)) for x in (-1, 0, Fraction(1, 2), 1, 2, 3, 5))
        )
        assert integrate_poly(hat, mu) == Fraction(1, 2) * (0 + 0 + 1 + 2 + 1 + 0 + 0)
        assert integrate_poly(clamp, mu) == Fraction(1, 2) * (-1 - 1 + 0 + 1 + 1 + 1 + 1)
        assert integrate_poly(hat, DiscreteMeasure.zero()) == 0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(Exception):
            DiscreteMeasure(((Fraction(0), Fraction(0)),))

    @settings(max_examples=400, deadline=None)
    @given(atoms=_atom_lists)
    def test_normalisation_matches_dict_oracle(self, atoms):
        got = _normalised(lambda a: DiscreteMeasure(tuple(a)), atoms)
        want = _normalised(discrete_atoms_dict_oracle, atoms)
        if isinstance(want, tuple) and want and want[0] is ValueError:
            assert got == want
            return
        assert got.atoms == want
        assert got.exact_total_mass() == sum((Fraction(w) for _, w in atoms), Fraction(0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), atoms=_atom_lists)
    def test_permuted_inputs_equal_and_hash_equal(self, data, atoms):
        atoms = [(loc, w) for loc, w in atoms if Fraction(w) > 0]
        shuffled = data.draw(st.permutations(atoms))
        a, b = DiscreteMeasure(tuple(atoms)), DiscreteMeasure(tuple(shuffled))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"DiscreteMeasure(atoms={a.atoms!r})"

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_any_loc, _any_weight), max_size=12))
    @example([])
    @example([(_SubFraction(-1, 3), "5/2")])
    @example([("1/2", 2), (-1, _SubFraction(1, 9))])
    @example([(-2, 1), ("-2", Fraction(1, 3)), (_SubFraction(-2), _SubFraction(1, 6))])
    @example([(0, 1), (1, 0)])
    @example([("-7/3", "5/6")])
    @example([(Fraction(2), 0)])
    def test_int_keys_match_fraction_loop(self, atoms):
        """int, str, Fraction and Fraction-subclass spellings, repeated and
        negative locations, weights <= 0: the same atoms, total, == and hash
        as the sort and merge on Fraction keys; one atom the same through
        ``DiscreteMeasure.point``."""
        got = _normalised(lambda a: DiscreteMeasure(tuple(a)), atoms)
        want = _normalised(discrete_atoms_fraction_loop, atoms)
        point = _normalised(lambda a: DiscreteMeasure.point(*a[0]), atoms) if len(atoms) == 1 else got
        if isinstance(want, tuple) and want and want[0] is ValueError:
            assert got == want == point == (ValueError, "atom weights must be positive")
            return
        assert point == got and point.lattice() == got.lattice()
        assert point.exact_total_mass() == got.exact_total_mass()
        want_atoms, want_total = want
        assert got.atoms == want_atoms
        assert all(type(loc) is Fraction and type(w) is Fraction for loc, w in got.atoms)
        assert got.exact_total_mass() == want_total and type(got.exact_total_mass()) is Fraction
        xs, ws, lx, lw = got.lattice()
        assert [Fraction(x, lx) for x in xs] == [loc for loc, _ in want_atoms]
        assert [Fraction(w, lw) for w in ws] == [w for _, w in want_atoms]
        assert all(type(v) is int for v in (*xs, *ws, lx, lw))
        ref = object.__new__(DiscreteMeasure)  # the oracle's fields, set directly
        object.__setattr__(ref, "atoms", want_atoms)
        object.__setattr__(ref, "_total", want_total)
        assert got == ref and hash(got) == hash(ref)

    @pytest.mark.parametrize("pitch", [Fraction(1), Fraction(1, 3), _pow2(10), Fraction(7, 2)])
    def test_cells_are_the_lattice_for_any_pitch(self, pitch):
        for mu in (DiscreteMeasure.zero(), DiscreteMeasure.point(Fraction(1, 5), 3),
                   DiscreteMeasure(((Fraction(-1, 3), Fraction(1, 2)), (Fraction(2, 7), 1)))):
            assert mu.cells(pitch) == (mu.lattice(), 0)

    def test_total_takes_no_part_in_equality(self):
        a = DiscreteMeasure(((Fraction(0), Fraction(1, 2)),))
        b = DiscreteMeasure(((Fraction(0), Fraction(1, 2)),))
        object.__setattr__(b, "_total", Fraction(7))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def integrate_poly_atom_sweep(p, mu):
    """The per-atom ``Fraction`` sweep, kept as the oracle for the per-piece
    lattice moments of :meth:`DiscreteMeasure.integrate_poly`.

    It walks the sorted atoms and the polygon's pieces together: an atom x
    inside piece [x0, x1] contributes w * (y0 + (y1 - y0)(x - x0)/(x1 - x0)),
    and under ``zero-outside`` the atoms outside the vertex hull are skipped.
    """
    verts = p.vertices
    (xl, yl), (xr, yr) = verts[0], verts[-1]
    zero = p.extension == "zero-outside"
    total = Fraction(0)
    i = 0  # the piece verts[i] .. verts[i + 1] holding the atom
    for loc, w in mu.atoms:
        if xl < loc < xr:
            while verts[i + 1][0] < loc:
                i += 1
            (x0, y0), (x1, y1) = verts[i], verts[i + 1]
            y = y1 if loc == x1 else y0 + (y1 - y0) * (loc - x0) / (x1 - x0)
        elif zero:
            continue
        else:
            y = yl if loc <= xl else yr
        total += w * y
    return total


@st.composite
def polys_and_atoms(draw):
    """A polygon of either extension and a discrete measure, made one of
    three ways:

    - by the constructor, atoms on the vertices, inside the pieces and
      outside the hull;
    - by ``from_ints`` from the same kind of atoms, each location's and each
      weight's numerator and denominator multiplied by a factor 1-6 of its
      own, so that the lattice's ``lx`` and ``lw`` may be multiples of the
      reduced lcms;
    - in Specker's shape: 40-48 atoms a sixth apart across the polygons'
      range, of distinct masses 2^-(k+1).
    """
    xs = sorted(draw(st.sets(frac, min_size=1, max_size=6)))
    ext = draw(st.sampled_from(["zero-outside", "constant-extend"]))
    ys = [draw(frac) for _ in xs]
    if ext == "zero-outside":
        ys[0] = ys[-1] = Fraction(0)
    p = PolyFunc(tuple(zip(xs, ys)), ext)
    how = draw(st.sampled_from(["constructor", "from_ints", "specker"]))
    if how == "specker":
        n = draw(st.integers(40, 48))
        ks = draw(st.permutations(range(n)))
        return p, DiscreteMeasure(tuple((Fraction(i, 6) - 4, _pow2(k + 1)) for i, k in enumerate(ks)))
    locs = st.one_of(st.sampled_from(xs), frac, st.sampled_from([xs[0] - 1, xs[-1] + 3]))
    weights = st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16)
    atoms = draw(st.lists(st.tuples(locs, weights), max_size=8))
    if how == "constructor" or not atoms:
        return p, DiscreteMeasure(tuple(atoms))
    c = st.integers(1, 6)
    xc, wc = [draw(c) for _ in atoms], [draw(c) for _ in atoms]
    return p, DiscreteMeasure.from_ints(
        [x.numerator * k for (x, _), k in zip(atoms, xc)],
        [x.denominator * k for (x, _), k in zip(atoms, xc)],
        [w.numerator * k for (_, w), k in zip(atoms, wc)],
        [w.denominator * k for (_, w), k in zip(atoms, wc)],
    )


_TRAPEZOID = PolyFunc(
    ((Fraction(-1), Fraction(0)), (Fraction(1, 3), Fraction(2)), (Fraction(5, 2), Fraction(2)),
     (Fraction(3), Fraction(0))),
    "zero-outside",
)
_CLAMP = PolyFunc(((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))), "constant-extend")
_STEP = PolyFunc(((Fraction(1, 2), Fraction(-3, 4)),), "constant-extend")


class TestIntegratePolyOnAtoms:
    @settings(max_examples=300, deadline=None)
    @given(polys_and_atoms())
    # an atom on every vertex, of either extension
    @example((_TRAPEZOID, DiscreteMeasure(tuple((x, Fraction(1, 3)) for x, _ in _TRAPEZOID.vertices))))
    @example((_CLAMP, DiscreteMeasure.from_ints([-2, 2, 6], [2, 2, 3], [1, 1, 1], [4, 2, 2])))
    # an atom between a vertex and the floor of that vertex on the atoms' lattice
    @example((_TRAPEZOID, DiscreteMeasure.point(0)))
    # one vertex: every atom is left of, on, or right of it
    @example((_STEP, DiscreteMeasure(((Fraction(-1), 1), (Fraction(1, 2), Fraction(1, 5)), (Fraction(7), 2)))))
    @example((_STEP, DiscreteMeasure.zero()))
    @example((_TRAPEZOID, DiscreteMeasure.zero()))
    def test_sweep_matches_pointwise_sum(self, case):
        p, mu = case
        lazy = "atoms" not in vars(mu)
        got = integrate_poly(p, mu)
        if lazy:  # a from_ints measure is integrated on its lattice alone
            assert "atoms" not in vars(mu)
        assert got == integrate_poly_atom_sweep(p, mu)
        assert got == sum((w * p(loc) for loc, w in mu.atoms), Fraction(0))


# vertices off every atom lattice below: denominators 7 and 11 among them
_off_lattice = st.sampled_from([Fraction(-23, 7), Fraction(-5, 11), Fraction(1, 7), Fraction(13, 11)])


@st.composite
def zero_outside_polys(draw):
    """A ``zero-outside`` polygon: random ordinates, or the zero polygon
    (one vertex, or several all at 0), its abscissae on the 1/16 grid or
    off every lattice the measures below use."""
    xs = sorted(draw(st.sets(st.one_of(frac, _off_lattice), min_size=1, max_size=6)))
    ys = [Fraction(0)] * len(xs)
    if draw(st.booleans()):
        ys[1:-1] = [draw(frac) for _ in xs[2:]]
    return PolyFunc(tuple(zip(xs, ys)), "zero-outside")


def _lazy(last: int | None = None) -> LazyDiscreteMeasure:
    """Atom i of mass 2^-(i+1) at each natural number i; a ``last`` given,
    reading a weight beyond it raises ``IndexError``, as a finite file does."""

    def weight(i: int) -> Fraction:
        if last is not None and i > last:
            raise IndexError(f"weight {i} read past {last}")
        return _pow2(i + 1)

    return LazyDiscreteMeasure(weight)


@st.composite
def measures_for_polygons(draw):
    """A measure of every class that answers the polygon entry: discrete by
    the constructor or ``from_ints``, a polygonal density, or lazy."""
    how = draw(st.sampled_from(["constructor", "from_ints", "density", "lazy"]))
    if how == "density":
        xs = sorted(draw(st.sets(frac, min_size=2, max_size=5)))
        inner = [draw(st.fractions(min_value=0, max_value=3, max_denominator=8)) for _ in xs[2:]]
        return PolyDensityMeasure(PolyFunc(tuple(zip(xs, [Fraction(0)] + inner + [Fraction(0)]))))
    if how == "lazy":
        return _lazy()
    weights = st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16)
    atoms = draw(st.lists(st.tuples(st.one_of(frac, _off_lattice), weights), max_size=8))
    if how == "constructor" or not atoms:
        return DiscreteMeasure(tuple(atoms))
    return DiscreteMeasure.from_ints(
        [x.numerator for x, _ in atoms], [x.denominator for x, _ in atoms],
        [w.numerator for _, w in atoms], [w.denominator for _, w in atoms],
    )


_HAT = hat_function(Fraction(-10), Fraction(0), Fraction(10), Fraction(1))


class TestIntegrateZeroOutside:
    @settings(max_examples=300, deadline=None)
    @given(zero_outside_polys(), measures_for_polygons(), st.integers(0, 12))
    @example(_HAT, _lazy(), 5)
    @example(PolyFunc(((Fraction(5, 7), Fraction(0)),)), _lazy(), 0)
    def test_matches_the_supported_name_route(self, p, mu, n):
        """The polygon entry answers as ``integrate_named`` on the polygon's
        supported name does, exactly."""
        got = mu.integrate_zero_outside(p, n)
        assert isinstance(got, Fraction)
        assert got == integrate_named(supported_from_poly(p), mu, n)

    def test_lazy_increasing_reads_atoms_to_the_last_vertex(self):
        # the hat's support ends at its last vertex, 7/2: atoms 0..3 lie at or
        # left of it, and weight 4 is never read
        mu = _lazy(last=3)
        p = hat_function(Fraction(1, 2), Fraction(2), Fraction(7, 2), Fraction(6))
        assert mu.integrate_zero_outside(p, 4) == sum(
            (w * p(x) for x, w in mu.prefix(4)), Fraction(0)
        )

    def test_lazy_reads_no_atom_past_the_support(self):
        # a trailing zero vertex at 50 moves neither the cut nor the value;
        # the supported route cuts at the hull's end, 3, as well
        p = PolyFunc(((Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)),
                      (Fraction(3), Fraction(0)), (Fraction(50), Fraction(0))))
        assert _lazy(last=3).integrate_zero_outside(p, 0) == Fraction(1, 8)
        assert _lazy(last=3).integrate_supported(supported_from_poly(p), 0) == Fraction(1, 8)
        with pytest.raises(IndexError):
            _lazy(last=2).integrate_zero_outside(p, 0)


class TestSpelledAtoms:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), atoms=_atom_lists)
    def test_spelled_inputs_equal_and_hash_equal(self, data, atoms):
        atoms = [(Fraction(loc), Fraction(w)) for loc, w in atoms if Fraction(w) > 0]
        sp = [
            (spelled(loc, data.draw(st.integers(0, 3))), spelled(w, data.draw(st.integers(0, 3))))
            for loc, w in atoms
        ]
        a, b = DiscreteMeasure(tuple(atoms)), DiscreteMeasure(tuple(sp))
        assert a == b and hash(a) == hash(b)
        assert all(type(loc) is Fraction and type(w) is Fraction for loc, w in b.atoms)
        assert b.exact_total_mass() == a.exact_total_mass()


class TestPolyDensityMeasure:
    def test_uniform_mass(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        # the thin boundary ramps add at most 2^-19 of mass
        assert abs(u.exact_total_mass() - 1) <= _pow2(19)

    def test_region_mass(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        m = u.region_mass_open([(Fraction(0), Fraction(1, 2))])
        # thin ramps shave a sliver off the half-interval mass
        assert abs(m - Fraction(1, 2)) <= _pow2(18)

    def test_open_mass_enumeration(self):
        # the shared Measure.open_mass pulls U's intervals one by one
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        U = SigmaSet(lambda k: (Fraction(0), Fraction(1, 2) - _pow2(k + 2)))
        assert U.components is None
        lm = u.open_mass(U)
        bounds = [lm.bound(k) for k in range(6)]
        assert bounds == sorted(bounds)
        assert bounds[-1] == u.region_mass_open([(Fraction(0), Fraction(1, 2) - _pow2(7))])
        exact = u.open_mass(exact_open([(Fraction(0), Fraction(1, 2))]))
        assert exact.bound(0) == u.region_mass_open([(Fraction(0), Fraction(1, 2))])

    def test_open_mass_needs_region_masses(self):
        with pytest.raises(UnsupportedMeasureClass):
            Measure().open_mass(exact_open([(Fraction(0), Fraction(1))]))

    def test_protocol_defaults_refuse(self):
        with pytest.raises(UnsupportedMeasureClass, match="^unsupported measure class Measure: no exact integration$"):
            Measure().integrate_poly(constant_func(1))
        with pytest.raises(UnsupportedMeasureClass, match="^unsupported measure class Measure: no bounded support$"):
            Measure().support_radius()
        with pytest.raises(UnsupportedMeasureClass, match="^unsupported measure class Measure: no exact region masses$"):
            Measure().null_test()(Fraction(0))

    def test_points_are_null(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        assert u.mass_closed(((Fraction(1, 2), Fraction(1, 2)),)) == 0
        null = u.null_test()
        assert all(null(Fraction(k, 3)) for k in range(-6, 7))

    def test_density_must_be_zero_outside(self):
        with pytest.raises(ValueError, match="density must be zero-outside"):
            PolyDensityMeasure(constant_func(1))

    def test_reversed_closed_component_refused(self):
        with pytest.raises(MalformedInterval, match="closed component needs left <= right"):
            PolyDensityMeasure.uniform(0, 1).mass_closed([(1, 0)])

    def test_masses_outside_the_vertices(self):
        u = PolyDensityMeasure.uniform(0, 1)
        assert u.region_mass_open([(-1, 2)]) == u.mass_closed([(-1, 2)]) == u.exact_total_mass()
        assert u.region_mass_open([(-3, -2), (2, 3)]) == u.mass_closed([(-3, -2), (2, 3)]) == 0

    def test_integrate_against_hat(self):
        # density 1 on [0,1] (with thin ramps), f = tent plateau over [0,1]
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        t = tent_function((Fraction(-1), Fraction(2)))  # equals 1 on [0,1] support
        assert abs(integrate_poly(t, u) - 1) <= _pow2(18)


# mu(U) from below with the pulled intervals kept in a list and merged
# afresh per bound, one oracle per open_mass: the shared one, the lazy
# atoms' and the reconstructed limit's


def open_mass_shared(mu, U) -> LowerReal:
    if U.components is not None:
        return LowerReal.from_rational(mu.region_mass_open(U.components))

    def gen():
        pulled = []
        for k in itertools.count():
            pulled.append(U.interval(k))
            yield mu.region_mass_open(merge_open(pulled))

    return LowerReal(gen())


def open_mass_lazy(mu, U) -> LowerReal:
    def gen():
        pulled = []
        for k in itertools.count():
            if U.components is None:
                pulled.append(U.interval(k))
                comps = merge_open(pulled)
            else:
                comps = U.components
            yield sum((w for loc, w in mu.prefix(k) if open_contains_point(comps, loc)), Fraction(0))

    return LowerReal(gen())


def open_mass_reconstructed(mu, U) -> LowerReal:
    def comp_lower(comp, t: int) -> Fraction:
        l, r = comp
        l = -Fraction(2**t) if l is None else l
        r = Fraction(2**t) if r is None else r
        return mu.interval_mass_lower(l, r).bound(t) if l < r else Fraction(0)

    def gen():
        best = None
        pulled = []
        for t in itertools.count():
            if U.components is not None:
                comps = U.components
            else:
                pulled.append(U.interval(t))
                comps = merge_open(pulled)
            v = sum((comp_lower(c, t) for c in comps), Fraction(0))
            best = v if best is None else max(best, v)
            yield best

    return LowerReal(gen())


def _reconstructed():
    c = deltashrink()
    return limit_from_vague(c.seq, c.vague_oracle, CauchyReal.from_rational(1))


OPEN_MASS_CASES = {
    "discrete": (lambda: DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 4)),
                                          (Fraction(-2), Fraction(1, 4)))), open_mass_shared, 10),
    "density": (lambda: PolyDensityMeasure.uniform(Fraction(-1), Fraction(1)), open_mass_shared, 10),
    "lazy": (_lazy, open_mass_lazy, 10),
    "reconstructed": (_reconstructed, open_mass_reconstructed, 4),
}
_END = st.one_of(st.none(), frac)


class TestOpenMassPulls:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(OPEN_MASS_CASES)),
        st.lists(st.tuples(_END, _END), min_size=1, max_size=4),
        st.booleans(),
    )
    def test_bounds_match_the_pulled_list(self, kind, ends, opaque):
        build, oracle, n = OPEN_MASS_CASES[kind]
        ivs = [(l, r) for l, r in ends if l is None or r is None or l < r] or [(Fraction(0), Fraction(1))]
        if opaque:
            got_U, want_U = (SigmaSet(lambda k: ivs[k % len(ivs)]) for _ in range(2))
        else:
            got_U, want_U = (exact_open(ivs) for _ in range(2))
        got, want = build().open_mass(got_U), oracle(build(), want_U)
        assert [got.bound(k) for k in range(n)] == [want.bound(k) for k in range(n)]


@st.composite
def discrete_or_density(draw):
    if draw(st.booleans()):
        weights = st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16)
        return DiscreteMeasure(tuple(draw(st.lists(st.tuples(frac, weights), max_size=6))))
    xs = sorted(draw(st.sets(frac, min_size=2, max_size=5)))
    inner = [draw(st.fractions(min_value=0, max_value=3, max_denominator=8)) for _ in xs[2:]]
    return PolyDensityMeasure(PolyFunc(tuple(zip(xs, [Fraction(0)] + inner + [Fraction(0)]))))


class TestUnionMasses:
    """A list of components names its union, whose every point counts once."""

    @settings(max_examples=150, deadline=None)
    @given(
        discrete_or_density(),
        st.lists(st.tuples(_END, _END), max_size=5),
        st.lists(st.tuples(frac, frac).map(sorted).map(tuple), max_size=5),
    )
    @example(PolyDensityMeasure.uniform(0, 1), [(0, 1), (0, 1)], [(0, 1), (Fraction(1, 2), 1)])
    def test_same_masses_as_the_merged_union(self, mu, opens, closeds):
        total = mu.exact_total_mass()
        assert mu.region_mass_open(opens) == mu.region_mass_open(merge_open(opens)) <= total
        assert mu.mass_closed(closeds) == mu.mass_closed(merge_closed(closeds)) <= total

    @settings(max_examples=100, deadline=None)
    @given(discrete_or_density(), st.lists(st.integers(-40, 40), max_size=8), st.integers(1, 8))
    @example(PolyDensityMeasure.uniform(0, 1), [5, 0], 1)
    def test_cumulative_points_in_any_order(self, mu, points, l):
        """Each point's masses are those it has asked alone: a density's
        table walks back as well as forward."""
        below, upto, total, lw = mu.cumulative(points, l)
        alone = [mu.cumulative([p], l) for p in points]
        assert below == [b for (b,), _, _, _ in alone] and upto == [u for _, (u,), _, _ in alone]
        assert all(t == total and w == lw for _, _, t, w in alone)

    def test_overlaps_counted_once(self):
        u = PolyDensityMeasure.uniform(0, 1)
        assert u.region_mass_open([(0, 1), (0, 1)]) == u.region_mass_open([(0, 1)])
        assert u.mass_closed([(0, 1), (Fraction(1, 2), 1)]) == u.mass_closed([(0, 1)])

    @pytest.mark.parametrize("kind", ["constructor", "from_ints", "density"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_masses_match_the_loops(self, kind, data):
        """The masses built on :meth:`Measure.cumulative` equal the loops
        each class once ran: per atom, or per component through
        ``integrate_product``.  The ends come from a small pool holding the
        atoms or the vertices, so they repeat, touch and are shared; an open
        end may be ``None``, and components are repeated."""
        if kind == "density":
            xs = sorted(data.draw(st.sets(frac, min_size=1, max_size=5)))
            inner = [data.draw(st.fractions(min_value=0, max_value=3, max_denominator=8)) for _ in xs[2:]]
            ys = ([Fraction(0)] + inner + [Fraction(0)])[: len(xs)]
            mu = PolyDensityMeasure(PolyFunc(tuple(zip(xs, ys)), "zero-outside"))
            marks, by_open, by_closed = xs, region_mass_open_per_component, mass_closed_per_component
        else:
            weights = st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16)
            atoms = data.draw(st.lists(st.tuples(frac, weights), max_size=6))
            if kind == "constructor":
                mu = DiscreteMeasure(tuple(atoms))
            else:
                mu = data.draw(spelled_from_ints(atoms))
            marks, by_open, by_closed = [x for x, _ in atoms], region_mass_open_per_atom, mass_closed_per_atom
        pool = st.sampled_from(marks + data.draw(st.lists(frac, min_size=1, max_size=3)))
        end = st.one_of(st.none(), pool)
        opens = data.draw(st.lists(st.tuples(end, end), max_size=5))
        closeds = data.draw(st.lists(st.tuples(pool, pool).map(sorted).map(tuple), max_size=5))
        opens += opens[: data.draw(st.integers(0, 2))]
        closeds += closeds[: data.draw(st.integers(0, 2))]
        assert mu.region_mass_open(opens) == by_open(mu, opens)
        assert mu.mass_closed(closeds) == by_closed(mu, closeds)

    def test_ends_on_atoms(self):
        mu = DiscreteMeasure(((0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4))))
        assert mu.region_mass_open([(0, 1), (1, 2)]) == 0
        assert mu.region_mass_open([(None, 1), (1, None)]) == Fraction(1, 2)
        assert mu.region_mass_open([(None, None)]) == 1
        assert mu.mass_closed([(0, 1), (1, 2)]) == 1
        assert mu.mass_closed([(1, 1), (1, 1)]) == Fraction(1, 2)


class TestLazyDiscrete:
    def test_prefix_masses(self):
        assert _lazy().prefix(2) == [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 4))]
        assert _lazy().prefix(0) == []

    def test_total_mass_real_needs_tail_bound(self):
        # no tail bound: mu(R) is only left-c.e., so it has no Cauchy name,
        # and a (name, B) integral has no mass to bound its tolerance by
        mu = _lazy()
        with pytest.raises(UnsupportedMeasureClass, match="no total mass name"):
            mu.total_mass_real()
        one = constant_func(Fraction(1))
        with pytest.raises(UnsupportedMeasureClass, match="no exact total mass"):
            integrate_named((co_name_of_poly(one), 1), mu, 4)

    def test_null_points_are_off_the_naturals(self):
        null = _lazy().null_test()
        assert [null(Fraction(x)) for x in (-1, 0, 3)] == [True, False, False]
        assert null(Fraction(1, 2)) and null(Fraction(-1, 2))

    def test_integrate_named_supported_without_tail_bound(self):
        mu = _lazy()
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        f = supported_from_poly(p)
        exact = Fraction(1, 4) * 1  # only the atom at 1 inside supp, weight 1/4
        got = integrate_named(f, mu, 10)
        assert abs(got - exact) <= _pow2(10)


class TestIntegrateNamed:
    def test_supported_exact_backing(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
        p = hat_function(Fraction(-1), Fraction(0), Fraction(2), Fraction(1))
        f = supported_from_poly(p)
        exact = integrate_poly(p, mu)
        for n in (2, 8):
            assert abs(integrate_named(f, mu, n) - exact) <= _pow2(n)

    def test_supported_opaque_name(self):
        from effmeas.functions import SupportedFunc, compact_from_closed_union

        mu = DiscreteMeasure(((Fraction(1, 3), Fraction(1)),))
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        f = SupportedFunc(
            opaque_name_of(p, slop=_pow2(12)),
            compact_from_closed_union(p.support_components()),
        )
        exact = integrate_poly(p, mu)
        got = integrate_named(f, mu, 6)
        assert abs(got - exact) <= _pow2(6)

    def test_bounded_pair_against_density(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        one = constant_func(Fraction(1))
        got = integrate_named((co_name_of_poly(one), 1), u, 8)
        assert abs(got - 1) <= _pow2(8)

    def test_total_mass_upper(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(3, 2)),))
        assert mu.total_mass_upper() >= Fraction(3, 2)


_end = st.one_of(st.none(), st.integers(-3, 3).map(Fraction))
_open_sets = st.lists(st.tuples(_end, _end), max_size=4).map(exact_open)
_discrete = st.lists(
    st.tuples(st.integers(-7, 7).map(lambda k: Fraction(k, 2)), st.integers(1, 3)), max_size=4
).map(lambda atoms: DiscreteMeasure(tuple(atoms)))
_densities = st.tuples(st.integers(-4, 3), st.integers(1, 4)).map(
    lambda a: PolyDensityMeasure(PolyFunc(((a[0], 0), (Fraction(2 * a[0] + a[1], 2), 1), (a[0] + a[1], 0))))
)


@st.composite
def _partitions(draw):
    """Open U and V made of the pieces between sorted integer cuts, each piece
    in U, in V or, less often, in neither: disjoint, and dense unless a piece
    is left out."""
    cuts = sorted(draw(st.sets(st.integers(-3, 3), max_size=4)))
    ends = [None, *map(Fraction, cuts), None]
    sides = ([], [], [])
    for piece in zip(ends, ends[1:]):
        sides[draw(st.sampled_from((0, 0, 0, 1, 1, 1, 2)))].append(piece)
    return exact_open(sides[0]), exact_open(sides[1])


S = Fraction(1, 8)
C1 = S / 2  # the cover's second centre
# the four coarsest candidate radii are 43s/128, 65s/128, 87s/128, 109s/128
ON_FIRST = (C1 + 43 * S / 128,)
ON_ALL_FOUR = (C1 + 43 * S / 128, C1 - 65 * S / 128, C1 + 87 * S / 128, C1 - 109 * S / 128)


class TestAlmostDecidable:
    def test_ball_avoids_atoms(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))))
        radius, pair = almost_decidable_ball(mu, Fraction(0), Fraction(1))
        (l, r) = pair.U.components[0]
        for x, _ in mu.atoms:
            assert x != l and x != r
        assert pair.check()

    @staticmethod
    def lazy_pair():
        # a null test, but no exact region masses
        return almost_decidable_ball(_lazy(), Fraction(1, 2), Fraction(1))[1]

    def test_reconstructed_limit_refused(self):
        # a lower-semicomputable limit has no cumulative, so no null points
        c = deltashrink()
        rec = limit_from_vague(c.seq, c.vague_oracle, CauchyReal.from_rational(1))
        with pytest.raises(UnsupportedMeasureClass, match="^unsupported measure class ReconstructedMeasure: no exact region masses$"):
            almost_decidable_ball(rec, Fraction(0), Fraction(1))

    def test_empty_radius_range_refused(self):
        with pytest.raises(ValueError, match="need min_radius < radius_bound"):
            almost_decidable_ball(DiscreteMeasure.point(0), Fraction(0), Fraction(1), Fraction(1))

    def test_nonpositive_pitch_refused(self):
        mu = DiscreteMeasure.point(0)
        for s in (0, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="s must be positive"):
                almost_decidable_cover(mu, s)
            with pytest.raises(ValueError, match="s must be positive"):
                first_cover_balls(mu, s, [Fraction(0)])

    def test_check_needs_exact_sets(self):
        pulled = SigmaSet(lambda k: (Fraction(0), Fraction(1)))
        pair = AlmostDecidablePair(pulled, SigmaSet.ball(0, 1), DiscreteMeasure.point(0))
        with pytest.raises(UnsupportedMeasureClass, match="check needs exact set descriptions"):
            pair.check()

    @pytest.mark.parametrize(
        "U, V, at",
        [
            # each a pair that fails one test only
            (((-1, 1),), ((None, Fraction(1, 4)), (Fraction(3, 4), None)), 5),  # U and V meet
            (((None, Fraction(1)),), ((None, Fraction(2)),), 0),  # two rays to -inf meet
            (((Fraction(1), None),), ((Fraction(2), None),), 0),  # two rays to +inf meet
            (((-1, 1),), ((None, -1), (1, None)), 1),  # an atom on the sphere
            (((-1, 1),), ((None, -2), (2, None)), 0),  # a gap (1, 2)
            (((0, 1),), ((1, None),), Fraction(1, 2)),  # bounded on the left
            (((None, 0),), ((0, 1),), -1),  # bounded on the right
        ],
        ids=["meet", "rays-left", "rays-right", "mass", "gap", "left", "right"],
    )
    def test_check_fails(self, U, V, at):
        mu = DiscreteMeasure.point(at)
        pair = AlmostDecidablePair(SigmaSet._exact(U), SigmaSet._exact(V), mu)
        assert pair.check() is False
        assert almost_decidable_by_pairs(pair.U.components, pair.V.components, mu) is False

    def test_empty_sets_not_dense(self):
        empty = exact_open([])
        assert AlmostDecidablePair(empty, empty, DiscreteMeasure.zero()).check() is False

    @settings(max_examples=300, deadline=None)
    @given(sets=st.one_of(_partitions(), st.tuples(_open_sets, _open_sets)), mu=st.one_of(_discrete, _densities))
    @example(sets=(exact_open([(None, None)]), exact_open([(None, None)])), mu=DiscreteMeasure.zero())
    @example(sets=(exact_open([(None, 0)]), exact_open([(0, None)])), mu=DiscreteMeasure.point(1))
    def test_check_matches_the_pairwise_oracle(self, sets, mu):
        U, V = sets
        want = almost_decidable_by_pairs(U.components, V.components, mu)
        assert AlmostDecidablePair(U, V, mu).check() is want

    def test_lazy_pair_check_unsupported(self):
        with pytest.raises(UnsupportedMeasureClass):
            self.lazy_pair().check()

    def test_lazy_pair_masses_unsupported(self):
        with pytest.raises(UnsupportedMeasureClass):
            self.lazy_pair().masses()

    def test_pair_masses_partition(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(2), Fraction(1, 2))))
        _, pair = almost_decidable_ball(mu, Fraction(0), Fraction(1))
        mu_u, mu_v, total = pair.masses()
        assert mu_u + mu_v == total == 1

    def test_cover_is_an_overlapping_chain(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1)),))
        s = Fraction(1, 8)
        cover = almost_decidable_cover(mu, s)
        balls = [cover[j].U.components[0] for j in range(12)]
        for l, r in balls:
            assert r - l < 2 * s  # radius below s
        # the chain around 0 covers a neighborhood without gaps
        from effmeas.sets import merge_open

        merged = merge_open(balls)
        assert len(merged) == 1

    @pytest.mark.parametrize(
        "mu,radius_at_c1",
        [
            (DiscreteMeasure(tuple((x, Fraction(1)) for x in ON_FIRST)), 65 * S / 128),
            # every coarse candidate is blocked, so the 16-radius grid runs
            (DiscreteMeasure(tuple((x, Fraction(1)) for x in ON_ALL_FOUR)), 139 * S / 512),
            # atoms at the naturals: no candidate sphere about a centre k*s/2 meets one
            (_lazy(), 43 * S / 128),
            (PolyDensityMeasure.uniform(Fraction(0), Fraction(1)), 43 * S / 128),
        ],
    )
    def test_cover_balls_are_the_single_ball_searches(self, mu, radius_at_c1):
        s = S
        cover = almost_decidable_cover(mu, s)
        centres = [Fraction(0)] + [k * sign * s / 2 for k in range(1, 32) for sign in (1, -1)]
        for j, c in enumerate(centres[:64]):
            r, pair = almost_decidable_ball(mu, c, 15 * s / 16, s / 4)
            assert cover[j].U.components == pair.U.components == ((c - r, c + r),)
            assert cover[j].V.components == pair.V.components
            assert cover[j].for_measure is mu
        l, r = cover[1].U.components[0]
        assert (r - l) / 2 == radius_at_c1

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.sampled_from((Fraction(1, 8), Fraction(1, 3), Fraction(5, 2))),
        units=st.lists(
            st.one_of(
                st.integers(-96, 96).map(lambda m: Fraction(m, 16)),
                st.integers(-18, 18).map(lambda m: Fraction(m, 3)),
            ),
            min_size=1,
            max_size=6,
        ),
        blocked=st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)), max_size=4),
    )
    def test_first_cover_balls_match_the_walk(self, s, units, blocked):
        xs = [u * s for u in units]
        # atoms on two of the points, and on the first 1-3 coarse candidate
        # spheres (radii (43 + 22i)s/128) of some centers k*s/2, which pushes
        # their radii past s/2, so a ball two centers away can hold a point
        locs = set(xs[:2]) | {k * s / 2 + (43 + 22 * i) * s / 128 for k, d in blocked for i in range(d)}
        mu = DiscreteMeasure(tuple((x, Fraction(1)) for x in locs))
        cover = almost_decidable_cover(mu, s)
        for x, (j, pair) in zip(xs, first_cover_balls(mu, s, xs), strict=True):
            assert pair.U.components == cover[j].U.components
            assert pair.V.components == cover[j].V.components
            holds = [i for i in range(j + 1) if open_contains_point(cover[i].U.components, x)]
            assert holds[:1] == [j]

    @pytest.mark.parametrize("s", [Fraction(1), Fraction(1, 3), Fraction(5, 2)])
    def test_point_on_a_sphere_is_outside_its_ball(self, s):
        # with no atoms ball 0 is (-r, r), r = 43s/128: its right end lies
        # in ball 1, centred at s/2, and not in ball 0
        r = 43 * s / 128
        mu = DiscreteMeasure.zero()
        cover = almost_decidable_cover(mu, s)
        assert cover[0].U.components[0] == (-r, r)
        [(j, pair)] = first_cover_balls(mu, s, [r])
        assert j == 1 and pair.U.components == cover[1].U.components

    def test_mass_of_interval_lower(self):
        mu = DiscreteMeasure(((Fraction(1, 2), Fraction(1)),))
        interval = (Fraction(0), Fraction(1))
        assert mu.open_mass(exact_open([interval])).bound(8) == 1
        # the tent integrals approach mu(I) from below
        tent = integrate_poly(indicator_approx(interval, 8), mu)
        assert 1 - _pow2(4) <= tent <= 1
