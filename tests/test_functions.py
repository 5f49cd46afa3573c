"""Polygonal functions, compact-open names, and polygonal approximation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import (
    CompactOpenName,
    PolyFunc,
    approx_polygonal,
    co_name_of_poly,
    constant_func,
    hat_function,
    indicator_approx,
    supported_from_poly,
    tent_function,
)
import effmeas.functions as functions
from effmeas.errors import MalformedInterval
from effmeas.functions import SupportedFunc, polygonal_on_window
from effmeas.reals import _pow2
from effmeas.sets import merge_closed

frac = st.fractions(min_value=-4, max_value=4, max_denominator=16)


def grid(a, b, steps=33):
    a, b = Fraction(a), Fraction(b)
    return [a + (b - a) * k / steps for k in range(steps + 1)]


class TestPolyFunc:
    def test_eval_matches_linear_interpolation(self):
        p = PolyFunc(((Fraction(0), Fraction(0)), (Fraction(2), Fraction(4))), "constant-extend")
        assert p(Fraction(1)) == 2
        assert p(Fraction(1, 2)) == 1
        assert p(Fraction(-5)) == 0  # constant extension
        assert p(Fraction(7)) == 4

    def test_zero_outside_extension(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(3))
        assert p(Fraction(-1)) == 0
        assert p(Fraction(1)) == 3
        assert p(Fraction(3)) == 0

    def test_zero_outside_requires_zero_boundary(self):
        with pytest.raises(MalformedInterval):
            PolyFunc(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), "zero-outside")

    @pytest.mark.parametrize("verts", [((None, 0), (1, 0)), ((0, 0), (1, None)), ((0, 0), ("x", 0))])
    def test_non_rational_vertex_refused(self, verts):
        with pytest.raises(MalformedInterval, match="expected a rational number, got"):
            PolyFunc(verts, "zero-outside")

    def test_vertices_strictly_increasing(self):
        with pytest.raises(MalformedInterval):
            PolyFunc(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))), "constant-extend")

    @given(frac, frac)
    def test_exact_range_is_range(self, a, b):
        if not a < b:
            return
        p = hat_function(Fraction(-2), Fraction(0), Fraction(2), Fraction(1))
        lo, hi = p.exact_range(a, b)
        vals = [p(x) for x in grid(a, b)]
        assert lo <= min(vals) and max(vals) <= hi
        assert lo in vals or any(lo == p(x) for x, _ in p.vertices) or lo == p(a) or lo == p(b)

    def test_bound_and_lipschitz(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(3), Fraction(2))
        assert p.bound() == 2
        assert p.lipschitz() == 2  # rising slope 2, falling slope 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(frac, st.sampled_from([-2, -1, 0, Fraction(1, 3), 1]) | frac),
                 min_size=1, max_size=7, unique_by=lambda v: v[0])
    )
    @example([(Fraction(3, 2), Fraction(-5, 7))])  # one vertex
    @example([(0, 1), (1, 1), (2, 1)])  # one plateau
    @example([(-1, 3), (0, 1), (Fraction(1, 2), -4), (3, -4)])  # falling only
    def test_lipschitz_is_steepest_slope(self, verts):
        p = PolyFunc(tuple(sorted(verts)), "constant-extend")
        slopes = [abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(p.vertices, p.vertices[1:])]
        L = p.lipschitz()
        assert type(L) is Fraction and L == max(slopes, default=Fraction(0))

    def test_support_components(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        assert p.support_components() == ((Fraction(0), Fraction(2)),)
        # adjacent nonzero vertices, a zero piece, isolated spikes
        ys = [0, 2, 3, 0, 0, 1, 0, 0, 1, 0]
        q = PolyFunc(tuple((Fraction(x), Fraction(y)) for x, y in enumerate(ys)), "zero-outside")
        assert q.support_components() == ((0, 3), (4, 6), (7, 9))


def support_components_merge_oracle(p: PolyFunc):
    """Nonzero pieces and nonzero vertices merged by ``merge_closed``: the
    construction the one-pass scan replaced, kept as its oracle."""
    verts = p.vertices
    comps = [(x0, x1) for (x0, y0), (x1, y1) in zip(verts, verts[1:]) if y0 != 0 or y1 != 0]
    comps += [(x, x) for x, y in verts if y != 0]
    return merge_closed(comps) if comps else ()


class _SubFraction(Fraction):
    """A Fraction subclass: inputs of this type are normalised to Fraction."""


def spelled(q: Fraction, spelling: int):
    """q as a Fraction, a str, a Fraction subclass, or an int where integral."""
    if spelling == 1:
        return str(q)
    if spelling == 2:
        return _SubFraction(q)
    if spelling == 3 and q.denominator == 1:
        return int(q)
    return q


# zero values are frequent, so that adjacent nonzero vertices, isolated
# spikes and zero vertices between nonzero ones all occur
_ys = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2), Fraction(1, 3)])


@st.composite
def zero_outside_polys(draw):
    xs = sorted(draw(st.sets(frac, min_size=1, max_size=9)))
    ys = [Fraction(0)] + [draw(_ys) for _ in xs[1:-1]] + ([Fraction(0)] if len(xs) > 1 else [])
    return PolyFunc(tuple(zip(xs, ys)), "zero-outside")


class TestNormalisedInputs:
    @settings(max_examples=300, deadline=None)
    @given(zero_outside_polys())
    def test_support_components_match_merge_oracle(self, p):
        assert p.support_components() == support_components_merge_oracle(p)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), p=zero_outside_polys(), ext=st.sampled_from(["zero-outside", "constant-extend"]))
    def test_spelled_vertices_equal_and_hash_equal(self, data, p, ext):
        sp = [
            (spelled(x, data.draw(st.integers(0, 3))), spelled(y, data.draw(st.integers(0, 3))))
            for x, y in p.vertices
        ]
        a, b = PolyFunc(p.vertices, ext), PolyFunc(tuple(sp), ext)
        assert a == b and hash(a) == hash(b)
        assert all(type(x) is Fraction and type(y) is Fraction for x, y in b.vertices)
        x = data.draw(frac)
        assert b(spelled(x, data.draw(st.integers(0, 3)))) == a(x)


class TestShapes:
    def test_tent_is_one_on_plateau_zero_outside(self):
        t = tent_function((Fraction(-1), Fraction(2)))
        assert t(Fraction(-1)) == t(Fraction(0)) == t(Fraction(2)) == 1
        assert t(Fraction(-2)) == t(Fraction(3)) == 0
        assert t(Fraction(-3, 2)) == Fraction(1, 2)

    def test_tent_degenerate_point(self):
        t = tent_function((Fraction(1), Fraction(1)))
        assert t(Fraction(1)) == 1
        assert t(Fraction(0)) == t(Fraction(2)) == 0

    def test_indicator_approx_monotone_in_k(self):
        iv = (Fraction(0), Fraction(1))
        for k in range(5):
            tk, tk1 = indicator_approx(iv, k), indicator_approx(iv, k + 1)
            for x in grid(-1, 2, 64):
                assert tk(x) <= tk1(x) <= (1 if 0 <= x <= 1 else 0)

    def test_indicator_approx_below_indicator(self):
        t = indicator_approx((Fraction(0), Fraction(1)), 3)
        assert t(Fraction(-1, 100)) == 0
        assert t(Fraction(1, 2)) == 1


class TestCompactOpenName:
    def test_range_boxes_sound_and_tight(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        name = co_name_of_poly(p)
        lo, hi = name.range_box(Fraction(0), Fraction(2), Fraction(1, 64))
        assert (lo, hi) == (Fraction(0), Fraction(1))

    def test_enumerated_pairs_are_sound(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        name = co_name_of_poly(p)
        for k in range(200):
            (i_l, i_r), (j_l, j_r) = name.enumeration[k]
            lo, hi = p.exact_range(i_l, i_r)
            assert j_l < lo and hi < j_r

    def test_no_stream_built(self, monkeypatch):
        def refuse(*_args, **_kw):
            raise AssertionError("a Stream was built")

        monkeypatch.setattr(functions, "Stream", refuse)
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        name = co_name_of_poly(p)
        assert name.range_box(Fraction(0), Fraction(2), Fraction(1, 64)) == (0, 1)
        assert name.value_box(Fraction(1), Fraction(1, 8)) == (1, 1)
        with pytest.raises(AssertionError, match="Stream"):
            name.enumeration

    def test_value_box(self):
        p = constant_func(Fraction(7, 3))
        name = co_name_of_poly(p)
        lo, hi = name.value_box(Fraction(5), Fraction(1, 8))
        assert lo <= Fraction(7, 3) <= hi and hi - lo <= Fraction(1, 8)


def opaque_name_of(p: PolyFunc, slop=Fraction(0)) -> CompactOpenName:
    """A name without the exact backing, to force range-box fitting."""

    def range_fn(a, b, tol):
        lo, hi = p.exact_range(a, b)
        pad = min(slop, Fraction(tol) / 2)
        return lo - pad, hi + pad

    return CompactOpenName(range_fn)


class TestPolygonalApproximation:
    def test_exact_backing_fast_path_returns_restriction(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        psi = polygonal_on_window(co_name_of_poly(p), Fraction(-1), Fraction(3), Fraction(1, 2**12))
        for x in grid(-1, 3):
            assert psi(x) == p(x)

    def test_generic_fitting_certifies_error(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        err = _pow2(6)
        psi = polygonal_on_window(opaque_name_of(p), Fraction(-1), Fraction(3), err)
        for x in grid(-1, 3, 257):
            assert abs(psi(x) - p(x)) <= err

    def test_generic_fitting_with_inexact_boxes(self):
        p = tent_function((Fraction(0), Fraction(1)))
        err = _pow2(5)
        psi = polygonal_on_window(
            opaque_name_of(p, slop=_pow2(10)), Fraction(-2), Fraction(2), err
        )
        for x in grid(-2, 2, 257):
            assert abs(psi(x) - p(x)) <= err

    def test_approx_polygonal_supported(self):
        p = hat_function(Fraction(0), Fraction(5, 4), Fraction(5, 2), Fraction(1))
        f = supported_from_poly(p)
        psi = approx_polygonal(f, _pow2(10))
        assert psi.extension == "zero-outside"
        for x in grid(-2, 4, 101):
            assert abs(psi(x) - p(x)) <= _pow2(10)

    @pytest.mark.parametrize("err", [Fraction(1), _pow2(10), _pow2(40)])
    def test_exact_backing_is_returned_itself(self, err):
        for p in (
            hat_function(Fraction(0), Fraction(5, 4), Fraction(5, 2), Fraction(1)),
            tent_function((Fraction(-7, 3), Fraction(1, 9))),
            PolyFunc(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))), "zero-outside"),
        ):
            assert approx_polygonal(supported_from_poly(p), err) is p

    def test_opaque_or_inexact_name_is_fitted(self):
        """Without an exact backing the fit goes through range boxes: it is
        a new polygon vanishing at p < min supp f and q > max supp f."""
        p = hat_function(Fraction(0), Fraction(5, 4), Fraction(5, 2), Fraction(1))
        inexact = co_name_of_poly(p)
        inexact.poly = None
        support = supported_from_poly(p).support
        err = _pow2(8)
        for name in (opaque_name_of(p), opaque_name_of(p, slop=_pow2(12)), inexact):
            psi = approx_polygonal(SupportedFunc(name, support), err)
            assert psi is not p and psi.extension == "zero-outside"
            (x0, y0), (x1, y1) = psi.vertices[0], psi.vertices[-1]
            assert x0 < 0 and x1 > Fraction(5, 2) and y0 == y1 == 0
            for x in grid(-1, 3, 129):
                assert abs(psi(x) - p(x)) <= err

    def test_forced_endpoints_respected(self):
        p = hat_function(Fraction(0), Fraction(1), Fraction(2), Fraction(1))
        psi = polygonal_on_window(
            opaque_name_of(p), Fraction(-1), Fraction(3), _pow2(4),
            va=Fraction(0), vb=Fraction(0), extension="zero-outside",
        )
        assert psi(Fraction(-1)) == 0 and psi(Fraction(3)) == 0

    def test_zero_function_support(self):
        z = PolyFunc(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))), "zero-outside")
        f = supported_from_poly(z)
        l, u = f.hull()
        assert l <= 0 <= u and u - l <= 2 * _pow2(8)
