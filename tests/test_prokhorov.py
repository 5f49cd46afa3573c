"""Exact Prokhorov distances and the two converter directions."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import (
    DiscreteMeasure,
    LazyDiscreteMeasure,
    PolyDensityMeasure,
    pi_from_complement,
    prokhorov_bounds,
    prokhorov_discrete,
    prokhorov_discrete_bruteforce,
    witness_from_eps,
)
from effmeas.convergence import MeasureSeq, Modulus, limit_from_vague
from effmeas.errors import (
    ContractViolation,
    SearchExhausted,
    UnsupportedMeasureClass,
)
from effmeas import measures, prokhorov
from effmeas.measures import almost_decidable_cover
from effmeas.functions import PolyFunc
from effmeas.prokhorov import (
    EpsFunction,
    NOT_IN_CUT,
    _brute_deficit,
    _critical_thresholds,
    _direction_deficit,
    _infimum_over_levels,
    eps_from_weak,
    eps_function,
)
from effmeas.corpora import DriftingAtomFamily, _first_below, corpus_by_name, deltadrift, deltashrink, mixture
from effmeas.reals import CauchyReal, _pow2
from effmeas.sets import merge_open
from tests.conftest import mass_closed_per_component, rand_discrete, spelled_from_ints


def brute_force_valid(
    mu: DiscreteMeasure, nu: DiscreteMeasure, eps: Fraction
) -> bool:
    """Check every test-set inequality at a fixed eps (open neighborhoods): oracle."""

    def one_way(a, b) -> bool:
        n = len(a)
        for mask in range(1, 1 << n):
            s = [a[i] for i in range(n) if mask >> i & 1]
            s_mass = sum((w for _, w in s), Fraction(0))
            nb = sum(
                (v for y, v in b if any(abs(x - y) < eps for x, _ in s)),
                Fraction(0),
            )
            if s_mass > nb + eps:
                return False
        return True

    return one_way(mu.atoms, nu.atoms) and one_way(nu.atoms, mu.atoms)


def delta(x) -> DiscreteMeasure:
    return DiscreteMeasure.point(Fraction(x))


# Pairwise coprime denominators make the common lattice of locations and
# that of weights as fine as they get for a handful of atoms.
COPRIME = (1, 2, 3, 5, 7, 11, 13)


@st.composite
def measure_pairs(draw):
    """Two measures of at most 6 atoms each, drawn from one location pool.

    Either measure may be empty, total masses differ freely, and a location
    drawn by both is an atom the two measures share.
    """
    loc = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(COPRIME))
    weight = st.builds(Fraction, st.integers(1, 12), st.sampled_from(COPRIME))
    pool = draw(st.lists(loc, min_size=1, max_size=8, unique=True))

    def measure() -> DiscreteMeasure:
        chosen = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
        return DiscreteMeasure(tuple((x, draw(weight)) for x in chosen))

    return measure(), measure()


@st.composite
def large_measure_pairs(draw):
    """Two measures of up to 40 atoms each, on a shared pool of locations.

    Location and weight denominators are drawn from the pairwise coprime
    ``COPRIME``, so the lattices of both are fine and levels crowd.
    """
    loc = st.builds(Fraction, st.integers(-200, 200), st.sampled_from(COPRIME))
    weight = st.builds(Fraction, st.integers(1, 30), st.sampled_from(COPRIME))
    size = draw(st.integers(1, 60))
    pool = draw(st.lists(loc, min_size=size, max_size=size, unique=True))

    def measure() -> DiscreteMeasure:
        # sizes drawn outright: plain lists stay at a few atoms
        chosen = draw(st.permutations(pool))[: draw(st.integers(0, 40))]
        return DiscreteMeasure(tuple((x, draw(weight)) for x in chosen))

    return measure(), measure()


def direction_deficit_tuples(src, dst, threshold):
    """The greedy Hall deficit on (location, weight) tuples, kept as the oracle.

    Its own bookkeeping: ``min`` per fill, and ``x - threshold`` and
    ``x + threshold`` recomputed per destination.
    """
    left = [v for _, v in dst]
    j = 0
    unplaced = 0
    for x, w in src:
        while j < len(dst) and (dst[j][0] < x - threshold or not left[j]):
            j += 1
        k = j
        while w and k < len(dst) and dst[k][0] <= x + threshold:
            take = min(w, left[k])
            left[k] -= take
            w -= take
            k += 1
        unplaced += w
    return unplaced


def flat_deficit(src, dst, threshold):
    """:func:`_direction_deficit` called on (location, weight) tuples."""
    return _direction_deficit(
        [x for x, _ in src], [w for _, w in src], [y for y, _ in dst], [v for _, v in dst],
        threshold,
    )


def prokhorov_discrete_levels(mu, nu):
    """Bisection over the explicit sorted set of levels, kept as the oracle
    for the integer level search.

    It builds all n*m pairwise lattice distances and bisects their sorted
    set for the first level i* with D_i <= t_i, skipping the second
    direction when the first already fails.
    """
    atoms = mu.atoms + nu.atoms
    lx = math.lcm(*(x.denominator for x, _ in atoms))
    lw = math.lcm(*(w.denominator for _, w in atoms))
    xa, xb = ([x.numerator * (lx // x.denominator) for x, _ in m.atoms] for m in (mu, nu))
    wa, wb = ([w.numerator * (lw // w.denominator) for _, w in m.atoms] for m in (mu, nu))
    ts = sorted({0, *(abs(x - y) for x in xa for y in xb)})

    def d_at(i):
        t = ts[i]
        return max(_direction_deficit(xa, wa, xb, wb, t), _direction_deficit(xb, wb, xa, wa, t))

    def fits(i):
        t = ts[i]
        cap = t * lw
        return (
            _direction_deficit(xa, wa, xb, wb, t) * lx <= cap
            and _direction_deficit(xb, wb, xa, wa, t) * lx <= cap
        )

    lo, hi = 0, len(ts)  # smallest i with D_i <= t_i, or len(ts) if none
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo == len(ts):
        return Fraction(d_at(lo - 1), lw)
    if lo > 0:
        prev = d_at(lo - 1)
        if prev * lx < ts[lo] * lw:
            return Fraction(prev, lw)
    return Fraction(ts[lo], lx)


def cell_atoms(mu, pitch) -> tuple:
    """The sweep's cells as (location, weight) ``Fraction`` pairs, unmerged."""
    xs, ws, lx, lw = mu.cells(pitch)[0]
    return tuple((Fraction(x, lx), Fraction(w, lw)) for x, w in zip(xs, ws))


def discrete_cells(mu, pitch) -> DiscreteMeasure:
    """The sweep's cells as a measure."""
    return DiscreteMeasure(cell_atoms(mu, pitch))


def atoms(*pairs) -> DiscreteMeasure:
    return DiscreteMeasure(tuple((Fraction(x), Fraction(w)) for x, w in pairs))


# One pair for each way the integer level search can end.
SEARCH_ENDS = {
    # T* = 0: the measures are equal
    "zero": (atoms((0, Fraction(1, 2)), (1, Fraction(1, 2))), atoms((0, Fraction(1, 2)), (1, Fraction(1, 2)))),
    # a passing probe whose need lies above the level below it
    "passing probe": (atoms((0, Fraction(3, 2))), atoms((0, 1))),
    # a passing probe whose need is the level below it: D(T* - 1) = 3/2 is
    # read afterwards and exceeds the probe's deficit 1/2
    "passing probe at a level": (atoms((1, Fraction(3, 2))), atoms((0, 1))),
    # the same after a failing probe, whose deficit is not D(T* - 1)
    "failing, then passing at a level": (atoms((4, Fraction(3, 2)), (5, 3)), atoms((1, 1))),
    # a failing probe whose need is at most the next level
    "failing probe": (atoms((4, 1)), atoms((0, 1))),
    # a failing probe with no level above it: nothing fits below the last
    "no level above": (delta(0), DiscreteMeasure.zero()),
    # lo and hi meet at a level that a failing probe moved lo to
    "bracket closed": (atoms((0, Fraction(3, 2))), atoms((Fraction(4, 3), Fraction(1, 2)))),
}


@pytest.fixture
def count_deficit_calls(monkeypatch):
    """count(f, *args): how many ``_direction_deficit`` calls f(*args) makes."""
    kernel = _direction_deficit
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(prokhorov, "_direction_deficit", counted)

    def count(f, *args):
        nonlocal calls
        calls = 0
        f(*args)
        return calls

    return count


class TestProkhorovDiscrete:
    def test_identity(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
        assert prokhorov_discrete(mu, mu) == 0

    def test_frozen_examples(self):
        assert prokhorov_discrete(delta(0), delta(Fraction(1, 2))) == Fraction(1, 2)
        halfhalf = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))
        assert prokhorov_discrete(delta(0), halfhalf) == Fraction(1, 2)

    def test_empty_measure_driven_by_mass_deficit(self):
        assert prokhorov_discrete(delta(0), DiscreteMeasure.zero()) == 1
        assert prokhorov_discrete(DiscreteMeasure.zero(), DiscreteMeasure.zero()) == 0

    def test_pure_mass_deficit(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1)),))
        nu = DiscreteMeasure(((Fraction(0), Fraction(1, 4)),))
        assert prokhorov_discrete(mu, nu) == Fraction(3, 4)

    def test_infimum_can_be_invalid_itself(self):
        # with open neighborhoods, eps = 1/2 itself violates a test set
        d = prokhorov_discrete(delta(0), delta(Fraction(1, 2)))
        assert d == Fraction(1, 2)
        assert not brute_force_valid(delta(0), delta(Fraction(1, 2)), d)
        assert brute_force_valid(delta(0), delta(Fraction(1, 2)), d + _pow2(10))

    def test_matches_bruteforce_on_random_pairs(self, rng):
        for _ in range(40):
            mu, nu = rand_discrete(rng), rand_discrete(rng)
            assert prokhorov_discrete(mu, nu) == prokhorov_discrete_bruteforce(mu, nu)

    @settings(max_examples=200, deadline=None)
    @given(measure_pairs())
    def test_matches_bruteforce_property(self, pair):
        mu, nu = pair
        assert prokhorov_discrete(mu, nu) == prokhorov_discrete_bruteforce(mu, nu)

    @settings(max_examples=200, deadline=None)
    @given(measure_pairs())
    def test_greedy_deficit_matches_bruteforce_at_every_level(self, pair):
        mu, nu = pair
        for t in _critical_thresholds(mu.atoms, nu.atoms):
            for src, dst in ((mu.atoms, nu.atoms), (nu.atoms, mu.atoms)):
                want = _brute_deficit(src, dst, t)
                assert flat_deficit(src, dst, t) == want
                assert direction_deficit_tuples(src, dst, t) == want

    @settings(max_examples=100, deadline=None)
    @given(large_measure_pairs())
    @example(
        # a shared location, and weights heavier than the other side's mass
        (DiscreteMeasure(((Fraction(0), Fraction(5)), (Fraction(1, 3), Fraction(1, 7)))),
         DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(2, 5), Fraction(11, 13)))))
    )
    def test_flat_kernel_matches_tuple_oracle(self, pair):
        """Up to 40 atoms a side: the flat kernel equals the tuple loop at every
        level, both ways, and the integer level search equals the full level
        scan on the oracle."""
        mu, nu = pair
        # one lattice for locations and weights, so levels and deficits compare
        lat = math.lcm(*(q.denominator for atom in mu.atoms + nu.atoms for q in atom))
        a, b = ([(int(x * lat), int(w * lat)) for x, w in m.atoms] for m in (mu, nu))
        oracle = {}  # (source is a, level) -> the tuple loop's deficit
        for t in _critical_thresholds(a, b):
            for src, dst in ((a, b), (b, a)):
                want = oracle[src is a, t] = direction_deficit_tuples(src, dst, t)
                assert flat_deficit(src, dst, t) == want
        scan = _infimum_over_levels(a, b, lambda src, _dst, t: oracle[src is a, t])
        assert prokhorov_discrete(mu, nu) == Fraction(scan, lat)

    @settings(max_examples=150, deadline=None)
    @given(large_measure_pairs())
    @example(SEARCH_ENDS["zero"])
    @example(SEARCH_ENDS["passing probe"])
    @example(SEARCH_ENDS["passing probe at a level"])
    @example(SEARCH_ENDS["failing, then passing at a level"])
    @example(SEARCH_ENDS["failing probe"])
    @example(SEARCH_ENDS["no level above"])
    @example(SEARCH_ENDS["bracket closed"])
    @example((DiscreteMeasure.zero(), DiscreteMeasure.zero()))
    def test_level_search_matches_explicit_levels(self, pair):
        """Up to 40 atoms a side, mixed denominators, unequal masses and empty
        measures: the integer level search equals bisection over the explicit
        level set, both ways round."""
        mu, nu = pair
        assert prokhorov_discrete(mu, nu) == prokhorov_discrete_levels(mu, nu)
        assert prokhorov_discrete(nu, mu) == prokhorov_discrete_levels(nu, mu)

    def test_search_end_examples(self):
        want = {
            "zero": 0,
            "passing probe": Fraction(1, 2),
            "passing probe at a level": 1,
            "failing, then passing at a level": Fraction(7, 2),
            "failing probe": 1,
            "no level above": 1,
            "bracket closed": Fraction(4, 3),
        }
        for name, (mu, nu) in SEARCH_ENDS.items():
            assert prokhorov_discrete(mu, nu) == want[name] == prokhorov_discrete_bruteforce(mu, nu)

    def test_deficit_calls_logarithmic(self, count_deficit_calls, rng):
        """At most 2 * hi_0.bit_length() + 2 deficit evaluations, where
        hi_0 = ceil(max total mass * lx), lx the locations' common
        denominator: the bound the docstring derives."""

        def calls_and_bound(mu, nu):
            calls = count_deficit_calls(prokhorov_discrete, mu, nu)
            lx = math.lcm(*(x.denominator for x, _ in mu.atoms + nu.atoms))
            mass = max(mu.exact_total_mass(), nu.exact_total_mass())
            return calls, 2 * math.ceil(mass * lx).bit_length() + 2

        pairs = [*SEARCH_ENDS.values()]
        pairs += [(rand_discrete(rng, 12), rand_discrete(rng, 12)) for _ in range(40)]
        for mu, nu in pairs:
            n, bound = calls_and_bound(mu, nu)
            assert n <= bound, (mu, nu)
        # 4,098 cell atoms a side and lx = 2^13: at most 30 evaluations
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        v = PolyDensityMeasure.uniform(Fraction(1, 8), Fraction(9, 8))
        n, bound = calls_and_bound(*(discrete_cells(m, _pow2(12)) for m in (u, v)))
        assert 0 < n <= bound == 30

    # Deficit evaluations per search, exactly.  A change that only adds work
    # (a failing probe that no longer caps hi at its need, or D(T* - 1)
    # evaluated again instead of taken from that probe) keeps every answer
    # and moves a count.
    DEFICIT_CALLS = {
        "zero": 2,
        "passing probe": 2,
        "passing probe at a level": 4,
        "failing, then passing at a level": 6,
        "failing probe": 2,
        "no level above": 2,
        "bracket closed": 4,
    }
    # a failing probe whose need caps hi well below it: 6 evaluations without
    # the cap
    NEED_CAPS_HI = (atoms((Fraction(7, 2), 3)), atoms((-1, 3), (2, Fraction(3, 2)), (7, Fraction(3, 2))))

    def test_deficit_calls_pinned(self, count_deficit_calls):
        for name, (mu, nu) in SEARCH_ENDS.items():
            got = [count_deficit_calls(prokhorov_discrete, *p) for p in ((mu, nu), (nu, mu))]
            assert got == [self.DEFICIT_CALLS[name]] * 2, name
        assert count_deficit_calls(prokhorov_discrete, *self.NEED_CAPS_HI) == 4
        assert count_deficit_calls(prokhorov_discrete, *self.NEED_CAPS_HI[::-1]) == 4
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        v = PolyDensityMeasure.uniform(Fraction(1, 8), Fraction(9, 8))
        assert count_deficit_calls(prokhorov_bounds, u, v, 10) == 10

    def test_rejects_density_measures(self):
        u = PolyDensityMeasure.uniform(0, 1)
        msg = "unsupported measure class for prokhorov_discrete: PolyDensityMeasure"
        with pytest.raises(UnsupportedMeasureClass, match=msg):
            prokhorov_discrete(u, DiscreteMeasure.point(0))
        with pytest.raises(UnsupportedMeasureClass, match=msg):
            prokhorov_discrete(DiscreteMeasure.point(0), u)

    def test_metric_axioms_on_random_triples(self, rng):
        for _ in range(25):
            mu, nu, la = (rand_discrete(rng) for _ in range(3))
            d_mn = prokhorov_discrete(mu, nu)
            assert d_mn == prokhorov_discrete(nu, mu)
            assert d_mn >= 0
            assert (d_mn == 0) == (mu.atoms == nu.atoms)
            assert d_mn <= prokhorov_discrete(mu, la) + prokhorov_discrete(la, nu)


class TestProkhorovBounds:
    @pytest.mark.parametrize("kind", ["lazy", "reconstructed"])
    def test_refuses_a_class_without_cells(self, kind):
        c = deltashrink()
        mu = {
            "lazy": LazyDiscreteMeasure(lambda i: _pow2(i + 1)),
            "reconstructed": limit_from_vague(c.seq, c.vague_oracle, CauchyReal.from_rational(1)),
        }[kind]
        msg = f"unsupported measure class {type(mu).__name__}: no discretisation"
        for pair in ((mu, delta(0)), (delta(0), mu)):
            with pytest.raises(UnsupportedMeasureClass, match=msg):
                prokhorov_bounds(*pair, 3)

    def test_discrete_reduction(self):
        lo, hi = prokhorov_bounds(delta(0), delta(Fraction(1, 2)), 8)
        assert lo == hi == Fraction(1, 2)

    def test_self_distance_straddles_zero(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        lo, hi = prokhorov_bounds(u, u, 5)
        assert lo == 0 and hi - lo <= _pow2(5)

    def test_uniform_vs_center_atom(self):
        # exact distance is 1/3 (the atom needs nu(B(1/2, eps)) + eps >= 1)
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        lo, hi = prokhorov_bounds(u, delta(Fraction(1, 2)), 4)
        assert hi - lo <= _pow2(4)
        assert lo <= Fraction(1, 3) <= hi

    def test_shifted_uniform_at_fine_grid(self):
        # 1024 cell atoms per side; the exact distance of a 1/8 shift is 1/16
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        v = PolyDensityMeasure.uniform(Fraction(1, 8), Fraction(9, 8))
        t0 = time.perf_counter()
        lo, hi = prokhorov_bounds(u, v, 8)
        assert time.perf_counter() - t0 < 20
        assert lo <= Fraction(1, 16) <= hi and hi - lo <= _pow2(8)

    def test_shifted_uniform_at_n12(self):
        # 16,386 cell atoms per side: no set of all pairwise distances
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        v = PolyDensityMeasure.uniform(Fraction(1, 8), Fraction(9, 8))
        t0 = time.perf_counter()
        lo, hi = prokhorov_bounds(u, v, 12)
        assert time.perf_counter() - t0 < 20
        assert lo <= Fraction(1, 16) <= hi and hi - lo <= _pow2(12)

    def test_fine_grid_oracle_agreement(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        lo, hi = prokhorov_bounds(u, delta(Fraction(1, 2)), 4)
        lo10, hi10 = prokhorov_bounds(u, delta(Fraction(1, 2)), 10)
        # the fine grid brackets the exact distance 1/3 tightly
        assert lo <= lo10 <= Fraction(1, 3) <= hi10 <= hi
        assert hi10 - lo10 <= _pow2(10)


def discretize_per_cell(mu, pitch):
    """One mass per grid cell, by Simpson through ``integrate_product``
    (:func:`~tests.conftest.mass_closed_per_component`), kept as the oracle
    for the sweep: it shares no code with the density's cumulative table."""
    atoms = []
    for l, r in mu.density.support_components():
        a = (l / pitch).__floor__() * pitch
        while a < r:
            b = a + pitch
            w = mass_closed_per_component(mu, ((max(a, l), min(b, r)),))
            if w > 0:
                atoms.append((a + pitch / 2, w))
            a = b
    return DiscreteMeasure(tuple(atoms)), pitch


def density(*verts) -> PolyDensityMeasure:
    return PolyDensityMeasure(
        PolyFunc(tuple((Fraction(x), Fraction(y)) for x, y in verts), "zero-outside")
    )


@st.composite
def zero_outside_densities(draw):
    """A random zero-outside density and a grid pitch.

    Vertices sit on dyadic and non-dyadic rationals in [-3, 3]; a third of
    the values are 0, so supports split into components, a nonzero vertex
    between two zeros is a spike, and a cell can straddle a gap.  Pitches
    run from 1/32 to 4, so a cell can be finer or coarser than the pieces,
    and may be non-dyadic.
    """
    loc = st.builds(Fraction, st.integers(-21, 21), st.sampled_from((1, 2, 3, 4, 7, 8)))
    xs = sorted(draw(st.sets(loc, min_size=2, max_size=9)))
    value = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(1, 9), st.sampled_from((1, 2, 3, 5))),
    )
    ys = [Fraction(0)] + [draw(value) for _ in xs[2:]] + [Fraction(0)]
    pitch = draw(
        st.one_of(
            st.builds(lambda k: Fraction(2) ** k, st.integers(-5, 2)),
            st.builds(Fraction, st.integers(1, 5), st.sampled_from((3, 5, 7))),
        )
    )
    return density(*zip(xs, ys)), pitch


def bounds_by_cells(mu, nu, n):
    """prokhorov_bounds by the old route, kept as the oracle for the int sweep:
    per-cell masses (:func:`discretize_per_cell`), a ``DiscreteMeasure``,
    :func:`prokhorov_discrete`, then the pitch either way per density."""
    pitch = _pow2(n + 2)

    def cells(m):
        return (m, Fraction(0)) if isinstance(m, DiscreteMeasure) else discretize_per_cell(m, pitch)

    (a, e1), (b, e2) = cells(mu), cells(nu)
    d = prokhorov_discrete(a, b)
    return max(Fraction(0), d - e1 - e2), d + e1 + e2


@st.composite
def bounds_cases(draw):
    """(mu, nu, n): each side a density from ``zero_outside_densities`` or a
    discrete measure of at most 6 atoms (possibly none) near its support."""

    def side():
        if draw(st.booleans()):
            return draw(zero_outside_densities())[0]
        loc = st.builds(Fraction, st.integers(-12, 12), st.sampled_from(COPRIME))
        weight = st.builds(Fraction, st.integers(1, 12), st.sampled_from(COPRIME))
        locs = draw(st.lists(loc, max_size=6, unique=True))
        return DiscreteMeasure(tuple((x, draw(weight)) for x in locs))

    return side(), side(), draw(st.integers(0, 3))


class TestDiscretizeSweep:
    @settings(max_examples=200, deadline=None)
    @given(zero_outside_densities())
    @example(
        # two components and a coarse cell [0, 1] straddling the gap
        (density((0, 0), (Fraction(1, 3), 1), (Fraction(1, 2), 0), (Fraction(5, 8), 0),
                 (Fraction(3, 4), 2), (1, 0)), Fraction(1))
    )
    @example(
        # a spike between zeros, on non-dyadic vertices, under a fine pitch
        (density((-1, 0), (0, 0), (Fraction(1, 7), 3), (Fraction(2, 7), 0), (1, 0)),
         Fraction(1, 32))
    )
    @example((density((0, 0), (Fraction(1, 3), 1), (Fraction(2, 3), 0)), Fraction(4)))
    @example((density((0, 0), (Fraction(1, 3), 1), (Fraction(2, 3), 0)), Fraction(2, 7)))
    # the benchmark's shapes: a plateau between 2^-20-wide ramps, and a
    # triangle whose peak 5/64 lies on this grid
    @example((PolyDensityMeasure.uniform(0, Fraction(1, 4)), _pow2(7)))
    @example((PolyDensityMeasure.uniform(Fraction(3, 32), Fraction(11, 32)), _pow2(7)))
    @example((density((0, 0), (Fraction(5, 64), 8), (Fraction(1, 4), 0)), _pow2(7)))
    # runs that end exactly on a vertex, on both sides of it
    @example((density((0, 0), (Fraction(1, 2), 1), (1, 1), (Fraction(3, 2), 0)), Fraction(1, 8)))
    # runs cut short by the component ends, which lie inside cells
    @example(
        (density((Fraction(-1, 3), 0), (Fraction(1, 5), 2), (Fraction(7, 6), 0),
                 (Fraction(4, 3), 0), (Fraction(11, 7), 3), (Fraction(13, 7), 0)), Fraction(1, 16))
    )
    # a non-dyadic pitch spanning several cells of each piece
    @example((density((0, 0), (3, 3), (5, 3), (7, 0)), Fraction(2, 7)))
    def test_sweep_matches_per_cell_oracle(self, case):
        mu, pitch = case
        (xs, ws, _, _), err = mu.cells(pitch)
        assert all(a < b for a, b in zip(xs, xs[1:])) and all(w > 0 for w in ws)
        want, want_err = discretize_per_cell(mu, pitch)
        assert cell_atoms(mu, pitch) == want.atoms
        assert err == want_err == pitch

    # prokhorov_bounds(uniform [0, 1/4], other, n) as the one-sweep
    # discretisation gave them, for the benchmark's six density pairs
    BENCHMARK_BOUNDS = {
        ("shift", 3): (Fraction(0), Fraction(1, 8)),
        ("shift", 4): (Fraction(1, 64), Fraction(5, 64)),
        ("shift", 5): (Fraction(1, 32), Fraction(1, 16)),
        ("triangle", 3): (Fraction(2883583, 4194304), Fraction(3407871, 4194304)),
        ("triangle", 4): (Fraction(3014655, 4194304), Fraction(3276799, 4194304)),
        ("triangle", 5): (Fraction(3080191, 4194304), Fraction(3211263, 4194304)),
    }

    @pytest.mark.parametrize("name,n", sorted(BENCHMARK_BOUNDS))
    def test_pinned_benchmark_bounds(self, name, n):
        u = PolyDensityMeasure.uniform(0, Fraction(1, 4))
        other = {
            "shift": PolyDensityMeasure.uniform(Fraction(3, 32), Fraction(11, 32)),
            "triangle": density((0, 0), (Fraction(5, 64), 8), (Fraction(1, 4), 0)),
        }[name]
        assert prokhorov_bounds(u, other, n) == self.BENCHMARK_BOUNDS[name, n]

    @settings(max_examples=100, deadline=None)
    @given(bounds_cases())
    # the benchmark's shapes, against each other and against an atom
    @example((PolyDensityMeasure.uniform(0, Fraction(1, 4)),
              PolyDensityMeasure.uniform(Fraction(3, 32), Fraction(11, 32)), 3))
    @example((density((0, 0), (Fraction(5, 64), 8), (Fraction(1, 4), 0)), delta(Fraction(1, 8)), 2))
    # one vertex, all zero, and an empty discrete measure
    @example((density((1, 0)), delta(0), 2))
    @example((density((0, 0), (1, 0), (2, 0)), density((0, 0), (1, 3), (2, 0)), 1))
    @example((density((0, 0), (Fraction(1, 3), 1), (Fraction(2, 3), 0)), DiscreteMeasure.zero(), 3))
    @example((density((1, 0)), DiscreteMeasure.zero(), 0))
    def test_bounds_match_per_cell_route(self, case):
        mu, nu, n = case
        assert prokhorov_bounds(mu, nu, n) == bounds_by_cells(mu, nu, n)

    def test_wide_gap_is_skipped(self):
        # two unit components 2^30 apart: 2^10 cells each at n = 8, and no
        # walk over the 2^40 cells of the gap
        far = 2**30
        mu = density((0, 0), (Fraction(1, 2), 2), (1, 0),
                     (far, 0), (far + Fraction(1, 2), 2), (far + 1, 0))
        t0 = time.perf_counter()
        xs, ws, lx, lw = mu.cells(_pow2(10))[0]
        assert len(xs) == 2 * 2**10 and sum(ws) == 2 * lw
        assert xs[2**10] == (2 * far * 2**10 + 1) and lx == 2**11
        assert prokhorov_bounds(mu, mu, 8) == (0, _pow2(9))
        assert time.perf_counter() - t0 < 5

    def test_no_mass_closed_or_integrate_product_calls(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            measures, "integrate_product", counted("integrate_product", measures.integrate_product)
        )
        monkeypatch.setattr(
            PolyDensityMeasure,
            "mass_closed",
            counted("mass_closed", PolyDensityMeasure.mass_closed),
        )
        mu = density((0, 0), (Fraction(1, 3), 1), (Fraction(1, 2), 0), (Fraction(3, 4), 2), (1, 0))
        swept = cell_atoms(mu, _pow2(6))
        assert calls == []
        # the wrapper does see the per-cell oracle's calls
        assert discretize_per_cell(mu, _pow2(6))[0].atoms == swept
        assert set(calls) == {"integrate_product"}


def union_mass_gap_sup_all_balls(mu_n, mu, balls):
    """Union-mass sup with every atom tested against every ball (oracle)."""
    classes = {}

    def add(x, signed_w):
        sig = frozenset(j for j, (l, r) in enumerate(balls) if l < x < r)
        if sig:
            classes[sig] = classes.get(sig, Fraction(0)) + signed_w

    for x, w in mu_n.atoms:
        add(x, w)
    for x, w in mu.atoms:
        add(x, -w)
    sigs = list(classes)
    best = Fraction(0)
    for mask in range(1 << len(sigs)):
        hit = [sigs[i] for i in range(len(sigs)) if mask >> i & 1]
        miss = [sigs[i] for i in range(len(sigs)) if not mask >> i & 1]
        excluded = frozenset().union(*miss) if miss else frozenset()
        if all(sig - excluded for sig in hit):
            val = sum((classes[s] for s in hit), Fraction(0))
            best = max(best, abs(val))
    return best


def union_mass_gap_sup_all_unions(mu_n, mu, balls):
    """Union-mass sup over every union of the balls, each by its region masses (oracle)."""
    k = len(balls)
    unions = [merge_open([balls[i] for i in range(k) if mask >> i & 1]) for mask in range(1 << k)]
    return max(abs(mu_n.region_mass_open(A) - mu.region_mass_open(A)) for A in unions)


@st.composite
def union_gap_cases(draw):
    """At most 8 balls, and a member and a limit of at most 6 atoms each,
    or, one time in four each, a polygonal density.

    Ends lie on the half-integers of [-3, 3], so balls touch and share
    ends.  Atoms and density vertices lie on the quarters of [-13/4, 13/4],
    and atoms often on ends.
    """
    point = st.builds(Fraction, st.integers(-6, 6), st.just(2))
    ball = st.tuples(point, point).filter(lambda b: b[0] < b[1])
    balls = draw(st.lists(ball, max_size=8))
    ends = [e for b in balls for e in b]
    locs = [point, st.builds(Fraction, st.integers(-13, 13), st.just(4))]
    if ends:
        locs.append(st.sampled_from(ends))
    loc = st.one_of(*locs)
    weight = st.builds(Fraction, st.integers(1, 5), st.sampled_from((1, 2, 3, 8)))

    def measure():
        if draw(st.integers(0, 3)) == 0:
            quarter = st.builds(Fraction, st.integers(-13, 13), st.just(4))
            xs = sorted(draw(st.lists(quarter, min_size=2, max_size=5, unique=True)))
            ys = draw(st.lists(weight, min_size=len(xs) - 2, max_size=len(xs) - 2))
            return PolyDensityMeasure(PolyFunc(tuple(zip(xs, [0, *ys, 0]))))
        atoms = draw(st.lists(st.tuples(loc, weight), max_size=6))
        if draw(st.booleans()):
            return DiscreteMeasure(tuple(atoms))
        return draw(spelled_from_ints(atoms))

    return balls, measure(), measure()


def eps_from_weak_all_members(seq, limit, ad_modulus, N, *, max_balls=1 << 16):
    """eps_from_weak with the sup taken at every member 0..n_hi (oracle)."""
    if not isinstance(limit, DiscreteMeasure):
        raise UnsupportedMeasureClass("eps_from_weak requires a finite discrete limit")
    cover = almost_decidable_cover(limit, _pow2(N + 3))
    slack = _pow2(N + 2)
    pulled = []
    need = list(limit.atoms)
    uncovered = limit.exact_total_mass()
    j = 0
    while uncovered > slack:
        if j >= max_balls:
            raise SearchExhausted("cover search exhausted within ball budget")
        pulled.append(cover[j])
        l, r = pulled[j].U.components[0]
        uncovered -= sum((w for x, w in need if l < x < r), Fraction(0))
        need = [(x, w) for x, w in need if not l < x < r]
        j += 1
    k0 = max(j - 1, 0)
    while len(pulled) <= k0:
        pulled.append(cover[len(pulled)])
    balls = [p.U.components[0] for p in pulled[: k0 + 1]]
    n_hi = max(ad_modulus(p).of(N + 2) for p in pulled[: k0 + 1])
    bound = _pow2(N + 2)
    sups = [union_mass_gap_sup_all_balls(seq[n], limit, balls) for n in range(n_hi + 1)]
    if sups and sups[-1] >= bound:
        raise ContractViolation(
            "almost-decidable modulus contract failure at its own index",
            witness=(N, n_hi, sups[-1]),
        )
    n0 = n_hi
    while n0 > 0 and sups[n0 - 1] < bound:
        n0 -= 1
    return n0


def _eps_outcome(eps, seq, limit, ad_modulus, N):
    try:
        return eps(seq, limit, ad_modulus, N)
    except (ContractViolation, SearchExhausted, UnsupportedMeasureClass) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@st.composite
def drifting_families(draw):
    """1-4 atoms at mixed-denominator locations in [-1, 1], drift 0 or 1."""
    loc = st.builds(Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 5, 7)))
    # dyadic weights let a union sup land exactly on the bound 2^-(N+2)
    weight = st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 3, 4, 8, 16, 32)))
    locs = draw(st.lists(loc.filter(lambda x: abs(x) <= 1), min_size=1, max_size=4, unique=True))
    return DriftingAtomFamily([(x, draw(weight), draw(st.integers(0, 1))) for x in locs])


class TestEpsFromWeak:
    def test_constant_sequence_gives_zero(self):
        fam = DriftingAtomFamily([(Fraction(0), Fraction(1), 0)])
        seq = MeasureSeq(fam.member)
        for N in (1, 4):
            assert eps_from_weak(seq, fam.limit(), fam.ad_modulus, N) == 0

    @pytest.mark.parametrize("atoms", [[], [(Fraction(5), _pow2(10), 1)]])
    def test_limit_mass_within_the_slack(self, atoms):
        # no atom needs a ball, so the cover's first ball is the one taken
        fam = DriftingAtomFamily(atoms)
        for N in (1, 4):
            assert eps_from_weak(MeasureSeq(fam.member), fam.limit(), fam.ad_modulus, N) == 0

    def test_scan_stops_at_member_mass_outside_the_balls(self):
        # members 0..2 carry an extra atom at 100, which no ball holds, of
        # mass 2^-(N+1): exactly the budget for member mass outside the balls
        extra = ((Fraction(100), Fraction(1, 8)),)
        seq = MeasureSeq(lambda n: DiscreteMeasure(((Fraction(0), Fraction(1)),) + (extra if n < 3 else ())))
        assert eps_from_weak(seq, delta(0), lambda p: Modulus.constant(5), 2) == 3

    @pytest.mark.parametrize("make,N_top", [(deltashrink, 8), (mixture, 6), (mixture, 8)])
    def test_contract_on_corpora(self, make, N_top):
        c = make()
        eps = eps_function(c.seq, c.limit, c.ad_modulus)
        for N in range(1, N_top + 1):
            idx = eps.of(N)
            for n in range(idx, idx + 8):
                assert prokhorov_discrete(c.seq[n], c.limit) < _pow2(N)

    @settings(max_examples=100, deadline=None)
    @given(fam=drifting_families(), N=st.integers(1, 4), cut=st.integers(0, 4))
    # the union sup of a member equals the bound 2^-(N+2) exactly
    @example(fam=DriftingAtomFamily([(Fraction(0), Fraction(1, 8), 1)]), N=1, cut=0)
    @example(
        fam=DriftingAtomFamily([(Fraction(0), Fraction(1, 16), 1), (Fraction(1, 3), Fraction(1), 0)]),
        N=2,
        cut=1,
    )
    def test_directed_cover_against_walk_oracle(self, fam, N, cut):
        """The directed balls are a subset of the walk's, so the index can only drop.

        Members from the index up to n_hi are accepted by the certificate
        itself, so the index is valid whatever the moduli; members past n_hi
        are valid only when the moduli are, so the window is checked for the
        family's own modulus.
        """
        seq, limit = MeasureSeq(fam.member), fam.limit()
        # one ``cut`` indices too small, and the constant ``cut``, which is
        # too small for most drifting families
        short = lambda p: Modulus.constant(max(fam.ad_modulus(p).of(N + 2) - cut, 0))
        for ad in (fam.ad_modulus, short, lambda p: Modulus.constant(cut)):
            idx = _eps_outcome(eps_from_weak, seq, limit, ad, N)
            walk = _eps_outcome(eps_from_weak_all_members, seq, limit, ad, N)
            if isinstance(idx, int) and isinstance(walk, int):
                assert idx <= walk
            if isinstance(idx, int):
                window = 25 if ad is fam.ad_modulus else 1
                for n in range(idx, idx + window):
                    assert prokhorov_discrete(seq[n], limit) < _pow2(N)
            else:
                assert ad is not fam.ad_modulus and idx[0] is ContractViolation

    @pytest.mark.parametrize("N", [12, 20, 40])
    def test_no_precision_ceiling(self, N):
        # the walk to the atom at 1 needed 2^(N+5) balls and stopped at N = 12
        c = mixture()
        idx = eps_from_weak(c.seq, c.limit, c.ad_modulus, N)
        for n in range(idx, idx + 8):
            assert prokhorov_discrete(c.seq[n], c.limit) < _pow2(N)

    @pytest.mark.parametrize("make", [mixture, deltadrift, deltashrink])
    def test_radius_searches_per_limit_atom(self, make, monkeypatch):
        searches = []
        real_search = measures._cover_radius

        def counted(*args):
            searches.append(args[-1])  # the centre's k
            return real_search(*args)

        monkeypatch.setattr(measures, "_cover_radius", counted)
        c = make()
        for N in (1, 8, 30):
            searches.clear()
            eps_from_weak(c.seq, c.limit, c.ad_modulus, N)
            assert 0 < len(searches) <= 4 * len(c.limit.atoms)

    @pytest.mark.parametrize("N", [1, 4, 9])
    def test_members_atoms_never_built(self, N, monkeypatch):
        # mu_n = 1/2 delta_(2^-n) + 1/2 delta_1 -> 1/2 delta_0 + 1/2 delta_1,
        # every measure from int tokens: no atoms until something reads them
        def member(n):
            return DiscreteMeasure.from_ints((1, 1), (1 << n, 1), (1, 1), (2, 2))

        limit = DiscreteMeasure.from_ints((0, 1), (1, 1), (1, 1), (2, 2))
        ad = lambda p: Modulus.constant(N + 8)
        built = []

        def spy(mu):
            built.append(mu)
            return measures._atoms_of(mu)

        same = eps_from_weak(MeasureSeq(lambda n: DiscreteMeasure(member(n).atoms)), limit, ad, N)
        monkeypatch.setattr(DiscreteMeasure.atoms, "build", spy)
        idx = eps_from_weak(MeasureSeq(member), limit, ad, N)
        assert built == [] and idx == same
        member(0).atoms
        assert len(built) == 1  # the spy does see a read
        for n in range(idx, idx + 8):
            assert prokhorov_discrete(member(n), limit) < _pow2(N)

    @pytest.mark.parametrize("family", ["mixture", "deltadrift"])
    def test_family_atoms_never_built(self, family, monkeypatch):
        """An eps job (the index, then rho over the members of its window)
        and a limsup witness job read a drifting family's members and limit
        on their lattices alone, with the answers of the same measures built
        from ``Fraction``s."""
        C = pi_from_complement(((Fraction(0), Fraction(1)),))

        def jobs(seq, limit, ad):
            out = []
            for N in (1, 4):
                idx = eps_from_weak(seq, limit, ad, N)
                out.append((idx, [prokhorov_discrete(seq[n], limit) for n in range(idx, idx + 4)]))
            eps = eps_function(seq, limit, ad)
            return out + [witness_from_eps(seq, limit, eps, C, Fraction(11, 8))]

        c = corpus_by_name(family)
        plain = MeasureSeq(lambda n: DiscreteMeasure(c.seq[n].atoms))
        same = jobs(plain, DiscreteMeasure(c.limit.atoms), c.ad_modulus)
        built = []

        def spy(mu):
            built.append(mu)
            return measures._atoms_of(mu)

        monkeypatch.setattr(DiscreteMeasure.atoms, "build", spy)
        c = corpus_by_name(family)
        assert jobs(c.seq, c.limit, c.ad_modulus) == same
        assert built == []
        c.limit.atoms
        assert len(built) == 1  # the spy does see a read

    @pytest.mark.parametrize("N", [1, 4, 6])
    def test_eps_job_builds_no_member_total(self, N):
        """The eps index and rho over the members of its window, as the
        weak-to-Prokhorov job asks them, read each member's lattice and the
        family's mass, never a member's own ``Fraction`` total."""
        c = mixture()
        idx = eps_from_weak(c.seq, c.limit, c.ad_modulus, N)
        window = range(idx, idx + 4)
        assert all(prokhorov_discrete(c.seq[n], c.limit) < _pow2(N) for n in window)
        assert all("_total" not in vars(c.seq[n]) for n in (*range(idx), *window))

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_member_mass_outside_the_balls_rejected(self, N):
        # mu_n = delta_0 + 2^-n delta_100 -> delta_0; the constant modulus 0 is
        # exact on every ball around 0, but mu_0 is at distance 1 from delta_0
        seq = MeasureSeq(lambda n: DiscreteMeasure(((Fraction(0), Fraction(1)), (Fraction(100), _pow2(n)))))
        assert prokhorov_discrete(seq[0], delta(0)) == 1
        with pytest.raises(ContractViolation) as e:
            eps_from_weak(seq, delta(0), lambda p: Modulus.constant(0), N)
        assert e.value.witness == (N, 0, Fraction(1))

    @settings(max_examples=200, deadline=None)
    @given(case=union_gap_cases())
    # touching balls: the shared end 1 is in neither, so D = 0
    @example(
        case=(
            [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))],
            atoms((1, 1)),
            atoms(),
        )
    )
    # the frontier 2 of (0, 2) is inside (1, 3): both together hold
    # -1 + 1, so D = 0
    @example(
        case=(
            [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(3))],
            atoms((Fraction(5, 2), 1)),
            atoms((2, 1)),
        )
    )
    def test_frontier_sweep_matches_all_unions_oracle(self, case):
        balls, mu_n, mu = case
        D, outside = prokhorov._union_mass_gaps(balls, mu)(mu_n)
        if not (isinstance(mu_n, DiscreteMeasure) and isinstance(mu, DiscreteMeasure)):
            assert D == union_mass_gap_sup_all_unions(mu_n, mu, balls)
            assert outside == mu_n.exact_total_mass() - mu_n.region_mass_open(balls)
            return
        assert D == union_mass_gap_sup_all_balls(mu_n, mu, balls)
        assert outside == sum(
            (w for x, w in mu_n.atoms if not any(l < x < r for l, r in balls)), Fraction(0)
        )

    @pytest.mark.parametrize("k", [4, 8, 12, 16])
    def test_equal_drifting_atoms_one_apart(self, k):
        # each atom has its own ball, so a search over unions grows as 2^k
        fam = DriftingAtomFamily([(Fraction(i), Fraction(1, k), 1) for i in range(k)])
        t0 = time.perf_counter()
        assert eps_from_weak(fam, fam.limit(), fam.ad_modulus, 6) == 11
        assert time.perf_counter() - t0 < 1

    def test_density_members(self):
        # mu_n is the triangle density of mass 1 on (-2^-n, 2^-n) -> delta_0;
        # each ball's mass is exact once the support is inside it or off it
        seq = MeasureSeq(lambda n: PolyDensityMeasure(PolyFunc(((-_pow2(n), 0), (0, 1 << n), (_pow2(n), 0)))))
        ad = lambda p: Modulus.constant(_first_below(min(abs(e) for e in p.U.components[0])))
        idxs = [eps_from_weak(seq, delta(0), ad, N) for N in range(1, 7)]
        assert idxs == [5, 7, 8, 9, 10, 11]
        for N, idx in enumerate(idxs, 1):
            for n in range(idx, idx + 4):
                lo, hi = prokhorov_bounds(seq[n], delta(0), N + 3)
                assert lo <= hi < _pow2(N)

    def test_negative_modulus_index_rejected(self):
        c = mixture()
        with pytest.raises(ContractViolation) as e:
            eps_from_weak(c.seq, c.limit, lambda p: Modulus.constant(-3), 2)
        assert e.value.witness == (2, -3)

    def test_requires_discrete_limit(self):
        c = deltashrink()
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        with pytest.raises(UnsupportedMeasureClass):
            eps_from_weak(c.seq, u, c.ad_modulus, 2)


class TestWitnessFromEps:
    def setup_method(self):
        self.c = deltadrift(Fraction(1))
        self.eps = eps_function(self.c.seq, self.c.limit, self.c.ad_modulus)
        self.C = pi_from_complement([(Fraction(0), Fraction(1))])

    def test_constant_sequence_trivial(self):
        from effmeas.convergence import MeasureSeq

        seq = MeasureSeq(lambda n: delta(0))
        eps = EpsFunction.constant(0)
        n0 = witness_from_eps(seq, delta(0), eps, self.C, Fraction(3, 2))
        assert isinstance(n0, int)
        assert all(seq[n].mass_closed(((Fraction(0), Fraction(1)),)) < Fraction(3, 2) for n in range(n0, n0 + 5))

    def test_limit_without_closed_masses_unsupported(self):
        lazy = measures.LazyDiscreteMeasure(lambda i: _pow2(i + 1))
        with pytest.raises(UnsupportedMeasureClass):
            witness_from_eps(self.c.seq, lazy, self.eps, self.C, Fraction(3, 2))

    def test_right_cut_indices(self):
        comps = ((Fraction(0), Fraction(1)),)
        for r in (Fraction(5, 4), Fraction(9, 8), Fraction(2)):
            n0 = witness_from_eps(self.c.seq, self.c.limit, self.eps, self.C, r)
            assert isinstance(n0, int)
            for n in range(n0, n0 + 10):
                assert self.c.seq[n].mass_closed(comps) < r

    def test_below_the_cut(self):
        for r in (Fraction(1, 2), Fraction(1), Fraction(0)):
            assert witness_from_eps(self.c.seq, self.c.limit, self.eps, self.C, r) == NOT_IN_CUT

    def test_assembled_witness(self):
        rs = (Fraction(1, 2), Fraction(5, 4), Fraction(3, 2))
        idxs = [witness_from_eps(self.c.seq, self.c.limit, self.eps, self.C, r) for r in rs]
        assert idxs[0] == NOT_IN_CUT  # 1/2 is below the cut
        for r, idx in zip(rs[1:], idxs[1:]):
            assert self.c.seq[idx].mass_closed(((Fraction(0), Fraction(1)),)) < r
