"""Shared deterministic generators for the test suite.

Randomized checks use seeded ``random.Random`` instances so every run
exercises the same cases; hypothesis-based properties carry their own
shrinking seeds.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import effmeas.measures as measures
from effmeas import DiscreteMeasure, PolyFunc, constant_func
from effmeas.sets import SigmaSet, merge_closed, merge_open


def rand_rational(rng: random.Random, lo=-4, hi=4, max_den=16) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_discrete(rng: random.Random, max_atoms=5) -> DiscreteMeasure:
    """<= max_atoms atoms, rational locations in [-4, 4], weights summing <= 2."""
    n = rng.randint(0, max_atoms)
    budget = Fraction(2)
    atoms = []
    for _ in range(n):
        den = rng.randint(1, 16)
        w = Fraction(rng.randint(1, 2 * den), 2 * den)
        if w > budget:
            w = budget
        if w == 0:
            continue
        budget -= w
        atoms.append((rand_rational(rng), w))
    return DiscreteMeasure(tuple(atoms))


@st.composite
def spelled_from_ints(draw, atoms):
    """``DiscreteMeasure.from_ints`` of the rational ``atoms``, each token
    unreduced by a factor 1-3 and the sign of its denominator drawn."""
    cols = ([], [], [], [])  # xn, xd, wn, wd
    for atom in atoms:
        for q, num, den in zip(atom, cols[::2], cols[1::2]):
            m, sign = draw(st.integers(1, 3)), draw(st.sampled_from((1, -1)))
            num.append(sign * m * q.numerator)
            den.append(sign * m * q.denominator)
    return DiscreteMeasure.from_ints(*cols)


def exact_open(comps) -> SigmaSet:
    """The open set on the union of ``comps``, exact as a ball is."""
    return SigmaSet._exact(merge_open(comps))


def open_contains_point(comps, x: Fraction) -> bool:
    """Is x in the union of the open components?  A ``None`` end is infinite."""
    return any((cl is None or cl < x) and (cr is None or x < cr) for cl, cr in comps)


def open_contains_interval(comps, l: Fraction, r: Fraction) -> bool:
    """Is the bounded open interval (l, r) inside the union of the disjoint
    open components?  Being connected, it must lie in one of them."""
    return any((cl is None or cl <= l) and (cr is None or r <= cr) for cl, cr in comps)


# region masses by the loops that each class once ran, kept as the oracles
# for the one cumulative-mass primitive: per atom for a discrete measure,
# per component through integrate_product for a density


def region_mass_open_per_atom(mu: DiscreteMeasure, comps) -> Fraction:
    return sum((w for loc, w in mu.atoms if open_contains_point(comps, loc)), Fraction(0))


def mass_closed_per_atom(mu: DiscreteMeasure, comps) -> Fraction:
    return sum((w for loc, w in mu.atoms if any(l <= loc <= r for l, r in comps)), Fraction(0))


def region_mass_open_per_component(mu, comps) -> Fraction:
    lo, hi = mu.density.vertices[0][0], mu.density.vertices[-1][0]
    total = Fraction(0)
    for l, r in merge_open(comps):
        a = lo if l is None else max(lo, l)
        b = hi if r is None else min(hi, r)
        # read through the module, so that a test can count the calls
        total += measures.integrate_product(mu.density, constant_func(1), a, b)
    return total


def mass_closed_per_component(mu, comps) -> Fraction:
    # points are null for a density measure
    return region_mass_open_per_component(mu, merge_closed([(l, r) for l, r in comps if l < r]))


def almost_decidable_by_pairs(U, V, mu) -> bool:
    """``AlmostDecidablePair(U, V, mu).check()`` by a loop over pairs of the
    exact components, a ``None`` end read as -inf on the left and +inf on
    the right: no component of U meets one of V, the per-atom or
    per-component masses of U and V sum to mu(R), and U u V holds a point
    between each two consecutive finite ends and beyond the outer ones, so
    every gap of the union is a point."""

    def lo(x):
        return -math.inf if x is None else x

    def hi(x):
        return math.inf if x is None else x

    if any(max(lo(al), lo(bl)) < min(hi(ar), hi(br)) for al, ar in U for bl, br in V):
        return False
    mass = region_mass_open_per_atom if isinstance(mu, DiscreteMeasure) else region_mass_open_per_component
    if mass(mu, U) + mass(mu, V) != mass(mu, ((None, None),)):
        return False
    ends = sorted({e for comp in U + V for e in comp if e is not None})
    probes = [(a + b) / 2 for a, b in zip(ends, ends[1:])] + ([ends[0] - 1, ends[-1] + 1] if ends else [Fraction(0)])
    return all(open_contains_point(U + V, x) for x in probes)


def rand_supported_poly(rng: random.Random, span=3, max_verts=5) -> PolyFunc:
    """A random compactly supported polygonal function."""
    k = rng.randint(1, max_verts)
    xs = sorted({rand_rational(rng, -span, span) for _ in range(k)})
    if not xs:
        xs = [Fraction(0)]
    verts = [(xs[0] - 1, Fraction(0))]
    verts += [(x, rand_rational(rng, -2, 2, 8)) for x in xs]
    verts += [(xs[-1] + 1, Fraction(0))]
    return PolyFunc(tuple(verts), "zero-outside")


@pytest.fixture
def rng():
    return random.Random(0xEFF)
