"""Mutation check for the Prokhorov kernels, exact integration, the polygon check, the
bound streams, the measure protocol, the open and closed sets, the vague oracles' callers,
the vague => weak chain's int comparisons and tolerances, the certificate checks, the
scan and total-mass check lengths, the file reader, the
builtin names, the drifting families, the lattice cover search, null points and
the almost decidable pair check, the refusals of non-rational values and the CLI.

Not part of the test suite (pytest collects only ``test_*.py``).  Each
mutant is one exact text replacement in one source file.  For each, the
runner copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, applies the replacement there, runs the mutant's tests with
pytest, stopping at the first failure, and reports whether they killed it.
The repository itself is never written.

Some mutants are equivalent: they change the work done but no answer and
no pinned count, so no test can kill them.  They carry the reason and are
expected to survive.

    python3 tests/mutants.py    # the unmutated tests, then every mutant

Exit status 0 when every mutant is killed or survives as expected, and 1
when one survives unexpectedly, an expected survivor is killed, a
replacement's text is not found exactly once, or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PROKHOROV = "src/effmeas/prokhorov.py"
MEASURES = "src/effmeas/measures.py"
FILEFORMAT = "src/effmeas/fileformat.py"
FUNCTIONS = "src/effmeas/functions.py"
CONVERGENCE = "src/effmeas/convergence.py"
CLI = "src/effmeas/cli.py"
SETS = "src/effmeas/sets.py"
CORPORA = "src/effmeas/corpora.py"
REALS = "src/effmeas/reals.py"
CODES = "src/effmeas/codes.py"
PROKHOROV_TESTS = ("tests/test_prokhorov.py",)
TIMEOUT_S = 600  # per pytest run; an unmutated run takes well under a minute


@dataclass(frozen=True)
class Mutant:
    name: str
    old: str
    new: str
    file: str = PROKHOROV
    tests: tuple[str, ...] = PROKHOROV_TESTS
    survives: Optional[str] = None  # why it is equivalent, if it is


MUTANTS = (
    # the greedy Hall deficit
    Mutant(
        "deficit: window open at its right end",
        "        k = j\n        while k < m and ys[k] <= hi:",
        "        k = j\n        while k < m and ys[k] < hi:",
    ),
    Mutant(
        "deficit: one direction only",
        "return max(_direction_deficit(xa, wa, xb, wb, T), _direction_deficit(xb, wb, xa, wa, T))",
        "return _direction_deficit(xa, wa, xb, wb, T)",
    ),
    # answers unchanged, but every fill walks past the emptied destinations:
    # quadratic, and the 16,386-atom search overruns its time bound
    Mutant(
        "deficit: emptied destinations not skipped",
        "while j < m and (ys[j] < lo or not left[j]):",
        "while j < m and ys[j] < lo:",
    ),
    Mutant(
        "deficit: exact fill through the other branch",
        "if cap >= w:",
        "if cap > w:",
        survives="a destination filled exactly is emptied by the other branch",
    ),
    # the level search
    Mutant(
        "search: failing probe keeps hi",
        "lo, hi, d_lo = above, min(hi, need), d",
        "lo, hi, d_lo = above, hi, d",
    ),
    Mutant(
        "search: D(T* - 1) evaluated again",
        "lo, hi, d_lo = above, min(hi, need), d",
        "lo, hi, d_lo = above, min(hi, need), None",
    ),
    Mutant(
        "search: failing probe ends only below the next level",
        "if above is None or need <= above:",
        "if above is None or need < above:",
        survives=(
            "at need == above the probe sets lo = hi = above and keeps its"
            " deficit as D(lo - 1): the loop ends with the same answer and no"
            " further deficit call"
        ),
    ),
    Mutant(
        "search: failing probe ends only two below the next level",
        "if above is None or need <= above:",
        "if above is None or need < above - 1:",
        survives=(
            "as above at need == above; at need == above - 1 it sets"
            " hi = need < lo = above, and the final test returns D(T)/lw"
        ),
    ),
    # the frontier sweep of eps_from_weak's union-mass sup, on cumulative masses
    Mutant(
        "union sweep: the frontier point dropped",
        "gain = hi - below[F]",
        "gain = hi - upto[F]",
        tests=("tests/test_prokhorov.py::TestEpsFromWeak",),
    ),
    Mutant(
        "union sweep: a ball touching the frontier taken as overlapping",
        "if F is None or F <= l:",
        "if F is None or F < l:",
        tests=("tests/test_prokhorov.py::TestEpsFromWeak",),
    ),
    Mutant(
        "union sweep: ball ends left off the common lattice",
        "member.cumulative(keys, le)",
        "member.cumulative(keys, 1)",
        tests=("tests/test_prokhorov.py::TestEpsFromWeak",),
    ),
    # the int sweep of PolyDensityMeasure.cells
    Mutant(
        "sweep: quadratic term's sign",
        "return f0 + d * (a + b * d) if d > 0 else f0",
        "return f0 + d * (a - b * d) if d > 0 else f0",
        file=MEASURES,
    ),
    Mutant(
        "sweep: cell key (2k - 1)p",
        "xs.append((2 * k + 1) * p)",
        "xs.append((2 * k - 1) * p)",
        file=MEASURES,
    ),
    Mutant(
        "sweep: straddling cell emitted again",
        "if k is None or x0 // P > k:",
        "if k is None or x0 // P != k:",
        file=MEASURES,
    ),
    Mutant(
        "sweep: lw without the factor 2",
        "return pieces, MF, dx, 2 * dx * dy * L, total",
        "return pieces, MF, dx, dx * dy * L, total",
        file=MEASURES,
    ),
    Mutant(
        "sweep: L from the piece widths alone",
        "(x1 - x0) // math.gcd(x1 - x0, y1 - y0)",
        "(x1 - x0)",
        file=MEASURES,
        survives="a multiple of L is a finer weight lattice, and any lattice gives the same rho",
    ),
    # exact integration: the lattice moments, the slopes, the backing rule
    Mutant(
        "integrate: the right outside run dropped",
        "num = lx * (Y[0] * sum(ws[: cuts[0]]) + Y[-1] * sum(ws[cuts[-1] :]))",
        "num = lx * Y[0] * sum(ws[: cuts[0]])",
        file=MEASURES,
        tests=("tests/test_measures.py::TestIntegratePolyOnAtoms",),
    ),
    # not equivalent: a vertex off the atoms' lattice is cut at its floor
    # there, so an atom at that floor, left of the vertex, would be read on
    # the piece right of it
    Mutant(
        "integrate: cuts by bisect_left",
        "cuts = [bisect_right(xs, v * lx // dx) for v in X]",
        'cuts = [__import__("bisect").bisect_left(xs, v * lx // dx) for v in X]',
        file=MEASURES,
        tests=("tests/test_measures.py::TestIntegratePolyOnAtoms",),
    ),
    Mutant(
        "lipschitz: the gentlest slope kept",
        "if n * bd > bn * d:",
        "if n * bd < bn * d:",
        file=FUNCTIONS,
        tests=("tests/test_functions.py::TestPolyFunc",),
    ),
    # polygons on the int lattice, against the Fraction polygon of tests/test_polylattice.py
    Mutant(
        "lattice polygon: equal abscissae accepted",
        "if not all(map(lt, X, X[1:])):",
        "if not all(map(int.__le__, X, X[1:])):",
        file=FUNCTIONS,
        tests=("tests/test_polylattice.py",),
    ),
    Mutant(
        "lattice polygon: lipschitz not rescaled by dx/dy",
        "return Fraction(bn * dx, bd * dy)",
        "return Fraction(bn, bd)",
        file=FUNCTIONS,
        tests=("tests/test_polylattice.py",),
    ),
    Mutant(
        "lattice polygon: interpolated from the piece's right value",
        "return Fraction(y0 * w * xd + (y1 - y0) * (xn * dx - x0 * xd), dy * w * xd)",
        "return Fraction(y1 * w * xd + (y1 - y0) * (xn * dx - x0 * xd), dy * w * xd)",
        file=FUNCTIONS,
        tests=("tests/test_polylattice.py",),
    ),
    # one check for both polygon builds
    Mutant(
        "polygon check: the vertex build refuses nothing",
        "        _check(X, Y, self.extension)\n",
        "",
        file=FUNCTIONS,
        tests=("tests/test_polylattice.py::TestRefusals",),
    ),
    # one class body for both bound streams
    Mutant(
        "bound streams: upper bounds checked as lower ones",
        '_worse, _sign = gt, ">"',
        '_worse, _sign = lt, ">"',
        file=REALS,
        tests=("tests/test_reals.py",),
    ),
    # the polygon entry: the converters' tents, trapezoids and surrogates
    Mutant(
        "polygon entry: lazy atoms cut at the support's start",
        "self._up_to(comps[-1][1] if comps else -1)",
        "self._up_to(comps[0][0] if comps else -1)",
        file=MEASURES,
        tests=("tests/test_measures.py::TestIntegrateZeroOutside",),
    ),
    Mutant(
        "polygon entry: lazy atoms cut at the last vertex",
        "self._up_to(comps[-1][1] if comps else -1)",
        "self._up_to(Fraction(p.lattice()[0][-1], p.lattice()[2]))",
        file=MEASURES,
        tests=("tests/test_cli.py::TestDemoSpecker",),
    ),
    Mutant(
        "lazy atoms: the one at floor(hi) dropped",
        "self.prefix(math.floor(hi) + 1)",
        "self.prefix(math.floor(hi))",
        file=MEASURES,
        tests=("tests/test_measures.py::TestIntegrateZeroOutside",),
    ),
    Mutant(
        "lazy atoms: read past the polygon's end",
        "self.prefix(math.floor(hi) + 1)",
        "self.prefix(math.floor(hi) + 2)",
        file=MEASURES,
        tests=("tests/test_measures.py::TestIntegrateZeroOutside",),
    ),
    Mutant(
        "lazy atoms: the point 0 taken for null",
        "x.denominator != 1 or x < 0",
        "x.denominator != 1 or x <= 0",
        file=MEASURES,
        tests=("tests/test_measures.py::TestLazyDiscrete",),
    ),
    Mutant(
        "vague_to_weak: the divergence test reads tm.of(N)",
        "m_apx = seq.total_mass(tm.of(p))",
        "m_apx = seq.total_mass(tm.of(N))",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak",),
    ),
    # the vague => weak chain's int comparisons against 2^-n, each at its bound
    Mutant(
        "tail bound: the stop strict",
        "        if gap <= one:",
        "        if gap < one:",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak::test_tail_stop_at_its_bound",),
    ),
    Mutant(
        "total-mass check: a spread at the bound passes",
        "        if d < e:  # hi - lo < 2^-(N-1)",
        "        if d <= e:  # hi - lo < 2^-(N-1)",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak::test_mass_spread_at_its_bound_fails",),
    ),
    Mutant(
        "vague_to_weak: a mass gap at the bound is divergence",
        "        if d > e:  # |m_apx - lim_mass| > 2^-p",
        "        if d >= e:  # |m_apx - lim_mass| > 2^-p",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak::test_limit_tail_at_its_bound",),
    ),
    Mutant(
        "surrogate: a limit tail at the bound accepted",
        "        if t >= u:",
        "        if t > u:",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak::test_limit_tail_at_its_bound",),
    ),
    Mutant(
        "surrogate: a negative tm.of(0) accepted",
        "    _check_index(i0)\n",
        "",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak::test_negative_mass_bound_index_refused",),
    ),
    Mutant(
        "uniformize: the tolerance's 65 taken as 64",
        "65 * q + 64 * p",
        "64 * q + 64 * p",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestUniformizer::test_tolerance_is_the_fraction_form",),
    ),
    Mutant(
        "surrogate: the tolerance's 3 taken as 2",
        "p + 3 * q",
        "p + 2 * q",
        file=CONVERGENCE,
        tests=(
            "tests/test_convergence.py::TestChainAgainstFractionForms::"
            "test_surrogate_tolerance_is_the_fraction_form",
        ),
    ),
    # a negative n shifts q: a bare p << n raises on it, which only a
    # converter run at N <= -3 shows
    Mutant(
        "scaled: p << n for every n",
        "(p << n, q) if n >= 0 else (p, q << -n)",
        "(p << n, q)",
        file=REALS,
        tests=("tests/test_convergence.py::TestChainAgainstFractionForms",),
    ),
    Mutant(
        "scaled: q shifted right for n < 0",
        "(p << n, q) if n >= 0 else (p, q << -n)",
        "(p << n, q) if n >= 0 else (p, q >> -n)",
        file=REALS,
        tests=("tests/test_reals.py::TestScaled",),
    ),
    Mutant(
        "scaled: n = 0 through the q branch",
        "(p << n, q) if n >= 0 else (p, q << -n)",
        "(p << n, q) if n > 0 else (p, q << -n)",
        file=REALS,
        tests=("tests/test_reals.py::TestScaled", "tests/test_convergence.py::TestChainAgainstFractionForms"),
        survives="at n = 0 both branches return (p, q)",
    ),
    # the fixed lengths of the modulus scan and of the total-mass check
    Mutant(
        "scan: the lookahead window one member short",
        "_SCAN_WINDOW = 24",
        "_SCAN_WINDOW = 23",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestScanModuli::test_scan_range_is_fixed",),
    ),
    Mutant(
        "scan: the last member 127",
        "_SCAN_MAX_N = 128",
        "_SCAN_MAX_N = 127",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestScanModuli::test_scan_range_is_fixed",),
    ),
    Mutant(
        "total-mass check: the window one member short",
        "_TM_WINDOW = 40",
        "_TM_WINDOW = 39",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestVagueToWeak::test_total_mass_window_is_fixed",),
    ),
    # the vague oracles: what they are asked, and the Specker one's answer
    Mutant(
        "uniformize: the tent's index taken for the surrogate",
        "n1 = oracle(psi).of(N + 1)",
        "n1 = oracle(tent).of(N + 1)",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestUniformizer",),
    ),
    Mutant(
        "specker oracle: the support's left end read",
        "u = comps[-1][1] if comps else 0",
        "u = comps[0][0] if comps else 0",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestSpecker",),
    ),
    # a closed set on its open complement, and what the pulls have shown
    Mutant(
        "pulled union: intervals n..k-1 merged on, not n..k",
        "for i in range(n, k + 1)",
        "for i in range(n, k)",
        file=SETS,
        tests=("tests/test_sets.py::TestPulledUnion", "tests/test_measures.py::TestOpenMassPulls"),
    ),
    Mutant(
        "pulled union: the carried union dropped",
        "union = merge_open(union + tuple(",
        "union = merge_open(tuple(",
        file=SETS,
        tests=("tests/test_sets.py::TestPulledUnion",),
    ),
    # dist_to_closed then reads an exact closed set's enumeration
    Mutant(
        "inner: the exact components ignored",
        "return self.components if self.components is not None else self.pulled_union(k)",
        "return self.pulled_union(k)",
        file=SETS,
        tests=("tests/test_sets.py::TestPiSetOnComplement", "tests/test_measures.py::TestOpenMassPulls"),
    ),
    # an exact set enumerated by its inner exhaustion, and its refusals
    Mutant(
        "exhaustion: components not shrunk by 2^-m",
        "delta = _pow2(m)\n        span = Fraction(2**m)",
        "delta = 0\n        span = Fraction(2**m)",
        file=SETS,
        tests=("tests/test_sets.py::TestExactEnumeration",),
    ),
    Mutant(
        "ball: a negative radius taken",
        "if radius < 0:",
        "if False:",
        file=SETS,
        tests=("tests/test_sets.py::TestMalformedSets",),
    ),
    # a value no Fraction takes refused as MalformedInterval by every build
    Mutant(
        "refusal: a repr that raises escapes the message",
        "        shown = repr(v)\n    except Exception:",
        "        shown = repr(v)\n    except TypeError:",
        file=REALS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "refusal: a float taken as its binary rational",
        "if not isinstance(v, float):",
        "if True:",
        file=REALS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "refusal: a tent end coerced by Fraction itself",
        "else _fraction(v)",
        "else Fraction(v)",
        file=FUNCTIONS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "ball: the centre taken as given",
        'radius); empty at radius 0."""\n        center, r = _fraction(center), _radius(radius)',
        'radius); empty at radius 0."""\n        r = _radius(radius)',
        file=SETS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "ball exterior: the centre taken as given",
        'already disjoint."""\n        center, r = _fraction(center), _radius(radius)',
        'already disjoint."""\n        r = _radius(radius)',
        file=SETS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    # one coercion, which refuses a float, for every public rational input
    Mutant(
        "refusal: a ball search's centre coerced by Fraction itself",
        "    center = _fraction(center)\n",
        "    center = Fraction(center)\n",
        file=MEASURES,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "refusal: a cut's level coerced by Fraction itself",
        "    r = _fraction(r)\n    if idx is None",
        "    r = Fraction(r)\n    if idx is None",
        file=CONVERGENCE,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "refusal: a witness level coerced by Fraction itself",
        "    r = _fraction(r)\n    comps = C.closed_components",
        "    r = Fraction(r)\n    comps = C.closed_components",
        tests=("tests/test_refusals.py::test_float_refused",),
    ),
    Mutant(
        "refusal: a Cauchy name's rational coerced by Fraction itself",
        'def from_rational(cls, q: RationalLike) -> "CauchyReal":\n        q = _fraction(q)',
        'def from_rational(cls, q: RationalLike) -> "CauchyReal":\n        q = Fraction(q)',
        file=REALS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "refusal: a neighbourhood's radius coerced by Fraction itself",
        "    s = _fraction(s)\n    if s <= 0:\n        raise ValueError(\"s must be a positive rational\")",
        "    s = Fraction(s)\n    if s <= 0:\n        raise ValueError(\"s must be a positive rational\")",
        file=SETS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    Mutant(
        "refusal: a ball code's radius coerced by Fraction itself",
        "center, radius = _fraction(center), _fraction(radius)",
        "center, radius = _fraction(center), Fraction(radius)",
        file=CODES,
        tests=("tests/test_refusals.py::test_float_refused",),
    ),
    Mutant(
        "ball: the radius taken as given",
        "    radius = _fraction(radius)\n",
        "",
        file=SETS,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    # killed by the exact components and by the complement's containment
    # check against pointwise disjointness; the avoided-stream test would
    # pull a set of points forever
    Mutant(
        "complement: built from the closed components themselves",
        "made.complement = SigmaSet._exact(complement_of_closed(made.closed_components))",
        "made.complement = SigmaSet._exact(made.closed_components)",
        file=SETS,
        tests=(
            "tests/test_sets.py::TestPiSetOnComplement::test_avoids_interval_is_disjointness",
            "tests/test_sets.py::TestPiSetOnComplement::test_no_stream_built",
        ),
    ),
    Mutant(
        "union masses: components not merged",
        "return self._union_mass(merge_open(comps), closed=False)",
        "return self._union_mass(comps, closed=False)",
        file=MEASURES,
        tests=("tests/test_measures.py::TestUnionMasses",),
    ),
    # the one cumulative-mass primitive under region_mass_open and mass_closed
    Mutant(
        "primitive: open and closed ends swapped (discrete)",
        "return below, upto, pre[-1], lw",
        "return upto, below, pre[-1], lw",
        file=MEASURES,
        tests=("tests/test_measures.py::TestUnionMasses",),
    ),
    Mutant(
        "primitive: open and closed ends swapped (density)",
        "at = iter(zip(below, upto) if closed else zip(upto, below))",
        "at = iter(zip(upto, below) if closed else zip(below, upto))",
        file=MEASURES,
        tests=("tests/test_measures.py::TestUnionMasses::test_masses_match_the_loops[density]",),
        survives="a density has no atoms, so (-inf, x) and (-inf, x] have one mass and either reading gives it",
    ),
    Mutant(
        "density primitive: right of the last vertex not clamped to the total",
        "pieces.append((math.inf, X[-1], total, 0, 0))",
        "pieces.append((math.inf, *pieces[-1][1:]))",
        file=MEASURES,
        tests=("tests/test_measures.py::TestPolyDensityMeasure",),
    ),
    # discretisation through the measure protocol
    Mutant(
        "cells: a density's err taken as 0",
        "return (xs, ws, 2 * q, M), pitch",
        "return (xs, ws, 2 * q, M), 0",
        file=MEASURES,
    ),
    Mutant(
        "cells: the default returns None instead of refusing",
        'self._unsupported("discretisation")',
        "return None",
        file=MEASURES,
    ),
    Mutant(
        "lattice: sides not brought to the common lattice",
        "vs if s == l else [v * (l // s) for v in vs]",
        "vs",
    ),
    Mutant(
        "lattice: the constructor's lx taken as 1",
        'object.__setattr__(self, "_lattice", (tuple(xs), tuple(ws), lx, lw))',
        'object.__setattr__(self, "_lattice", (tuple(xs), tuple(ws), 1, lw))',
        file=MEASURES,
        tests=("tests/test_measures.py",),
    ),
    Mutant(
        "total: read from the first lattice weight",
        "Fraction(sum(mu._lattice[1]), mu._lattice[3])",
        "Fraction(mu._lattice[1][0], mu._lattice[3])",
        file=MEASURES,
        tests=("tests/test_measures.py::TestDiscreteMeasure::test_masses",),
    ),
    Mutant(
        "density check: a negative ordinate accepted on the lattice",
        "if any(y < 0 for y in d.lattice()[1]):",
        "if any(y < -1 for y in d.lattice()[1]):",
        file=MEASURES,
        tests=("tests/test_refusals.py::test_hostile_values_refused_loudly",),
    ),
    # the measure protocol: null points from cumulative, and the pair check
    # on one merge
    Mutant(
        "null points: a point with mass taken as null",
        "return below == upto",
        "return below <= upto",
        file=MEASURES,
        tests=("tests/test_measures.py::TestDiscreteMeasure::test_null_test_matches_the_location_set",),
    ),
    Mutant(
        "pair check: meeting sets not refused",
        "        if len(comps) < len(U) + len(V):\n            return False\n",
        "",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable",),
    ),
    Mutant(
        "pair check: a union bounded on the left taken as dense",
        " or comps[0][0] is not None",
        "",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable",),
    ),
    Mutant(
        "pair check: a union bounded on the right taken as dense",
        " or comps[-1][1] is not None",
        "",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable",),
    ),
    Mutant(
        "pair check: a gap of positive length taken as dense",
        "r0 == l1",
        "r0 <= l1",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable",),
    ),
    Mutant(
        "null spheres: each grid's candidates in reverse order",
        "for K in _RADIUS_GRIDS for i in range(K))",
        "for K in _RADIUS_GRIDS for i in reversed(range(K)))",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable",),
    ),
    Mutant(
        "protocol: the default cumulative returns None",
        'self._unsupported("exact region masses")',
        "return None",
        file=MEASURES,
        tests=("tests/test_measures.py", "tests/test_convergence.py"),
    ),
    # the int reader of discrete files and its lazy atoms
    Mutant(
        "reader: negative-denominator sign flip dropped",
        "            if q < 0:\n                return -p, -q\n",
        "",
        file=FILEFORMAT,
        tests=("tests/test_fileformat.py",),
    ),
    Mutant(
        "reader: a zero weight accepted",
        "if c <= 0:",
        "if c < 0:",
        file=FILEFORMAT,
        tests=("tests/test_fileformat.py",),
    ),
    # eager, so that only the oracle test, which never looks at vars(), runs
    Mutant(
        "lazy atoms: built from the unmerged rows",
        '        mu = object.__new__(cls)\n        object.__setattr__(mu, "_lattice"',
        "        mu = object.__new__(cls)\n"
        '        object.__setattr__(mu, "atoms", tuple(zip(map(Fraction, keys, [lx] * len(keys)), map(Fraction, iws, [lw] * len(iws)))))\n'
        '        object.__setattr__(mu, "_lattice"',
        file=MEASURES,
        tests=("tests/test_fileformat.py::TestIntReader::test_discrete_files_match_oracle",),
    ),
    Mutant(
        "lazy atoms: rebuilt on every read, never kept",
        "        object.__setattr__(obj, self.name, value)\n        return value",
        "        return value",
        file=FUNCTIONS,
        tests=("tests/test_fileformat.py",),
    ),
    # a drifting family built on its lattice, and the cover search in ints
    Mutant(
        "family: the drift added in the location lattice's unit 1, not lx",
        "[(k << n) + d * lx for k, d in zip(keys, drifts)]",
        "[(k << n) + d for k, d in zip(keys, drifts)]",
        file=CORPORA,
        tests=("tests/test_corpora.py::TestDriftingAtomFamily::test_members_match_the_constructor",),
    ),
    Mutant(
        "family: atoms whose keys meet not merged",
        "if xs and k == xs[-1]:",
        "if False:",
        file=MEASURES,
        tests=("tests/test_corpora.py::TestDriftingAtomFamily::test_members_match_the_constructor",),
    ),
    Mutant(
        "cover search: each lattice grid's radii in reverse order",
        "m, D = 4 * v + 11 * u, 16 * v",
        "m, D = 4 * v + 11 * (v - u), 16 * v",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable::test_first_cover_balls_match_the_walk",),
    ),
    Mutant(
        "cover search: a point on the sphere taken as in the ball",
        "if abs(p * (k * D // 2) * b - a * q * D) < p * m * b:",
        "if abs(p * (k * D // 2) * b - a * q * D) <= p * m * b:",
        file=MEASURES,
        tests=("tests/test_measures.py::TestAlmostDecidable::test_point_on_a_sphere_is_outside_its_ball",),
    ),
    Mutant(
        "density primitive: the table walked forward only",
        "            while i and pieces[i][1] > x:\n                i -= 1\n",
        "",
        file=MEASURES,
        tests=("tests/test_measures.py::TestUnionMasses::test_cumulative_points_in_any_order",),
    ),
    # the certificate checks: one window, one cut test, one pass rule
    Mutant(
        "report: passed when any row passes",
        "return bool(self.rows) and all(r.ok for r in self.rows)",
        "return bool(self.rows) and any(r.ok for r in self.rows)",
        file=CONVERGENCE,
        tests=("tests/test_cli.py",),
    ),
    Mutant(
        "cut: r equal to the limit's value taken as in the cut",
        "r >= cut if above else r <= cut",
        "r >= cut if above else r < cut",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestPortmanteau",),
    ),
    Mutant(
        "window: the above comparison flipped",
        "q > bound if above else q < bound",
        "q < bound if above else q < bound",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestPortmanteau",),
    ),
    Mutant(
        "window: the last member dropped",
        "for n in range(idx, idx + window + 1):\n        q = quantity(n)",
        "for n in range(idx, idx + window):\n        q = quantity(n)",
        file=CONVERGENCE,
        tests=("tests/test_convergence.py::TestCheckModulus",),
    ),
    # the CLI
    Mutant(
        "input: a path under a non-directory is a read error",
        "isinstance(exc, (FileNotFoundError, NotADirectoryError))",
        "isinstance(exc, FileNotFoundError)",
        file=CLI,
        tests=("tests/test_cli.py",),
    ),
    Mutant(
        "input: the resolver lets a KeyError through",
        "    except KeyError:\n        where = ",
        "    except ():\n        where = ",
        file=CLI,
        tests=("tests/test_cli.py::TestMainProperty",),
    ),
    Mutant(
        "names: a misspelled specker prefix accepted",
        'if family == "specker":',
        'if family.startswith("specker"):',
        file=CORPORA,
        tests=("tests/test_corpora.py::TestSpeckerCorpus", "tests/test_cli.py::TestMainProperty"),
    ),
    Mutant(
        "verify: witness mode accepts a certificate",
        'if args.certificate and args.mode in ("witness", "vague-to-weak"):',
        'if args.certificate and args.mode in ("vague-to-weak",):',
        file=CLI,
        tests=("tests/test_cli.py::TestMainProperty",),
    ),
    Mutant(
        "demo: the short-enumeration check off by one",
        "if horizon < idx:",
        "if horizon < idx - 1:",
        file=CLI,
        tests=("tests/test_cli.py::TestDemoSpecker",),
    ),
    Mutant(
        "decimal: an integer's digits from the remainder branch",
        'str(rest * 10**digits // q.denominator).rjust(digits, "0") if rest else "0" * digits',
        'str(rest * 10**digits // q.denominator).rjust(digits, "0")',
        file=CLI,
        tests=("tests/test_cli.py::TestHelpers",),
    ),
)


def _run_tests(workdir: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """(passed, last line of pytest's output) for ``tests`` run in ``workdir``."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else done.stderr.strip()


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
        )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(workdir: Path, m: Mutant) -> Optional[str]:
    """Apply ``m`` in ``workdir``; the error, if its text is not found once."""
    path = workdir / m.file
    text = path.read_text()
    count = text.count(m.old)
    if count != 1:
        return f"replacement text found {count} times in {m.file}"
    path.write_text(text.replace(m.old, m.new))
    return None


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="effmeas-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        ok, last = _run_tests(base, tuple(sorted({t for m in MUTANTS for t in m.tests})))
        print(f"{'unmutated':<60} {'pass' if ok else 'FAIL'}  {last}")
        if not ok:
            return 1
        for i, m in enumerate(MUTANTS):
            work = Path(tmp) / f"m{i}"
            _copy(work)
            err = _apply(work, m)
            if err:
                print(f"{m.name:<60} ERROR {err}")
                bad += 1
                continue
            t0 = time.perf_counter()
            survived, last = _run_tests(work, m.tests)
            shutil.rmtree(work)
            verdict = "survived" if survived else "killed"
            expected = "survived" if m.survives else "killed"
            mark = "" if verdict == expected else "  UNEXPECTED"
            print(f"{m.name:<60} {verdict}{mark} ({time.perf_counter() - t0:.0f} s)  {last}")
            if survived and m.survives:
                print(f"{'':<60} equivalent: {m.survives}")
            bad += verdict != expected
    print(f"{len(MUTANTS)} mutants, {bad} not as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
