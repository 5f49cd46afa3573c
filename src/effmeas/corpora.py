"""Builtin measure-sequence families and their analytic certificate oracles.

Each corpus bundles a sequence, its limit, and closed-form moduli derived
from the family's geometry (atom drift rates or support escape), entirely
independent of the certified-scan constructions they are used to test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .convergence import (
    MeasureSeq,
    Modulus,
    TotalMassModulus,
    VagueOracle,
    _check_index,
    specker_sequence,
)
from .errors import UnsupportedMeasureClass
from .functions import CONST, ZERO, PolyFunc, constant_func
from .measures import AlmostDecidablePair, DiscreteMeasure, Measure, _atom_lattice
from .reals import _exp_above, _first_below


@dataclass
class Corpus:
    """A builtin family with analytic moduli."""

    name: str
    seq: MeasureSeq
    limit: Measure
    vague_oracle: VagueOracle
    weak_oracle: Optional[Callable[[PolyFunc], Modulus]] = None
    tm: Optional[TotalMassModulus] = None
    ad_modulus: Optional[Callable[[AlmostDecidablePair], Modulus]] = None


# ---------------------------------------------------------------------------
# drifting-atom families: fixed weights, locations x_i + d_i * 2^-n


def _drifting_member(lattice, n: int) -> DiscreteMeasure:
    """x_i + d_i 2^-n = (k_i 2^n + d_i lx) / (lx 2^n), the weights unchanged."""
    keys, drifts, ws, lx, lw = lattice
    return DiscreteMeasure._from_lattice([(k << n) + d * lx for k, d in zip(keys, drifts)], ws, lx << n, lw)


class DriftingAtomFamily(MeasureSeq):
    """mu_n = sum_i w_i delta_{x_i + d_i 2^-n}, every member of mass ``total``.

    The limit and every member are built on one ``int`` lattice, x_i = k_i/lx
    and w_i = ws_i/lw.
    """

    def __init__(self, atoms: Sequence[tuple[Fraction, Fraction, int]]):
        """``atoms``: (limit location, weight, drift flag 0/1).  An atom is refused
        as ``DiscreteMeasure`` refuses it (:func:`~effmeas.measures._atom_lattice`),
        and a drift flag not 0 or 1 with ``ValueError``."""
        atoms = list(atoms)
        keys, ws, lx, lw = _atom_lattice([(x, w) for x, w, _ in atoms])
        drifts = [d for _, _, d in atoms]
        if any(d not in (0, 1) for d in drifts):
            raise ValueError("drift flags must be 0 or 1")
        self.total = Fraction(sum(ws), lw)
        self._lattice = (keys, list(map(int, drifts)), ws, lx, lw)
        # over a tuple, not a bound method: no cycle waits for the collector
        self.member = partial(_drifting_member, self._lattice)
        super().__init__(self.member)

    def total_mass(self, n: int) -> Fraction:
        _check_index(n)
        return self.total

    def mass_spread(self, lo: int, hi: int) -> tuple[Fraction, Fraction]:
        _check_index(lo)
        return self.total, self.total

    def limit(self) -> DiscreteMeasure:
        keys, _, ws, lx, lw = self._lattice
        return DiscreteMeasure._from_lattice(keys, ws, lx, lw)

    def integral_oracle(self, p: PolyFunc) -> Modulus:
        """|int p dmu_n - int p dmu| <= total * L * 2^-n, L the Lipschitz
        constant of the polygon ``p``, which may be zero-outside (the vague
        oracle) or any bounded polygon (the weak one)."""
        L, total = p.lipschitz(), self.total
        if L == 0 or total == 0:
            return Modulus.constant(0)
        # with lw = L * total, 2^-n < 2^-N / lw iff lw < 2^(n - N): the
        # index is N + e floored at 0, e the least integer with lw < 2^e
        e = _exp_above(L.numerator * total.numerator, L.denominator * total.denominator)
        return Modulus(lambda N: max(0, N + e))

    def ad_modulus(self, pair: AlmostDecidablePair) -> Modulus:
        """Exact-stability index: drift below every boundary clearance.

        Once every drifting atom's displacement is smaller than its
        distance to each finite endpoint of the pair's open part, member
        and limit masses agree exactly on the set, so any precision is met.
        """
        comps = pair.U.components
        if comps is None:
            raise UnsupportedMeasureClass("need exact components")
        ends = [e for c in comps for e in c if e is not None]
        keys, drifts, _, lx, _ = self._lattice
        locs = [Fraction(k, lx) for k, d in zip(keys, drifts) if d]
        gaps = [abs(x - e) for x in locs for e in ends]
        if not gaps:
            return Modulus.constant(0)
        delta = min(gaps)
        if delta == 0:
            raise UnsupportedMeasureClass(
                "pair boundary touches a drifting atom's limit location"
            )
        idx = _first_below(delta)
        return Modulus.constant(idx)

    def corpus(self, name: str) -> Corpus:
        """This family as a builtin corpus: analytic moduli, constant mass."""
        return Corpus(
            name=name,
            seq=self,
            limit=self.limit(),
            vague_oracle=self.integral_oracle,
            weak_oracle=self.integral_oracle,
            tm=TotalMassModulus.constant(0),
            ad_modulus=self.ad_modulus,
        )


def deltashrink() -> Corpus:
    return DriftingAtomFamily([(Fraction(0), Fraction(1), 1)]).corpus("deltashrink")


def mixture(
    w1: Fraction = Fraction(1, 2),
    w2: Fraction = Fraction(1, 2),
    a: Fraction = Fraction(0),
    b: Fraction = Fraction(1),
) -> Corpus:
    return DriftingAtomFamily([(a, w1, 0), (b, w2, 1)]).corpus("mixture")


def deltadrift(loc: Fraction = Fraction(1)) -> Corpus:
    """delta at loc + 2^-n, converging to delta at loc."""
    return DriftingAtomFamily([(loc, Fraction(1), 1)]).corpus("deltadrift")


# ---------------------------------------------------------------------------
# the escaping-atom family: vaguely null, not weakly convergent


def _deltan_vague_oracle(p: PolyFunc) -> Modulus:
    """Constant index: once n clears sup supp p, all integrals vanish."""
    if p.extension != "zero-outside":
        raise UnsupportedMeasureClass("need a compactly supported function")
    comps = p.support_components()
    if not comps:
        return Modulus.constant(0)
    hi = comps[-1][1]
    return Modulus.constant(max(0, hi.__ceil__()) + 1)


def deltan() -> Corpus:
    return Corpus(
        name="deltan",
        seq=MeasureSeq(lambda n: DiscreteMeasure._from_lattice((n,), (1,), 1, 1)),
        limit=DiscreteMeasure.zero(),
        vague_oracle=_deltan_vague_oracle,
        weak_oracle=None,
        tm=TotalMassModulus.constant(0),
        ad_modulus=None,
    )


# ---------------------------------------------------------------------------
# Specker enumerations


def specker_enumeration(name: str):
    if name == "identity":
        return iter(itertools.count())
    if name == "squares":
        return (i * i for i in itertools.count())
    raise KeyError(f"unknown builtin enumeration {name!r}")


def specker(enum_name: str) -> Corpus:
    """The Specker sequence on a builtin enumeration, with its lazy limit and
    closed-form vague oracle; no weak oracle, mass data or ball moduli."""
    sp = specker_sequence(specker_enumeration(enum_name))
    return Corpus(f"specker:{enum_name}", sp.seq, sp.limit_measure(), sp.vague_modulus)


# ---------------------------------------------------------------------------
# registries


def corpus_by_name(name: str, **params) -> Corpus:
    """The builtin corpus ``name``: a family below, ``specker`` or
    ``specker:ENUM``; any other name raises ``KeyError``."""
    family, colon, enum = name.partition(":")
    if family == "specker":
        return specker(enum if colon else "identity", **params)
    table = {
        "deltashrink": deltashrink,
        "deltan": deltan,
        "mixture": mixture,
        "deltadrift": deltadrift,
    }
    if name not in table:
        raise KeyError(f"unknown builtin corpus {name!r}")
    return table[name](**params)


def builtin_measure(name: str) -> Measure:
    table = {
        "delta0": lambda: DiscreteMeasure.point(Fraction(0)),
        "delta1": lambda: DiscreteMeasure.point(Fraction(1)),
        "zero": DiscreteMeasure.zero,
        "halfhalf": lambda: DiscreteMeasure(
            ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)))
        ),
    }
    if name not in table:
        raise KeyError(f"unknown builtin measure {name!r}")
    return table[name]()


def builtin_function(name: str):
    """Named test functions for the CLI.

    Returns (poly, kind) where kind is "supported" or "bounded".
    """
    if name == "constant-one":
        return constant_func(1), "bounded"
    if name == "hat":  # (0, 0), (5/4, 1), (5/2, 0)
        return PolyFunc.from_ints((0, 5, 10), (0, 1, 0), 4, 1, ZERO), "supported"
    if name == "clamped-identity":
        return PolyFunc.from_ints((-1, 1), (-1, 1), 1, 1, CONST), "bounded"
    if name == "zero":
        return PolyFunc.from_ints((0, 1), (0, 0), 1, 1, ZERO), "supported"
    raise KeyError(f"unknown builtin function {name!r}")
