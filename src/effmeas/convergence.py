"""Moduli, the convergence converters, and the certificate checks.

A modulus maps a precision exponent N to an index beyond which the target
sequence stays within 2^-N of its limit.  Converters in this module build
new moduli out of supplied ones; convergence of the input sequence is
always caller-asserted (it is undecidable), and every produced certificate
is meant to be re-checked on concrete data, on a window of members past
its index: a modulus or an eps-function (|a_n - a| < 2^-N) by
:func:`check_modulus`, a limsup or liminf witness (mu_n(C) < r or
mu_n(U) > r) by :func:`check_cut`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import (
    ContractViolation,
    DivergenceDetected,
    DuplicateEnumeration,
    SearchExhausted,
    show,
)
from .functions import (
    PolyFunc,
    SupportedFunc,
    ZERO,
    _window_lattice,
    approx_polygonal,
    indicator_approx,
    tent_function,
)
from .measures import DiscreteMeasure, LazyDiscreteMeasure, Measure, integrate_named
from .reals import CauchyReal, LowerReal, _fraction, _pow2, _scaled
from .streams import Fuel, Stream


class MeasureSeq:
    """A uniformly given sequence of measures, memoized by index.

    Members are indexed from 0; a negative index raises ``IndexError``.
    ``total_mass(n)`` is the one place member masses are read.  Here it
    builds member n and returns its exact mass; a family that knows its
    masses in closed form overrides it and builds no member.
    """

    def __init__(self, at: Callable[[int], Measure]):
        self._at = at
        self._memo: dict[int, Measure] = {}

    def __getitem__(self, n: int) -> Measure:
        memo = self._memo
        if n in memo:
            return memo[n]
        _check_index(n)
        mu = memo[n] = self._at(n)
        return mu

    def total_mass(self, n: int) -> Fraction:
        """mu_n(R), exact; ``UnsupportedMeasureClass`` if the member has none."""
        mu = self[n]
        m = mu.exact_total_mass()
        if m is None:
            mu._unsupported("exact total mass")
        return m

    def mass_spread(self, lo: int, hi: int) -> tuple[Fraction, Fraction]:
        """(min, max) of ``total_mass(n)`` over lo <= n <= hi, for lo <= hi.

        Reads the masses in index order; a family that knows its masses
        overrides it.
        """
        ms = [self.total_mass(n) for n in range(lo, hi + 1)]
        return min(ms), max(ms)


def _check_index(n: int) -> None:
    if n < 0:
        raise IndexError(f"measure sequences start at index 0, got {n}")


@dataclass
class Modulus:
    """N -> index certificate: n >= of(N) implies |a_n - a| < 2^-N."""

    fn: Callable[[int], int]
    _memo: dict = field(default_factory=dict, repr=False)

    def of(self, N: int) -> int:
        if N not in self._memo:
            self._memo[N] = int(self.fn(N))
        return self._memo[N]

    @classmethod
    def constant(cls, n0: int) -> "Modulus":
        return cls(lambda _N: n0)

    @classmethod
    def from_table(cls, table: dict[int, int]) -> "Modulus":
        def fn(N):
            if N in table:
                return table[N]
            usable = [i for k, i in table.items() if k >= N]
            if not usable:
                raise ContractViolation(
                    f"no table entry usable for precision {N}", witness=N
                )
            return min(usable)

        return cls(fn)


TotalMassModulus = Modulus


@dataclass(frozen=True)
class CheckRow:
    N: int
    index: int
    checked_n: int
    quantity: Fraction
    bound: Fraction
    ok: bool


@dataclass
class CheckReport:
    rows: list[CheckRow]

    @property
    def passed(self) -> bool:
        """True when some row was checked and every row passed: an empty
        report vouches for nothing, so it fails."""
        return bool(self.rows) and all(r.ok for r in self.rows)


def _window_rows(
    N: int,
    idx: int,
    window: int,
    quantity: Callable[[int], Fraction],
    bound: Fraction,
    above: bool = False,
) -> list[CheckRow]:
    """One row per member idx .. idx + window; a row passes when its
    quantity is strictly below ``bound``, or strictly above with ``above``.

    A negative ``window`` would check no member: refuse it.
    """
    if window < 0:
        raise ValueError(f"check window must be nonnegative, got {window}")
    rows = []
    for n in range(idx, idx + window + 1):
        q = quantity(n)
        rows.append(CheckRow(N, idx, n, q, bound, q > bound if above else q < bound))
    return rows


def _limit_value_and_error(limit, prec: int) -> tuple[Fraction, Fraction]:
    if isinstance(limit, CauchyReal):
        return limit.approx(prec), _pow2(prec - 1)
    return _fraction(limit), Fraction(0)


def check_modulus(
    values: Callable[[int], Fraction],
    limit: Union[Fraction, int, CauchyReal],
    m: Modulus,
    Ns: Sequence[int],
    fuel: Fuel,
) -> CheckReport:
    """Validate a modulus against exactly computed sequence values.

    For each N the indices of(N) .. of(N)+budget are sampled; a row passes
    when its quantity, |a_n - limit| plus the error of the limit's
    approximation (0 for an exact limit), is below 2^-N.
    """
    rows: list[CheckRow] = []
    for N in Ns:
        lim, lim_err = _limit_value_and_error(limit, N + 3)
        rows += _window_rows(
            N, m.of(N), fuel.budget, lambda n: abs(Fraction(values(n)) - lim) + lim_err, _pow2(N)
        )
    return CheckReport(rows)


def check_cut(
    N: int,
    idx: Optional[int],
    r: Union[Fraction, int],
    cut: Fraction,
    values: Callable[[int], Fraction],
    window: int,
    above: bool = False,
) -> CheckReport:
    """Validate a cut witness: values(n) < r for idx <= n <= idx + window,
    or values(n) > r with ``above``.

    ``cut`` is the limit's value, mu(C) of a closed C for a limsup witness or
    mu(U) of an open U for a liminf one (``above``), and r must lie strictly
    past it on its side.  Otherwise, or when ``idx`` is ``None`` (no index
    yet), the one row ``N, -1, -1, r, cut`` fails.
    """
    r = _fraction(r)
    if idx is None or (r >= cut if above else r <= cut):
        return CheckReport([CheckRow(N, -1, -1, r, cut, False)])
    return CheckReport(_window_rows(N, idx, window, values, r, above))


# ---------------------------------------------------------------------------
# modulus construction by certified scanning


def _scan_for_index(
    value_at: Callable[[int], Fraction],
    err: Fraction,
    limit_value: Fraction,
    limit_err: Fraction,
    N: int,
    *,
    max_n: int,
    window: int,
) -> int:
    """Smallest index whose whole lookahead window is certified 2^-N-close.

    The window of a candidate n0 is n0 .. min(max_n, n0 + window).  Each
    window is checked from its right end.  When member n fails, every
    candidate n0' with n0 <= n0' <= n holds n in its window (n <= n0 +
    window <= n0' + window), so all of them fail and the scan jumps to
    n + 1.  The first window that passes is therefore the first one a
    forward scan over n0 = 0, 1, ... would accept, and every member read
    here is one that scan reads too.  A skipped member is never built, so
    a member whose evaluation would raise no longer does when it is
    skipped.

    Raises DivergenceDetected when, at the end of the scan, the deviation
    from the claimed limit is still certified to be at least 2^-N: that
    refutes every candidate index within the scanned range (it cannot
    refute convergence itself, which is the caller's assertion).
    """
    bound = _pow2(N)
    slack = err + limit_err
    devs: dict[int, Fraction] = {}

    def dev(n: int) -> Fraction:
        if n not in devs:
            devs[n] = abs(value_at(n) - limit_value)
        return devs[n]

    n0 = 0
    while n0 <= max_n:
        failed = next(
            (n for n in range(min(max_n, n0 + window), n0 - 1, -1)
             if dev(n) + slack >= bound),
            None,
        )
        if failed is None:
            return n0
        n0 = failed + 1
    tail_dev = dev(max_n)
    if tail_dev - slack >= bound:
        raise DivergenceDetected(
            "divergence detected: certified deviation "
            f"{show(tail_dev)} at index {max_n} is not below 2^-{N}",
            witness=(N, max_n, tail_dev),
        )
    raise SearchExhausted(
        f"insufficient name progress: no stable index below {max_n}"
    )


_SCAN_MAX_N = 128  # the modulus scan reads members 0 .. _SCAN_MAX_N
_SCAN_WINDOW = 24  # and looks this many members past each candidate index


def _integral_modulus(seq: MeasureSeq, limit: Measure, f) -> Modulus:
    """The scanned modulus of the integrals of ``f`` (either kind of name)."""

    def of(N: int) -> int:
        prec = N + 3
        lim = integrate_named(f, limit, prec)
        return _scan_for_index(
            lambda n: integrate_named(f, seq[n], prec),
            _pow2(prec),
            lim,
            _pow2(prec),
            N,
            max_n=_SCAN_MAX_N,
            window=_SCAN_WINDOW,
        )

    return Modulus(of)


def weak_modulus(seq: MeasureSeq, limit: Measure, f_name, B: int) -> Modulus:
    """A modulus for the integrals of a bounded named function.

    ``f_name`` is a compact-open name; ``B`` bounds |f|.  Built from
    certified integration plus tail bounds; raises DivergenceDetected when
    the sequence provably fails to track the claimed limit integral.
    """
    return _integral_modulus(seq, limit, (f_name, B))


def vague_modulus(seq: MeasureSeq, limit: Measure, f: SupportedFunc) -> Modulus:
    """A modulus for the integrals of a compactly supported named function."""
    return _integral_modulus(seq, limit, f)


# A vague oracle: a modulus for the integrals of each zero-outside polygon.
# The converters hand it only polygons they build (tents, indicator
# trapezoids, surrogates); uniformize_vague extends it to any named f.
VagueOracle = Callable[[PolyFunc], Modulus]


# ---------------------------------------------------------------------------
# the uniformizer (vague convergence)


def uniformize_vague(
    seq: MeasureSeq,
    limit: Measure,
    oracle: VagueOracle,
    f: SupportedFunc,
    N: int,
) -> int:
    """Uniform modulus for an arbitrary compactly supported named function.

    The uniform notion of vague convergence, built from the non-uniform
    one: ``oracle`` answers only for zero-outside polygons, and this is the
    one route from those per-polygon moduli to a named ``f``.
    Dominating-tent construction: a plateau-1 tent T over the integer hull
    of supp f caps the local mass, a polygonal surrogate psi is taken
    2^-(N+2)/(1 + int T dmu_n0)-close to f, and the oracle's index for psi
    at precision N+1 closes the 2^-(N+2) + 2^-(N+1) + 2^-(N+2) = 2^-N
    budget.  The tent plateau is widened by one unit on each side so that
    it also covers the surrogate's support.
    """
    l, u = f.hull()
    F = l.__floor__() - 1
    C = u.__ceil__() + 1
    tent = tent_function((F, C))
    n0 = oracle(tent).of(1)
    # 2^-(N+2) / (1 + p/q + 2^-6), p/q the tent's integral, is 2^(4-N) q / (65 q + 64 p)
    p, q = seq[n0].integrate_zero_outside(tent, 6).as_integer_ratio()
    tol = Fraction(*_scaled(q, 65 * q + 64 * p, 4 - N))
    psi = approx_polygonal(f, tol)
    n1 = oracle(psi).of(N + 1)
    return max(n0, n1)


# ---------------------------------------------------------------------------
# the Specker-style demonstration sequence


_ENUM_BITS = 20  # value a weighs 2^-(a+1): at most 128 KiB each in _pow2's memo of 256


class SpeckerSequence:
    """mu_n = sum_{i<=n} 2^-(a_i+1) delta_i for an injective enumeration a.

    Vague moduli for compactly supported functions are exactly constant
    beyond the support window, while the limit's total mass is only ever
    revealed through strictly improving lower bounds.
    """

    def __init__(self, enum_source):
        seen: set[int] = set()

        def check(i: int, prefix: list):
            v = prefix[i]
            if not isinstance(v, (int, Fraction)) or v != (a := int(v)) or a < 0:
                raise DuplicateEnumeration(f"enumeration value {show(v)} is not a natural number")
            if a.bit_length() > _ENUM_BITS:
                where = f"of {a.bit_length()} bits at position {i}"
                raise DuplicateEnumeration(f"enumeration value {where} is above the {_ENUM_BITS}-bit cap")
            if a in seen:
                raise DuplicateEnumeration(f"duplicate enumeration of {show(a)} at position {i}")
            seen.add(a)

        self.enum = Stream(enum_source, validate=check)
        # members read the enumeration, not self: no cycle through the sequence
        self.seq = MeasureSeq(functools.partial(_specker_member, self.enum))

    def weight(self, i: int) -> Fraction:
        return _pow2(int(self.enum[i]) + 1)

    def vague_modulus(self, p: PolyFunc) -> Modulus:
        """Constant index 1 + the least natural number >= sup supp p (1 for
        the zero polygon): every atom at or beyond it is outside supp p."""
        comps = p.support_components()
        u = comps[-1][1] if comps else 0
        return Modulus.constant(max(0, u.__ceil__()) + 1)

    def vague_oracle(self) -> VagueOracle:
        return self.vague_modulus

    def limit_measure(self) -> LazyDiscreteMeasure:
        return LazyDiscreteMeasure(self.weight)

    def total_mass_lower(self) -> LowerReal:
        return LowerReal(
            lambda k: sum((self.weight(i) for i in range(k + 1)), Fraction(0))
        )


def _specker_member(enum: Stream, n: int) -> DiscreteMeasure:
    """mu_n of the Specker sequence on the enumeration ``enum``, on the constructor's
    lattice: atom i at i/1 weighs 2^-(a_i+1) = 2^(A-a_i) / 2^(A+1), A the largest a_i."""
    a = [int(enum[i]) for i in range(n + 1)]
    A = max(a)
    return DiscreteMeasure._from_lattice(range(n + 1), [1 << (A - v) for v in a], 1, 1 << (A + 1))


def specker_sequence(enum_source) -> SpeckerSequence:
    return SpeckerSequence(enum_source)


# ---------------------------------------------------------------------------
# vague => weak machinery


_TM_NS = (2, 4, 6)  # the precisions N the total-mass check reads
_TM_WINDOW = 40  # at each, members of(N) .. of(N) + _TM_WINDOW


def validate_total_mass_modulus(seq: MeasureSeq, tm: TotalMassModulus) -> None:
    """Refute an invalid total-mass modulus via a Cauchy-condition violation.

    A valid modulus forces |mu_n(R) - mu_m(R)| < 2^-(N-1) for n, m >= of(N);
    an exact violation inside the window is a certified contract failure.
    Some pair in the window of(N) .. of(N) + _TM_WINDOW violates it iff the
    largest and smallest mass there differ by at least 2^-(N-1), so a
    passing window costs one pass.  The window's spread comes from
    ``seq.mass_spread`` and its masses from ``seq.total_mass``, so a family
    that knows its masses builds no member and compares no mass here, and a
    negative index from ``tm`` raises ``IndexError``.  The spread is taken
    once per distinct window start, however many N share it (a constant
    modulus gives one window for every N).  A failing window reports the
    first pair in window order: the first n1 whose mass lies 2^-(N-1) or
    more from the window's max or min, then the first n2 that far from n1.
    """
    spread: dict[int, tuple[Fraction, Fraction]] = {}  # window start -> (min, max)
    for N in _TM_NS:
        idx = tm.of(N)
        if idx not in spread:
            spread[idx] = seq.mass_spread(idx, idx + _TM_WINDOW)
        lo, hi = spread[idx]
        d, e = _scaled(hi.numerator * lo.denominator - lo.numerator * hi.denominator,
                       hi.denominator * lo.denominator, N - 1)
        if d < e:  # hi - lo < 2^-(N-1)
            continue
        b = _pow2(N - 1)
        ns = range(idx, idx + _TM_WINDOW + 1)
        ms = [seq.total_mass(n) for n in ns]
        n1, m1 = next((n, m) for n, m in zip(ns, ms) if hi - m >= b or m - lo >= b)
        n2, m2 = next((n, m) for n, m in zip(ns, ms) if abs(m1 - m) >= b)
        raise ContractViolation(
            "total-mass modulus contract failure: "
            f"|mu_{n1}(R) - mu_{n2}(R)| = {show(abs(m1 - m2))} >= 2^-{N - 1}",
            witness=(N, n1, n2, abs(m1 - m2)),
        )


_TAIL_MAX_DOUBLINGS = 24  # tent half-widths 1, 2, 4, ... tail_mass_bound tries


def tail_mass_bound(
    seq: MeasureSeq,
    tm: TotalMassModulus,
    oracle: VagueOracle,
    N: int,
) -> tuple[int, int]:
    """(a, n0) with mu_n(R \\ [-a, a]) < 2^-N for all n >= n0.

    Compares the limiting total mass against limiting integrals of wide
    tents; once the gap is certified below 2^-(N+2) the tent support wins.
    """
    prec = N + 5
    i_m = tm.of(prec)
    mp, mq = seq.total_mass(i_m).as_integer_ratio()
    a = 1
    for _ in range(_TAIL_MAX_DOUBLINGS):
        tent = PolyFunc.from_ints((-a - 1, -a, a, a + 1), (0, 1, 1, 0), 1, 1)
        mod = oracle(tent)
        j = mod.of(prec)
        lp, lq = seq[j].integrate_zero_outside(tent, prec).as_integer_ratio()
        # m - l + 4 * 2^-prec <= 2^-(N+2), m = mp/mq the mass and l = lp/lq the
        # tent's integral, iff m - l <= 2^-(N+3)
        gap, one = _scaled(mp * lq - lp * mq, mq * lq, N + 3)
        if gap <= one:
            n0 = max(tm.of(N + 3), mod.of(N + 3))
            return a + 1, n0
        a *= 2
    raise SearchExhausted("search exhausted: no tail-capturing window found")


def polygonal_surrogate(
    f_name,
    B: int,
    N: int,
    seq: MeasureSeq,
    limit: Measure,
    tm: TotalMassModulus,
    oracle: VagueOracle,
) -> tuple[int, int, PolyFunc]:
    """(a, n1, psi): a computably compactly supported polygonal stand-in.

    psi tracks f within tol on [-a+1, a-1] and ramps to zero, so the
    integral error splits into tol * mass inside and (2B+1) * tail outside;
    both budgets are pinned to 2^-(N+1).
    """
    B = int(B)
    Nt = N + 2 + (2 * B + 1).bit_length()
    a1, n1 = tail_mass_bound(seq, tm, oracle, Nt)
    W = a1 + 1
    i0 = tm.of(0)
    _check_index(i0)
    # 2^-(N+1) / (p/q + 2 + 1), p/q the largest mass, is 2^-(N+1) q / (p + 3 q)
    p, q = seq.mass_spread(0, i0)[1].as_integer_ratio()
    tol = Fraction(*_scaled(q, p + 3 * q, -(N + 1)))
    X, Y, dx, dy = _window_lattice(f_name, -a1, a1, tol)
    psi = PolyFunc.from_ints([-W * dx, *X, W * dx], [0, *Y, 0], dx, dy, ZERO)

    if limit.exact_total_mass() is not None:
        below, upto, total, lw = limit.cumulative([-a1, a1], 1)
        tail = total - (below[1] - upto[0])  # lw * mu(R \ (-a1, a1))
        t, u = _scaled(tail, lw, Nt)
        if t >= u:
            raise ContractViolation(
                "limit measure carries more tail mass than the certified bound",
                witness=(a1, Fraction(tail, lw)),
            )
    return W, n1, psi


def vague_to_weak(
    seq: MeasureSeq,
    limit: Measure,
    tm: TotalMassModulus,
    oracle: VagueOracle,
    f_name,
    B: int,
    N: int,
    *,
    validate_tm: bool = True,
) -> int:
    """Weak-modulus index for a bounded named function, from vague data.

    The total-mass modulus is sanity-checked first: an exact Cauchy
    violation within the check window is reported as a contract failure
    instead of silently producing an invalid certificate.
    """
    if validate_tm:
        validate_total_mass_modulus(seq, tm)
    lim_mass = limit.exact_total_mass()
    if lim_mass is not None:
        p = N + 6
        m_apx = seq.total_mass(tm.of(p))
        (mp, mq), (lp, lq) = m_apx.as_integer_ratio(), lim_mass.as_integer_ratio()
        d, e = _scaled(abs(mp * lq - lp * mq), mq * lq, p)
        if d > e:  # |m_apx - lim_mass| > 2^-p
            raise DivergenceDetected(
                "divergence detected: the total masses converge to "
                f"{show(m_apx)} (within 2^-{p}) but the limit has mass {show(lim_mass)}",
                witness=(m_apx, lim_mass),
            )
    _, n1, psi = polygonal_surrogate(f_name, B, N + 2, seq, limit, tm, oracle)
    n2 = oracle(psi).of(N + 1)
    return max(n1, n2)


# ---------------------------------------------------------------------------
# computable-limit reconstruction


class ReconstructedMeasure(Measure):
    """The limit measure rebuilt from a vague oracle and its total mass.

    Interval masses are enumerated from below through the monotone tent
    family; an open set is handled as a countable union of intervals with
    inner monotone approximation.
    """

    def __init__(self, seq: MeasureSeq, oracle: VagueOracle, total_mass: CauchyReal):
        self.seq = seq
        self.oracle = oracle
        self._total = total_mass

    def total_mass_real(self) -> CauchyReal:
        return self._total

    def interval_mass_lower(self, a, b) -> LowerReal:
        a, b = _fraction(a), _fraction(b)

        def gen():
            best = None
            for t in itertools.count():
                t_k = indicator_approx((a, b), t)
                prec = t + 2
                j = self.oracle(t_k).of(prec)
                val = self.seq[j].integrate_zero_outside(t_k, prec)
                lower = max(val - 2 * _pow2(prec), Fraction(0))
                best = lower if best is None else max(best, lower)
                yield best

        return LowerReal(gen())

    def open_mass(self, U) -> LowerReal:
        def comp_lower(comp, t: int) -> Fraction:
            l, r = comp
            if l is None:
                l = -Fraction(2**t)
            if r is None:
                r = Fraction(2**t)
            if not l < r:
                return Fraction(0)
            return self.interval_mass_lower(l, r).bound(t)

        def gen():
            best = None
            for t in itertools.count():
                v = sum((comp_lower(c, t) for c in U.inner(t)), Fraction(0))
                best = v if best is None else max(best, v)
                yield best

        return LowerReal(gen())


def limit_from_vague(
    seq: MeasureSeq, oracle: VagueOracle, total_mass: CauchyReal
) -> ReconstructedMeasure:
    return ReconstructedMeasure(seq, oracle, total_mass)
