"""The Prokhorov metric and its equivalence with effective weak convergence.

``prokhorov_discrete`` computes the exact rational distance between finite
discrete measures; ``prokhorov_discrete_bruteforce`` is an independent
exhaustive oracle used by the test suite.  ``prokhorov_bounds`` brackets the
distance of any two measures that discretise
(:meth:`~effmeas.measures.Measure.cells`).  ``eps_from_weak`` and
``witness_from_eps`` implement the two converter directions between weak
convergence data and Prokhorov convergence data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .convergence import MeasureSeq, Modulus
from .errors import ContractViolation, SearchExhausted, UnsupportedMeasureClass
from .functions import _common
from .measures import (
    AlmostDecidablePair,
    DiscreteMeasure,
    Measure,
    Side,
    first_cover_balls,
)
from .reals import RationalLike, _first_below, _pow2
from .sets import PiSet, expand_closed, merge_open


class EpsFunction(Modulus):
    """N -> index with rho(mu_n, mu) < 2^-N for n >= of(N)."""


NOT_IN_CUT = "not in cut yet"
_WITNESS_MAX_M = 64  # witness_from_eps tries neighbourhood radii 2^-k, k < this


# ---------------------------------------------------------------------------
# exact distance on finite discrete measures


def _direction_deficit(
    xs: Sequence[RationalLike],
    ws: Sequence[RationalLike],
    ys: Sequence[RationalLike],
    vs: Sequence[RationalLike],
    threshold: RationalLike,
) -> RationalLike:
    """sup over atom sets S of src-mass(S) - dst-mass(neighbors of S).

    The source atoms are at ``xs`` with weights ``ws``, the destination
    atoms at ``ys`` with weights ``vs``, each side sorted by location and
    every weight positive.  Neighborhoods are closed, |x - y| <= threshold.
    Each source neighborhood is then a window of destinations whose two
    ends only move right, so the greedy transport that fills every source
    from the leftmost destination with capacity left is a maximum flow; the
    mass it cannot place is the Hall deficit.  The window ends ``x - T``
    and ``x + T`` are computed once per source, and a destination either
    takes the rest of the source or is emptied.  Works on any ordered exact
    numbers (``int`` on the lattice).
    """
    left = list(vs)
    m = len(ys)
    j = 0
    unplaced = 0
    for x, w in zip(xs, ws):
        lo = x - threshold
        while j < m and (ys[j] < lo or not left[j]):
            j += 1
        hi = x + threshold
        k = j
        while k < m and ys[k] <= hi:
            cap = left[k]
            if cap >= w:
                left[k] = cap - w
                w = 0
                break
            left[k] = 0
            w -= cap
            k += 1
        unplaced += w
    return unplaced


def _critical_thresholds(
    a: Sequence[tuple[Fraction, Fraction]], b: Sequence[tuple[Fraction, Fraction]]
) -> list[Fraction]:
    ds = {Fraction(0)}
    ds.update(abs(x - y) for x, _ in a for y, _ in b)
    return sorted(ds)


def _infimum_over_levels(
    a: Sequence[tuple[Fraction, Fraction]],
    b: Sequence[tuple[Fraction, Fraction]],
    deficit: Callable[..., Fraction],
) -> Fraction:
    """rho as an infimum over the finitely many adjacency levels.

    For eps in (t_i, t_(i+1)] the open-neighborhood adjacency is |x-y| <=
    t_i; validity there means eps >= D_i, the worst mass deficit of either
    direction.  The interval contributes inf max(D_i, t_i) when D_i fits
    below the next threshold.
    """
    ts = _critical_thresholds(a, b)
    best = None
    for i, t in enumerate(ts):
        d = max(deficit(a, b, t), deficit(b, a, t))
        nxt = ts[i + 1] if i + 1 < len(ts) else None
        if nxt is not None and d > nxt:
            continue
        cand = max(d, t)
        if best is None or cand < best:
            best = cand
    assert best is not None  # the last level always yields a candidate
    return best


def _level_at_or_below(xs: Sequence[int], ys: Sequence[int], T: int) -> int:
    """The largest level <= T; the levels are 0 and the |x - y|.

    Both sides sorted.  The ``ys`` within ``T`` of each ``x`` form a window
    ``ys[j:k]`` whose two ends only move right as ``x`` does, and the
    farthest of them is an end: one two-pointer pass, O(len(xs) + len(ys)).
    """
    m = len(ys)
    level = 0
    j = k = 0
    for x in xs:
        lo = x - T
        while j < m and ys[j] < lo:
            j += 1
        hi = x + T
        while k < m and ys[k] <= hi:
            k += 1
        if j < k:
            d = max(x - ys[j], ys[k - 1] - x)
            if d > level:
                level = d
    return level


def _level_above(xs: Sequence[int], ys: Sequence[int], T: int) -> Optional[int]:
    """The smallest level > T, or None if there is none.

    The same windows as in :func:`_level_at_or_below`: the nearest ``ys``
    farther than ``T`` from ``x`` are the window's two outer neighbours.
    """
    m = len(ys)
    level = None
    j = k = 0
    for x in xs:
        lo = x - T
        while j < m and ys[j] < lo:
            j += 1
        hi = x + T
        while k < m and ys[k] <= hi:
            k += 1
        if j and (level is None or x - ys[j - 1] < level):
            level = x - ys[j - 1]
        if k < m and (level is None or ys[k] - x < level):
            level = ys[k] - x
    return level


def _onto(vs: Sequence[int], s: int, l: int) -> Sequence[int]:
    """``int``s on the lattice 1/s moved onto the lattice 1/l, l a multiple of s."""
    return vs if s == l else [v * (l // s) for v in vs]


def _rho_on_lattice(a: Side, b: Side) -> Fraction:
    """Exact Prokhorov distance between two sides ``(xs, ws, lx, lw)``, each
    sorted by location with positive weights.

    Both sides are first scaled, in ``int``s, to the lcm ``lx`` of their
    two location lattices and the lcm ``lw`` of their weight lattices: this
    is the one place a common lattice is built.  An integer ``T`` stands
    for the distance ``T/lx`` and a deficit ``D`` for the mass ``D/lw``.
    D(T) is the larger of the two directions' Hall deficits with closed
    neighbourhoods |x - y| <= T, each a greedy line transport
    (:func:`_direction_deficit`).  The returned value is the infimum of the
    valid epsilons, which need not be valid itself (the neighbourhoods are
    open).

    The answer.  Distances are multiples of 1/lx, so an eps in
    ((T - 1)/lx, T/lx] has the open neighbourhoods |x - y| <= T - 1 and is
    valid iff eps >= D(T - 1)/lw.  D is nonincreasing, so the predicate
    P(T): D(T)*lx <= T*lw is monotone; let T* be the least T where it
    holds.  Every eps above T*/lx is valid.  No eps at most (T* - 1)/lx
    is: one valid in ((T - 1)/lx, T/lx] gives T/lx >= D(T - 1)/lw >=
    D(T)/lw, so P(T) and T >= T*.  Hence rho = 0 if T* = 0, and else
    rho = min(D(T* - 1)/lw, T*/lx), on any lattice holding all the data.

    The search.  A deficit is at most its source's mass, so P holds at
    ceil(max(total(mu), total(nu)) * lx) and T* lies in [0, that].  The
    levels are 0 and the distinct |x - y|; D is constant from one level up
    to below the next.  One O(n + m) pass finds the level next to a probe
    T on the side it needs (:func:`_level_above`,
    :func:`_level_at_or_below`).  Let need = ceil(D(T)*lx/lw).  P(T') fails
    for T' <= T below need, as D(T') >= D(T) there, and holds for
    T' >= T at or above need, as D(T') <= D(T).  So:

    - P(T) fails (need > T): hi drops to need.  If need is at most the
      next level, D is D(T) from T to below it, so T* = need and
      rho = D(T)/lw.  Else every T' from T to the next level fails, and
      lo moves to that level.
    - P(T) holds (need <= T): D is D(T) from the level <= T up to T.  If
      need is above that level, T* = need and rho = D(T)/lw; if need is
      that level, T* = need; else the level passes and hi moves down to
      it.

    Probes bisect [lo, hi), and each at least halves it, so with
    hi_0 = ceil(max total * lx) there are at most hi_0.bit_length()
    probes, of two deficit evaluations and one level pass each.  At most
    two evaluations more read D(T* - 1): no more than
    2 * hi_0.bit_length() + 2 in all, O((n + m) log hi_0) time, and no
    n*m set of distances.  The levels are the entries of a sorted matrix
    (Frederickson and Johnson, SIAM J. Comput. 1984); on the line the
    deficit also says how far to jump.
    """
    lx, lw = math.lcm(a[2], b[2]), math.lcm(a[3], b[3])
    xa, wa = _onto(a[0], a[2], lx), _onto(a[1], a[3], lw)
    xb, wb = _onto(b[0], b[2], lx), _onto(b[1], b[3], lw)

    def deficit(T: int) -> int:
        return max(_direction_deficit(xa, wa, xb, wb, T), _direction_deficit(xb, wb, xa, wa, T))

    lo, hi = 0, -(-max(sum(wa), sum(wb)) * lx // lw)
    d_lo = None  # D(lo - 1), when the last failing probe set lo
    while lo < hi:
        T = (lo + hi) // 2
        d = deficit(T)
        need = -(-d * lx // lw)
        if need > T:
            above = _level_above(xa, xb, T)
            if above is None or need <= above:
                return Fraction(d, lw)
            lo, hi, d_lo = above, min(hi, need), d
            continue
        below = _level_at_or_below(xa, xb, T)
        if need > below:
            return Fraction(d, lw)
        if need == below:
            lo, d_lo = below, None
        hi = below
    if lo == 0:
        return Fraction(0)
    if d_lo is None:
        d_lo = deficit(lo - 1)
    return Fraction(d_lo, lw) if d_lo * lx < lo * lw else Fraction(lo, lx)


def prokhorov_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Fraction:
    """Exact Prokhorov distance between finite discrete measures.

    The search runs on the measures' ``int`` lattices
    (:meth:`~effmeas.measures.DiscreteMeasure.lattice`) brought to a common
    one (:func:`_rho_on_lattice`, which holds the proof and the cost,
    O((n + m) log(total mass * lx))).
    """
    for m in (mu, nu):
        if not isinstance(m, DiscreteMeasure):
            raise UnsupportedMeasureClass(
                f"unsupported measure class for prokhorov_discrete: {type(m).__name__}"
            )
    return _rho_on_lattice(mu.lattice(), nu.lattice())


def _brute_deficit(
    src: Sequence[tuple[Fraction, Fraction]],
    dst: Sequence[tuple[Fraction, Fraction]],
    threshold: Fraction,
) -> Fraction:
    """Deficit by exhaustive subset enumeration (test oracle)."""
    best = Fraction(0)
    n = len(src)
    for mask in range(1, 1 << n):
        s = [src[i] for i in range(n) if mask >> i & 1]
        s_mass = sum((w for _, w in s), Fraction(0))
        nb = sum(
            (v for y, v in dst if any(abs(x - y) <= threshold for x, _ in s)),
            Fraction(0),
        )
        best = max(best, s_mass - nb)
    return best


def prokhorov_discrete_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Fraction:
    """Independent exhaustive oracle for :func:`prokhorov_discrete`."""
    return _infimum_over_levels(mu.atoms, nu.atoms, _brute_deficit)


# ---------------------------------------------------------------------------
# bounds through a discretisation of each side


def prokhorov_bounds(mu: Measure, nu: Measure, n: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds on rho(mu, nu), gap at most 2^-n.

    Each side gives its atoms on the grid of pitch 2^-(n+2) and their
    distance from it (:meth:`~effmeas.measures.Measure.cells`); the exact
    distance of the two atom sets (:func:`_rho_on_lattice`) is then off by
    at most the sum of those errors.
    """
    pitch = _pow2(n + 2)
    (a, err_a), (b, err_b) = mu.cells(pitch), nu.cells(pitch)
    d = _rho_on_lattice(a, b)
    e = err_a + err_b
    return max(Fraction(0), d - e), d + e


# ---------------------------------------------------------------------------
# weak convergence => eps-function


def _union_mass_gaps(
    balls: Sequence[tuple[Fraction, Fraction]], limit: Measure
) -> Callable[[Measure], tuple[Fraction, Fraction]]:
    """member -> (D, o_n) on the open ``balls`` against ``limit``.

    D is the sup over unions A of the balls of |mu_n(A) - mu(A)|, and o_n
    the member mass outside every ball.  D is one sweep over the balls
    sorted by left end, whose state is a chosen set's frontier F, its
    largest right end so far.  Every chosen ball starts at or before the
    next left end l, so above l the chosen union is exactly (l, F): ball
    (l, r) adds the signed mass of (l, r), below(r) - upto(l), if F <= l,
    of [F, r), below(r) - below(F), if l < F < r, and nothing if F >= r.
    What is still to come depends on F alone, so each frontier keeps only
    its largest and smallest signed sum, and D = max(max, -min) over them.
    o_n is the member total less below(r) - upto(l) over the union's
    components.  below and upto, the masses of (-inf, x) and (-inf, x],
    come from :meth:`~effmeas.measures.Measure.cumulative` at the distinct
    ball ends, one call for the limit and one per member, so either may be
    of any class with exact region masses.  The sweep runs on the ends'
    ranks: at most #balls + 1 frontiers, O(#balls^2) ``int`` lookups.
    """
    ends, le = _common([e for ball in balls for e in ball])
    keys = sorted(set(ends))
    rank = {k: i for i, k in enumerate(keys)}
    order = sorted(zip([rank[e] for e in ends[::2]], [rank[e] for e in ends[1::2]]))
    union = merge_open(order)
    lim_below, lim_upto, _, lv = limit.cumulative(keys, le)

    def gaps(member: Measure) -> tuple[Fraction, Fraction]:
        m_below, m_upto, total, lw = member.cumulative(keys, le)
        W = math.lcm(lv, lw)
        km, kl = W // lw, W // lv
        below = [x * km - y * kl for x, y in zip(m_below, lim_below)]
        upto = [x * km - y * kl for x, y in zip(m_upto, lim_upto)]
        # frontier -> (max, min) signed sum; None is the empty set's
        sums: dict = {None: (0, 0)}
        for l, r in order:
            hi = below[r]
            tops, bots = [], []
            for F, (top, bot) in sums.items():
                if F is None or F <= l:
                    gain = hi - upto[l]
                elif F < r:
                    gain = hi - below[F]
                else:
                    continue
                tops.append(top + gain)
                bots.append(bot + gain)
            if r in sums:
                tops.append(sums[r][0])
                bots.append(sums[r][1])
            sums[r] = max(tops), min(bots)
        inside = sum(m_below[r] - m_upto[l] for l, r in union)
        return Fraction(max(max(t, -b) for t, b in sums.values()), W), Fraction(total - inside, lw)

    return gaps


def eps_from_weak(
    seq: MeasureSeq,
    limit: Measure,
    ad_modulus: Callable[[AlmostDecidablePair], Modulus],
    N: int,
) -> int:
    """Smallest index from which mu_n is certified 2^-N-close to the limit.

    Cover: the almost decidable balls of radius below s = 2^-(N+3) (see
    :func:`~effmeas.measures.almost_decidable_cover`).  Each limit atom x
    gets the first cover ball that holds it, found among the at most four
    centers near x (:func:`~effmeas.measures.first_cover_balls`), and the
    balls are taken in cover order until the limit mass u left outside them
    is at most 2^-(N+2).  That is the walk's own stopping rule, so the balls
    are a subset of the walk's first k0+1 balls, and there are at most as
    many as the limit has atoms: no precision ceiling.  If u starts at most
    2^-(N+2), the walk's first ball is taken: centred at 0, it is the first
    ball that holds 0.

    Certificate.  Let D be the sup over unions A of the balls of
    |mu_n(A) - mu(A)|, o_n = mu_n(R \\ union of the balls), and for a Borel
    B let A be the union of the balls meeting B.  A ball has diameter below
    2^-(N+2) = delta, so A lies in the neighborhood B^delta, and

        mu(B)   <= mu(A) + u     <= mu_n(B^delta) + D + u,
        mu_n(B) <= mu_n(A) + o_n <= mu(B^delta) + D + o_n.

    So D < 2^-(N+2), u <= 2^-(N+2) and o_n < 2^-(N+1) give
    rho(mu_n, mu) < 2^-N.  A member is accepted on exactly those two
    terms.  The second never binds when mu_n(R) = mu(R): then
    o_n = u + mu(union) - mu_n(union) <= u + D < 2^-(N+1), so on
    mass-preserving sequences the index is the one D alone gives.  D and
    o_n of a member come from one frontier sweep over the balls sorted by
    left end (:func:`_union_mass_gaps`): O(#balls^2) ``int`` lookups in the
    masses of mu_n and mu at the ball ends, not one test per union.

    The cover reads the limit's ``int`` lattice
    (:meth:`~effmeas.measures.DiscreteMeasure.lattice`); the sweep reads the
    limit and each member through :meth:`~effmeas.measures.Measure.cumulative`
    alone, so a member may be of any class with exact region masses, and a
    discrete member or limit built by ``from_ints`` or a drifting family
    never builds its ``atoms``.

    The supplied per-ball moduli must certify exact stability (their index
    bounds the drift below every ball boundary), which makes D < 2^-(N+2)
    hold from their largest index n_hi on.  n_hi must be a natural number
    and member n_hi must be accepted, or the modulus contract fails.  The
    scan walks down from n_hi and stops at the first member not accepted,
    so members below the returned index other than that one are never
    read.  Past n_hi the per-ball moduli bound D but not o_n; there the
    premise that mu_n converges weakly, tested on f = 1 (total-mass
    convergence), keeps o_n <= u + D + |mu_n(R) - mu(R)| small.
    """
    if not isinstance(limit, DiscreteMeasure):
        raise UnsupportedMeasureClass("eps_from_weak requires a finite discrete limit")
    s = _pow2(N + 3)
    slack = _pow2(N + 2)
    ys, vs, ly, lv = limit.lattice()
    firsts = first_cover_balls(limit, s, [Fraction(y, ly) for y in ys])
    # Atoms in the order the walk would cover them; take their balls until
    # the uncovered limit mass, uncovered/lv, drops to the slack.
    chosen: dict[int, AlmostDecidablePair] = {}
    uncovered = sum(vs)
    for (j, pair), v in sorted(zip(firsts, vs), key=lambda t: t[0][0]):
        if uncovered * slack.denominator <= slack.numerator * lv:
            break
        chosen[j] = pair
        uncovered -= v
    if not chosen:
        chosen[0] = first_cover_balls(limit, s, [0])[0][1]
    pulled = [chosen[j] for j in sorted(chosen)]
    balls = [p.U.components[0] for p in pulled]

    n_hi = max(ad_modulus(p).of(N + 2) for p in pulled)
    if n_hi < 0:
        raise ContractViolation(
            f"almost-decidable modulus gave the negative index {n_hi}",
            witness=(N, n_hi),
        )
    bound = _pow2(N + 2)
    outside_bound = _pow2(N + 1)
    gaps_at = _union_mass_gaps(balls, limit)
    top, outside = gaps_at(seq[n_hi])
    if top >= bound:
        raise ContractViolation(
            "almost-decidable modulus contract failure at its own index",
            witness=(N, n_hi, top),
        )
    if outside >= outside_bound:
        raise ContractViolation(
            "member mass outside the cover balls at the modulus's own index",
            witness=(N, n_hi, outside),
        )
    n0 = n_hi
    while n0 > 0:
        sup, outside = gaps_at(seq[n0 - 1])
        if sup >= bound or outside >= outside_bound:
            break
        n0 -= 1
    return n0


def eps_function(
    seq: MeasureSeq,
    limit: Measure,
    ad_modulus: Callable[[AlmostDecidablePair], Modulus],
) -> EpsFunction:
    return EpsFunction(lambda N: eps_from_weak(seq, limit, ad_modulus, N))


# ---------------------------------------------------------------------------
# eps-function => limsup witness


def witness_from_eps(
    seq: MeasureSeq,
    limit: Measure,
    eps: EpsFunction,
    C: PiSet,
    r: Union[Fraction, int],
) -> Union[int, str]:
    """Index beyond which mu_n(C) < r, for r in the right cut of mu(C).

    Waits for r to clear the cut (exact here: corpus limits have exactly
    computable closed masses), then finds M0 with r - mu(C) > 2^-M0 and N0
    with r - mu(closure of the 2^-N0 neighborhood of C) > 2^-M0, and
    returns eps(M0 + N0 + 1).  Returns the sentinel string when r is not
    (yet) certified above mu(C).  A limit without exact closed masses
    raises ``UnsupportedMeasureClass`` from :meth:`Measure.mass_closed`.
    """
    r = Fraction(r)
    comps = C.closed_components
    if comps is None:
        raise UnsupportedMeasureClass("witness_from_eps needs exact closed components")
    mu_c = limit.mass_closed(comps)
    if r <= mu_c:
        return NOT_IN_CUT
    m0 = _first_below(r - mu_c)
    for n0_exp in range(_WITNESS_MAX_M):
        fat = expand_closed(comps, _pow2(n0_exp))
        if r - limit.mass_closed(fat) > _pow2(m0):
            return eps.of(m0 + n0_exp + 1)
    raise SearchExhausted(
        f"search exhausted: no shrinking neighborhood certified within 2^-{_WITNESS_MAX_M}"
    )

