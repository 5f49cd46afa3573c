"""Moduli, the uniformizer, Specker demo, and the vague-to-weak pipeline."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from effmeas import (
    CauchyReal,
    CheckReport,
    CheckRow,
    ContractViolation,
    DiscreteMeasure,
    DivergenceDetected,
    DuplicateEnumeration,
    Fuel,
    LazyDiscreteMeasure,
    Measure,
    MeasureSeq,
    Modulus,
    PolyFunc,
    SearchExhausted,
    TotalMassModulus,
    UnsupportedMeasureClass,
    check_cut,
    check_modulus,
    constant_func,
    hat_function,
    integrate_named,
    integrate_poly,
    limit_from_vague,
    pi_from_complement,
    specker_sequence,
    supported_from_poly,
    tail_mass_bound,
    uniformize_vague,
    vague_modulus,
    vague_to_weak,
    weak_modulus,
)
import effmeas.convergence as convergence
from effmeas.convergence import (
    _scan_for_index,
    polygonal_surrogate,
    validate_total_mass_modulus,
)
from effmeas.corpora import (
    DriftingAtomFamily,
    builtin_function,
    corpus_by_name,
    deltan,
    deltashrink,
    mixture,
)
from effmeas.errors import show
from effmeas.functions import (
    CompactOpenName,
    SupportedFunc,
    approx_polygonal,
    co_name_of_poly,
    polygonal_on_window,
    tent_function,
)
from effmeas.reals import _pow2
from tests.conftest import exact_open, rand_supported_poly
from tests.test_functions import opaque_name_of


def validate_total_mass_modulus_all_pairs(seq, tm):
    """The all-pairs Cauchy check, kept as the oracle for the linear one: at
    N = 2, 4, 6, every pair of members of(N) .. of(N) + 40."""
    for N in (2, 4, 6):
        idx = tm.of(N)
        masses = []
        for n in range(idx, idx + 41):
            m = seq[n].exact_total_mass()
            if m is None:
                raise UnsupportedMeasureClass(
                    f"unsupported measure class {type(seq[n]).__name__}: no exact total mass"
                )
            masses.append((n, m))
        for (n1, m1) in masses:
            for (n2, m2) in masses:
                if abs(m1 - m2) >= _pow2(N - 1):
                    raise ContractViolation(
                        "total-mass modulus contract failure: "
                        f"|mu_{n1}(R) - mu_{n2}(R)| = {abs(m1 - m2)} >= 2^-{N - 1}",
                        witness=(N, n1, n2, abs(m1 - m2)),
                    )


# The vague => weak chain with its stopping tests and tolerances in Fraction
# arithmetic, kept as the oracles for the int comparisons against 2^-n.


def tail_mass_bound_fraction(seq, tm, oracle, N):
    prec = N + 5
    m_apx = seq.total_mass(tm.of(prec))
    a = 1
    for _ in range(24):
        tent = tent_function((-a, a))
        mod = oracle(tent)
        l_apx = seq[mod.of(prec)].integrate_zero_outside(tent, prec)
        if m_apx - l_apx + 4 * _pow2(prec) <= _pow2(N + 2):
            return a + 1, max(tm.of(N + 3), mod.of(N + 3))
        a *= 2
    raise SearchExhausted("search exhausted: no tail-capturing window found")


def polygonal_surrogate_two_builds(f_name, B, N, seq, limit, tm, oracle):
    """The surrogate as a fitted ``PolyFunc`` on [-a1, a1] rebuilt with +-W
    added, kept as the oracle for the one build from the fitted vertices; a
    negative ``tm.of(0)`` is refused as every other read of ``tm`` is."""
    B = int(B)
    Nt = N + 2 + (2 * B + 1).bit_length()
    a1, n1 = tail_mass_bound_fraction(seq, tm, oracle, Nt)
    W = a1 + 1
    i0 = tm.of(0)
    if i0 < 0:
        raise IndexError(f"measure sequences start at index 0, got {i0}")
    mass_bound = max(seq.total_mass(n) for n in range(i0 + 1)) + 2
    tol = _pow2(N + 1) / (mass_bound + 1)
    core = polygonal_on_window(f_name, Fraction(-a1), Fraction(a1), tol)
    verts = [(Fraction(-W), Fraction(0))] + list(core.vertices) + [(Fraction(W), Fraction(0))]
    psi = PolyFunc(tuple(verts), "zero-outside")
    lim_tail = limit.exact_total_mass()
    if lim_tail is not None:
        inside = limit.region_mass_open([(Fraction(-a1), Fraction(a1))])
        if lim_tail - inside >= _pow2(Nt):
            raise ContractViolation(
                "limit measure carries more tail mass than the certified bound",
                witness=(a1, lim_tail - inside),
            )
    return W, n1, psi


def vague_to_weak_fraction(seq, limit, tm, oracle, f_name, B, N):
    validate_total_mass_modulus_all_pairs(seq, tm)
    lim_mass = limit.exact_total_mass()
    if lim_mass is not None:
        p = N + 6
        m_apx = seq.total_mass(tm.of(p))
        if abs(m_apx - lim_mass) - _pow2(p) > 0:
            raise DivergenceDetected(
                "divergence detected: the total masses converge to "
                f"{show(m_apx)} (within 2^-{p}) but the limit has mass {show(lim_mass)}",
                witness=(m_apx, lim_mass),
            )
    _, n1, psi = polygonal_surrogate_two_builds(f_name, B, N + 2, seq, limit, tm, oracle)
    return max(n1, oracle(psi).of(N + 1))


def uniformize_vague_fraction(seq, limit, oracle, f, N):
    l, u = f.hull()
    tent = tent_function((l.__floor__() - 1, u.__ceil__() + 1))
    n0 = oracle(tent).of(1)
    d_up = seq[n0].integrate_zero_outside(tent, 6) + _pow2(6)
    psi = approx_polygonal(f, _pow2(N + 2) / (1 + d_up))
    return max(n0, oracle(psi).of(N + 1))


def scan_for_index_forward(value_at, err, limit_value, limit_err, N, *, max_n, window):
    """The forward scan over n0 = 0, 1, ..., kept as the oracle for the skipping one."""
    bound = _pow2(N)
    slack = err + limit_err
    devs = {}

    def dev(n):
        if n not in devs:
            devs[n] = abs(value_at(n) - limit_value)
        return devs[n]

    for n0 in range(max_n + 1):
        hi = min(max_n, n0 + window)
        if all(dev(n) + slack < bound for n in range(n0, hi + 1)):
            return n0
    tail_dev = dev(max_n)
    if tail_dev - slack >= bound:
        raise DivergenceDetected(
            "divergence detected: certified deviation "
            f"{tail_dev} at index {max_n} is not below 2^-{N}",
            witness=(N, max_n, tail_dev),
        )
    raise SearchExhausted(
        f"insufficient name progress: no stable index below {max_n}"
    )


def _scan_outcome(scan, values, err, limit_err, N, max_n, window):
    """(outcome, members read) of one scan over the exact values."""
    read = set()

    def value_at(n):
        read.add(n)
        return values[n]

    try:
        out = scan(value_at, err, Fraction(0), limit_err, N, max_n=max_n, window=window)
    except (DivergenceDetected, SearchExhausted) as exc:
        out = (type(exc), str(exc), getattr(exc, "witness", None))
    return out, read


# deviations k/2^j straddle every bound 2^-N and slack sum, equality included
_DEV = st.builds(lambda k, j: Fraction(k, 2**j), st.integers(-6, 6), st.integers(0, 6))
_SLACK = st.builds(lambda k, j: Fraction(k, 2**j), st.integers(0, 2), st.integers(2, 7))


class _MassOnly(Measure):
    """A member that knows only its exact total mass (None: unknown)."""

    def __init__(self, mass):
        self.mass = mass

    def exact_total_mass(self):
        return self.mass


def _outcome(check, masses, tm):
    try:
        check(MeasureSeq(lambda n: _MassOnly(masses[n])), tm)
    except (ContractViolation, UnsupportedMeasureClass) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


# masses 1 + k/2^j straddle every threshold 2^-(N-1) for N <= 9, equality included
_MASS = st.builds(lambda k, j: 1 + Fraction(k, 2**j), st.integers(-4, 4), st.integers(0, 10))


HAT = hat_function(Fraction(0), Fraction(5, 4), Fraction(5, 2), Fraction(1))


class TestModulus:
    def test_constant_and_table(self):
        assert Modulus.constant(7).of(3) == 7
        m = Modulus.from_table({2: 5, 4: 9})
        assert m.of(4) == 9
        assert m.of(3) == 9  # falls back to a deeper entry
        with pytest.raises(ContractViolation):
            m.of(6)

    def test_memoized(self):
        calls = []
        m = Modulus(lambda N: calls.append(N) or N)
        m.of(3), m.of(3)
        assert calls == [3]


class TestMeasureSeq:
    def test_negative_index_rejected(self):
        built = []
        seq = MeasureSeq(lambda n: built.append(n) or DiscreteMeasure.point(n))
        with pytest.raises(IndexError):
            seq[-1]
        with pytest.raises(IndexError):
            seq.total_mass(-3)
        assert built == []
        assert seq.total_mass(2) == 1 and built == [2]

    def test_negative_total_mass_modulus_refused(self):
        # the window -7..33 starts at members that do not exist
        with pytest.raises(IndexError):
            validate_total_mass_modulus(mixture().seq, Modulus.constant(-7))
        seq = MeasureSeq(lambda n: _MassOnly(Fraction(1)))
        with pytest.raises(IndexError):
            validate_total_mass_modulus(seq, Modulus.constant(-7))


class TestCheckModulus:
    def test_passes_valid_modulus(self):
        rep = check_modulus(
            lambda n: _pow2(n), Fraction(0), Modulus(lambda N: N + 1), [1, 3, 5], Fuel(4)
        )
        assert rep.passed

    def test_fails_invalid_modulus(self):
        rep = check_modulus(
            lambda n: _pow2(n), Fraction(0), Modulus.constant(0), [4], Fuel(2)
        )
        assert not rep.passed
        assert [r.checked_n for r in rep.rows if not r.ok][0] == 0

    def test_cauchy_limit(self):
        limit = CauchyReal.from_rational(Fraction(1, 3))
        rep = check_modulus(
            lambda n: Fraction(1, 3) + _pow2(n),
            limit,
            Modulus(lambda N: N + 2),
            [2, 6],
            Fuel(3),
        )
        assert rep.passed

    def test_window_rows(self):
        # members of(N) .. of(N) + budget, both ends included
        rep = check_modulus(lambda n: _pow2(n), 0, Modulus(lambda N: N + 1), [2], Fuel(2))
        assert [(r.N, r.index, r.checked_n) for r in rep.rows] == [(2, 3, 3), (2, 3, 4), (2, 3, 5)]

    def test_no_precisions_fails(self):
        # a report that checked nothing vouches for nothing
        assert not CheckReport([]).passed
        rep = check_modulus(lambda n: _pow2(n), 0, Modulus(lambda N: N + 1), [], Fuel(4))
        assert rep.rows == [] and not rep.passed

    def test_negative_window_refused(self):
        # members idx .. idx - 1: no member, so a pass would check nothing
        with pytest.raises(ValueError):
            check_cut(1, 2, Fraction(1, 4), Fraction(0), lambda n: Fraction(0), -1)


class TestScanModuli:
    def test_weak_modulus_matches_analytic_rate(self):
        c = deltashrink()
        p = HAT
        m = weak_modulus(c.seq, c.limit, co_name_of_poly(p), 1)
        for N in (1, 3, 6):
            idx = m.of(N)
            lim = integrate_poly(p, c.limit)
            for n in range(idx, idx + 10):
                assert abs(integrate_poly(p, c.seq[n]) - lim) < _pow2(N)

    def test_vague_modulus(self):
        c = mixture()
        f = supported_from_poly(HAT)
        m = vague_modulus(c.seq, c.limit, f)
        lim = integrate_poly(HAT, c.limit)
        idx = m.of(5)
        for n in range(idx, idx + 10):
            assert abs(integrate_poly(HAT, c.seq[n]) - lim) < _pow2(5)

    def test_divergence_detected_for_escaping_mass(self):
        dn = deltan()
        one = constant_func(Fraction(1))
        with pytest.raises(DivergenceDetected):
            weak_modulus(dn.seq, dn.limit, co_name_of_poly(one), 1).of(2)

    @settings(max_examples=600, deadline=None)
    @given(
        values=st.lists(_DEV, min_size=1, max_size=40),
        max_n=st.integers(0, 39),
        window=st.integers(0, 12),
        N=st.integers(0, 5),
        err=_SLACK,
        limit_err=_SLACK,
    )
    def test_skipping_scan_matches_forward_oracle(self, values, max_n, window, N, err, limit_err):
        max_n = min(max_n, len(values) - 1)
        got, read = _scan_outcome(_scan_for_index, values, err, limit_err, N, max_n, window)
        want, oracle_read = _scan_outcome(
            scan_for_index_forward, values, err, limit_err, N, max_n, window
        )
        assert got == want
        assert read <= oracle_read

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_refutation_reads_one_member_per_window(self, N, monkeypatch):
        # deltan's members all sit 1 away from the zero limit: each window
        # fails at its right end, so the scan reads one member per window
        calls = []
        real = convergence.integrate_named

        def counted(f, mu, n):
            calls.append(mu)
            return real(f, mu, n)

        monkeypatch.setattr(convergence, "integrate_named", counted)
        dn = deltan()
        one = co_name_of_poly(constant_func(Fraction(1)))
        # the scan reads members 0..128, each window 24 members past its start
        max_n, window = 128, 24
        with pytest.raises(DivergenceDetected) as e:
            weak_modulus(dn.seq, dn.limit, one, 1).of(N)
        assert e.value.witness[:2] == (N, max_n)
        assert len(calls) <= -(-(max_n + 1) // (window + 1)) + 2

    @pytest.mark.parametrize(
        "deviating, want",
        [
            # member 24 lies in the window 0..24 of candidate 0, not in 25..49
            ({24}, 25),
            # candidate 105's window 105..128 reaches the last scanned member
            (set(range(105)), 105),
            (set(range(105)) | {128}, DivergenceDetected),
            # member 129 lies past the scan
            (set(range(105)) | {129}, 105),
        ],
        ids=["window end", "scan end", "last member", "past the scan"],
    )
    def test_scan_range_is_fixed(self, deviating, want):
        # members at the hat's peak, or at 10 outside its support where the
        # integral is 1 away from the limit's: both moduli scan members
        # 0..128 with windows of 24 members past each candidate
        seq = MeasureSeq(lambda n: DiscreteMeasure.point(10 if n in deviating else Fraction(5, 4)))
        limit = DiscreteMeasure.point(Fraction(5, 4))
        for m in (
            weak_modulus(seq, limit, co_name_of_poly(HAT), 1),
            vague_modulus(seq, limit, supported_from_poly(HAT)),
        ):
            for N in (1, 4):
                if want is DivergenceDetected:
                    with pytest.raises(DivergenceDetected) as e:
                        m.of(N)
                    assert e.value.witness[:2] == (N, 128)
                else:
                    assert m.of(N) == want


class TestUniformizer:
    def test_error_budget_identity(self):
        for N in range(0, 12):
            assert _pow2(N + 2) + _pow2(N + 1) + _pow2(N + 2) == _pow2(N)

    def test_uniform_index_valid_on_corpora(self, rng):
        for corpus in (deltashrink(), mixture()):
            for _ in range(5):
                p = rand_supported_poly(rng)
                f = supported_from_poly(p)
                lim = integrate_poly(p, corpus.limit)
                for N in (2, 6):
                    n0 = uniformize_vague(corpus.seq, corpus.limit, corpus.vague_oracle, f, N)
                    for n in range(n0, n0 + 8):
                        assert abs(integrate_poly(p, corpus.seq[n]) - lim) < _pow2(N)

    def test_works_with_scanning_oracle(self):
        c = deltashrink()
        f = supported_from_poly(HAT)
        n0 = uniformize_vague(  # a scanned vague modulus per polygon
            c.seq, c.limit, lambda p: vague_modulus(c.seq, c.limit, supported_from_poly(p)), f, 4
        )
        lim = integrate_poly(HAT, c.limit)
        for n in range(n0, n0 + 8):
            assert abs(integrate_poly(HAT, c.seq[n]) - lim) < _pow2(4)

    @pytest.mark.parametrize("N", [-12, -3, 0, 4, 9])
    def test_tolerance_is_the_fraction_form(self, N, monkeypatch):
        # the tolerance handed to approx_polygonal is 2^-(N+2) / (1 + d + 2^-6)
        # exactly, d the tent's integral over member n0 (3/4 on this family)
        c = DriftingAtomFamily([(Fraction(1, 3), Fraction(3, 4), 1)]).corpus("one-atom")
        seen = []
        approx = convergence.approx_polygonal
        monkeypatch.setattr(convergence, "approx_polygonal", lambda f, tol: seen.append(tol) or approx(f, tol))
        uniformize_vague(c.seq, c.limit, c.vague_oracle, supported_from_poly(HAT), N)
        assert seen == [_pow2(N + 2) / (1 + Fraction(3, 4) + _pow2(6))]


class TestSpecker:
    @settings(max_examples=60, deadline=None)
    @given(enum=st.lists(st.integers(0, 60), unique=True, min_size=1, max_size=16), data=st.data())
    def test_members_on_the_constructor_lattice(self, enum, data):
        n = data.draw(st.integers(0, len(enum) - 1))
        mu = specker_sequence(iter(enum)).seq[n]
        want = DiscreteMeasure(tuple((Fraction(i), _pow2(enum[i] + 1)) for i in range(n + 1)))
        assert mu.lattice() == want.lattice()
        assert mu.atoms == want.atoms and mu == want

    def test_modulus_index_and_constancy(self):
        sp = specker_sequence(iter(range(100)))
        m = sp.vague_modulus(HAT)
        assert m.of(0) == 4  # ceil(5/2) + 1
        vals = {integrate_poly(HAT, sp.seq[n]) for n in range(4, 20)}
        assert vals == {Fraction(1, 4)}  # frozen exact value, identity enumeration

    def test_zero_polygon_index_is_one(self):
        sp = specker_sequence(iter(range(100)))
        zero, _ = builtin_function("zero")
        assert zero.support_components() == ()
        assert sp.vague_oracle()(zero).of(0) == 1

    def test_integrals_before_the_index_differ(self):
        sp = specker_sequence(iter(range(100)))
        assert integrate_poly(HAT, sp.seq[0]) != Fraction(1, 4)

    def test_duplicate_enumeration_rejected(self):
        sp = specker_sequence(iter([0, 1, 1]))
        sp.seq[1]
        with pytest.raises(DuplicateEnumeration):
            sp.seq[2]

    @pytest.mark.parametrize("v", [Fraction(10**5000 + 1, 3), Fraction(1, 2)])
    def test_bad_enumeration_message_never_breaks(self, v):
        # a value of more digits than the interpreter's limit prints its bit lengths
        with pytest.raises(DuplicateEnumeration, match="is not a natural number") as exc:
            specker_sequence(iter([v])).seq[0]
        assert str(exc.value)

    @pytest.mark.parametrize("v", [float("inf"), float("nan"), None])
    def test_non_rational_value_refused(self, v):
        # the type is tested before int(v), which would raise on each
        with pytest.raises(DuplicateEnumeration, match=f"^enumeration value {v} is not a natural number$"):
            specker_sequence(iter([v])).seq[0]

    def test_huge_value_refused_by_its_bit_length(self):
        # 2^-(a+1) of a 16,610-bit a is past what an int can hold; the value
        # is refused before any weight is built, and its message holds no digits
        sp = specker_sequence(iter([10**5000, 1]))
        with pytest.raises(DuplicateEnumeration, match="^enumeration value of 16610 bits at position 0 is above the 20-bit cap$"):
            sp.seq[0]
        with pytest.raises(DuplicateEnumeration, match="16610 bits"):
            sp.enum[1]  # the stream stays poisoned

    def test_bit_cap_boundary(self):
        sp = specker_sequence(iter([2**20 - 1, 2**20]))
        assert sp.weight(0) == _pow2(2**20)
        with pytest.raises(DuplicateEnumeration, match="21 bits at position 1"):
            sp.enum[1]

    def test_total_mass_lower_strictly_increases(self):
        sp = specker_sequence(iter(range(100)))
        lower = sp.total_mass_lower()
        vals = [lower.bound(k) for k in range(30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_limit_measure_is_lazy(self):
        sp = specker_sequence(iter(range(100)))
        mu = sp.limit_measure()
        from effmeas.errors import UnsupportedMeasureClass

        with pytest.raises(UnsupportedMeasureClass):
            mu.total_mass_real()
        f = supported_from_poly(HAT)
        from effmeas import integrate_named

        assert abs(integrate_named(f, mu, 8) - Fraction(1, 4)) <= _pow2(8)

    def test_huge_deviation_raised_as_divergence(self):
        # the squares' weights pass 4,300 digits by index 128; the message
        # shows the deviation through errors.show, under the default limit
        p, _ = builtin_function("constant-one")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            seq = corpus_by_name("specker:squares").seq
            m = weak_modulus(seq, DiscreteMeasure.point(0), co_name_of_poly(p), p.bound())
            with pytest.raises(DivergenceDetected, match="deviation a rational of 16383/16386 bits at index 128"):
                m.of(3)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)


class TestVagueToWeak:
    def test_tail_mass_bound_contract(self):
        c = mixture()
        a, n0 = tail_mass_bound(c.seq, c.tm, c.vague_oracle, 6)
        for n in range(n0, n0 + 10):
            total = c.seq[n].exact_total_mass()
            inside = c.seq[n].region_mass_open([(Fraction(-a), Fraction(a))])
            assert total - inside < _pow2(6)

    def test_polygonal_surrogate_contract(self):
        c = deltashrink()
        one = constant_func(Fraction(1))
        W, n1, psi = polygonal_surrogate(co_name_of_poly(one), 1, 5, c.seq, c.limit, c.tm, c.vague_oracle)
        assert psi.extension == "zero-outside"
        assert psi.support_components()[-1][1] <= W
        lim = integrate_poly(one, c.limit)
        for n in range(n1, n1 + 8):
            assert abs(integrate_poly(psi, c.seq[n]) - integrate_poly(one, c.seq[n])) < _pow2(5)

    def test_valid_modulus_produced(self):
        c = mixture()
        clamp = constant_func(Fraction(1))
        for N in (2, 5):
            idx = vague_to_weak(c.seq, c.limit, c.tm, c.vague_oracle, co_name_of_poly(clamp), 1, N)
            lim = integrate_poly(clamp, c.limit)
            for n in range(idx, idx + 8):
                assert abs(integrate_poly(clamp, c.seq[n]) - lim) < _pow2(N)

    def test_invalid_total_mass_modulus_reported(self):
        # masses alternate 0 and 1: any claimed modulus is refutable
        seq = MeasureSeq(
            lambda n: DiscreteMeasure(((Fraction(0), Fraction(n % 2 + 1)),))
        )
        bad_tm = TotalMassModulus.constant(0)
        with pytest.raises(ContractViolation):
            validate_total_mass_modulus(seq, bad_tm)

    @settings(max_examples=400, deadline=None)
    @given(
        masses=st.lists(_MASS, min_size=52, max_size=52),
        shrink=st.integers(0, 9),
        unknown_at=st.integers(0, 127),
        start=st.integers(0, 11),
    )
    def test_linear_check_matches_all_pairs(self, masses, shrink, unknown_at, start):
        # the window start..start+40 lies inside the 52 masses; pulling them
        # toward 1 by 2^-shrink moves the first failure across N = 2, 4, 6
        masses = [1 + (m - 1) / 2**shrink for m in masses]
        if unknown_at < len(masses):
            masses[unknown_at] = None
        tm = TotalMassModulus.constant(start)
        assert _outcome(validate_total_mass_modulus, masses, tm) == _outcome(
            validate_total_mass_modulus_all_pairs, masses, tm
        )

    def test_first_pair_in_window_order_reported(self):
        # window 0..40 at N = 2 (threshold 1/2), masses past 3 all 1: n1 = 1
        # is the first mass that far from the max or min; n2 = 2 is the first
        # mass that far from it, ahead of the max at n = 3
        masses = [Fraction(1), Fraction(3, 4), Fraction(5, 4), Fraction(11, 8)] + [Fraction(1)] * 37
        seq = MeasureSeq(lambda n: _MassOnly(masses[n]))
        with pytest.raises(ContractViolation) as e:
            validate_total_mass_modulus(seq, TotalMassModulus.constant(0))
        assert e.value.witness == (2, 1, 2, Fraction(1, 2))
        assert str(e.value) == (
            "total-mass modulus contract failure: |mu_1(R) - mu_2(R)| = 1/2 >= 2^-1"
        )

    def test_shared_window_fails_only_at_the_stricter_N(self):
        # a constant modulus gives N = 2, 4, 6 the one window 0..40, whose
        # spread is taken once: 3/8 passes 2^-1 and fails 2^-3, at n1 = 0
        # and n2 = 1
        masses = [Fraction(1), Fraction(5, 4), Fraction(11, 8)] + [Fraction(1)] * 38
        seq = MeasureSeq(lambda n: _MassOnly(masses[n]))
        spreads = []
        mass_spread = seq.mass_spread
        seq.mass_spread = lambda lo, hi: spreads.append((lo, hi)) or mass_spread(lo, hi)
        with pytest.raises(ContractViolation) as e:
            validate_total_mass_modulus(seq, TotalMassModulus.constant(0))
        assert spreads == [(0, 40)]
        assert e.value.witness == (4, 0, 1, Fraction(1, 4))
        assert str(e.value) == (
            "total-mass modulus contract failure: |mu_0(R) - mu_1(R)| = 1/4 >= 2^-3"
        )

    @pytest.mark.parametrize("jump_at, fails", [(40, True), (41, False)])
    def test_total_mass_window_is_fixed(self, jump_at, fails):
        # the check reads members of(N) .. of(N) + 40: a mass jump at 40
        # fails it, one at 41 lies past every window of a constant modulus
        seq = MeasureSeq(lambda n: _MassOnly(Fraction(2 if n == jump_at else 1)))
        if not fails:
            assert validate_total_mass_modulus(seq, TotalMassModulus.constant(0)) is None
            return
        with pytest.raises(ContractViolation) as e:
            validate_total_mass_modulus(seq, TotalMassModulus.constant(0))
        assert e.value.witness == (2, 0, 40, Fraction(1))

    def test_valid_total_mass_modulus_passes(self):
        # masses 1 + 2^-n: of(N) = N bounds every window by 2^-N < 2^-(N-1)
        seq = MeasureSeq(lambda n: DiscreteMeasure(((Fraction(0), 1 + _pow2(n)),)))
        tm = TotalMassModulus(lambda N: N)
        assert validate_total_mass_modulus(seq, tm) is None

    def test_lazy_members_unsupported(self):
        seq = MeasureSeq(lambda n: LazyDiscreteMeasure(lambda i: _pow2(i + 1)))
        with pytest.raises(UnsupportedMeasureClass):
            validate_total_mass_modulus(seq, TotalMassModulus.constant(0))

    def test_lazy_members_refused_without_validation(self):
        # Specker members as lazy measures: no exact mass to compare with
        sp = specker_sequence(iter(range(64)))
        lazy = MeasureSeq(lambda n: sp.limit_measure())
        one = co_name_of_poly(constant_func(Fraction(1)))
        with pytest.raises(UnsupportedMeasureClass, match="no exact total mass"):
            vague_to_weak(
                lazy, sp.limit_measure(), TotalMassModulus.constant(0),
                sp.vague_oracle(), one, 1, 2, validate_tm=False,
            )
        # exact masses from member 3 on satisfy tail_mass_bound; the
        # surrogate's mass bound still reads the lazy members 0..2
        mixed = MeasureSeq(lambda n: sp.limit_measure() if n < 3 else DiscreteMeasure.point(0))
        tm = TotalMassModulus(lambda N: 2 if N == 0 else 3)
        with pytest.raises(UnsupportedMeasureClass, match="no exact total mass"):
            polygonal_surrogate(one, 1, 2, mixed, DiscreteMeasure.point(0), tm, lambda f: Modulus.constant(3))

    @pytest.mark.parametrize("lazy_limit", [True, False], ids=["lazy-limit", "discrete-limit"])
    def test_lazy_members_refused_with_the_missing_mass_text(self, lazy_limit):
        # a discrete limit has a mass, so the divergence test reads the
        # member's first; a lazy one has none, and the tail bound reads it
        sp = specker_sequence(iter(range(64)))
        lazy = MeasureSeq(lambda n: sp.limit_measure())
        limit = sp.limit_measure() if lazy_limit else DiscreteMeasure.point(0)
        one = co_name_of_poly(constant_func(Fraction(1)))
        with pytest.raises(UnsupportedMeasureClass) as e:
            vague_to_weak(
                lazy, limit, TotalMassModulus.constant(0), sp.vague_oracle(), one, 1, 2,
                validate_tm=False,
            )
        assert str(e.value) == "unsupported measure class LazyDiscreteMeasure: no exact total mass"

    def test_divergence_test_reads_the_mass_at_precision_N_plus_6(self):
        # mu_n = (1 + 2^-n) delta_0 -> delta_0 with tm.of(N) = N: the mass at
        # tm.of(N + 6) is within 2^-(N+6) of the limit's, the one at tm.of(N)
        # is not, and the answer is a valid index
        seq = MeasureSeq(lambda n: DiscreteMeasure.point(0, 1 + _pow2(n)))
        limit = DiscreteMeasure.point(0)
        tm = TotalMassModulus(lambda N: N)

        def oracle(p):  # |int p dmu_n - int p dmu| = |p(0)| 2^-n
            return Modulus(lambda N: N + p.bound().__ceil__().bit_length())

        one = constant_func(Fraction(1))
        for N in (1, 3, 6):
            idx = vague_to_weak(seq, limit, tm, oracle, co_name_of_poly(one), 1, N)
            for n in range(idx, idx + 8):
                assert abs(integrate_poly(one, seq[n]) - 1) < _pow2(N)

    @pytest.mark.parametrize("N", [-4, 0, 3])
    @pytest.mark.parametrize("over, want_a", [(False, 2), (True, 129)])
    def test_tail_stop_at_its_bound(self, N, over, want_a):
        # each member: mass 1 at 0 and w at 100, outside every tent up to
        # half-width 64, so the gap m_apx - l_apx is w; the loop stops at
        # a = 1 iff m_apx - l_apx + 4 * 2^-(N+5) <= 2^-(N+2), i.e. w <= 2^-(N+3)
        w = _pow2(N + 3) + over * _pow2(N + 40)
        seq = MeasureSeq(lambda n: DiscreteMeasure(((0, 1), (100, w))))
        got = tail_mass_bound(seq, TotalMassModulus.constant(0), lambda p: Modulus.constant(0), N)
        assert got == (want_a, 0)

    @pytest.mark.parametrize("under, want_N", [(False, 2), (True, 4)])
    def test_mass_spread_at_its_bound_fails(self, under, want_N):
        # masses 1 and 3/2: a spread of 2^-1, the bound at N = 2, refutes
        # there; a hair less passes N = 2 and fails the stricter N = 4
        m = Fraction(3, 2) - under * _pow2(40)
        masses = [Fraction(1), m] + [Fraction(1)] * 39
        seq = MeasureSeq(lambda n: _MassOnly(masses[n]))
        with pytest.raises(ContractViolation) as e:
            validate_total_mass_modulus(seq, TotalMassModulus.constant(0))
        assert e.value.witness == (want_N, 0, 1, m - 1)

    @pytest.mark.parametrize("N", [-3, 0, 4])
    @pytest.mark.parametrize("under", [False, True])
    def test_limit_tail_at_its_bound(self, N, under):
        # members delta at 2^-n, the limit delta_0 plus w at 1000: with B = 1
        # the surrogate's tail bound is 2^-(N+6), the divergence test's too.
        # w = 2^-(N+6) passes the divergence test (not above its bound) and
        # is refused by the surrogate (not below its bound); a hair less
        # passes both
        c = deltashrink()
        w = _pow2(N + 6) - under * _pow2(N + 40)
        limit = DiscreteMeasure(((0, 1), (1000, w)))
        one = co_name_of_poly(constant_func(Fraction(1)))
        if under:
            assert vague_to_weak(c.seq, limit, c.tm, c.vague_oracle, one, 1, N) >= 0
            return
        with pytest.raises(ContractViolation, match="more tail mass") as e:
            vague_to_weak(c.seq, limit, c.tm, c.vague_oracle, one, 1, N)
        assert e.value.witness[1] == w

    def test_negative_mass_bound_index_refused(self):
        # tm.of(0) = -1 once read no member and took 2 as the mass bound
        hat, _ = builtin_function("hat")
        atom = DiscreteMeasure.point(0, 5)
        tm = Modulus(lambda N: -1 if N == 0 else 0)
        with pytest.raises(IndexError, match="got -1"):
            polygonal_surrogate(
                co_name_of_poly(hat), 1, 3, MeasureSeq(lambda n: atom), atom, tm,
                lambda q: Modulus.constant(0),
            )
        c = mixture()
        with pytest.raises(IndexError, match="got -1"):
            vague_to_weak(c.seq, c.limit, tm, c.vague_oracle, co_name_of_poly(hat), 1, 3)

    def test_mass_escape_reported_as_divergence(self):
        dn = deltan()
        one = constant_func(Fraction(1))
        with pytest.raises(DivergenceDetected):
            vague_to_weak(dn.seq, dn.limit, dn.tm, dn.vague_oracle, co_name_of_poly(one), 1, 3)


def _call_outcome(call):
    """``("ok", value)``, or the type, message and witness of what ``call()`` raised."""
    try:
        return "ok", call()
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "witness", None)


_LOC = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 8)))
_WEIGHT = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 5, 8)))
_FAMILY = st.lists(st.tuples(_LOC, _WEIGHT, st.integers(0, 1)), min_size=1, max_size=4)
# zero-outside polygons with vertices on the 1/8 grid
_POLY = st.builds(
    lambda xs, ys: PolyFunc(
        ((xs[0] - 1, Fraction(0)), *zip(xs, ys), (xs[-1] + 1, Fraction(0))), "zero-outside"
    ),
    st.lists(st.integers(-24, 24).map(lambda k: Fraction(k, 8)), min_size=1, max_size=4, unique=True).map(sorted),
    st.lists(st.integers(-16, 16).map(lambda k: Fraction(k, 8)), min_size=4, max_size=4),
)


@st.composite
def _chain_inputs(draw):
    """(seq, limit, tm, oracle, p, opaque, N) for the vague => weak chain: a
    random drifting family or the divergent deltan, its members scaled by
    1 + 2^-(n+s) or not (moving masses make a total-mass modulus fail), its
    limit with or without an extra atom of mass 2^-(N+t) far out, a
    total-mass modulus that may give a negative index at 0, and a builtin
    or random polygon, named with or without its exact backing (without it,
    the fit reads the tolerance the chain hands it)."""
    N = draw(st.integers(-12, 12))
    atoms = draw(st.one_of(st.none(), _FAMILY))
    c = deltan() if atoms is None else DriftingAtomFamily(atoms).corpus("random")
    seq, limit = c.seq, c.limit
    s = draw(st.one_of(st.none(), st.integers(0, 4)))
    if s is not None:
        base = c.seq
        seq = MeasureSeq(
            lambda n: DiscreteMeasure(tuple((x, w * (1 + _pow2(n + s))) for x, w in base[n].atoms))
        )
    t = draw(st.one_of(st.none(), st.integers(3, 9)))
    if t is not None:
        far = Fraction(draw(st.sampled_from((-40, 1000))))
        limit = DiscreteMeasure(limit.atoms + ((far, _pow2(N + t)),))
    k = draw(st.integers(0, 6))
    tm = draw(st.sampled_from((
        lambda: Modulus.constant(k),
        lambda: Modulus(lambda M: max(0, M + k)),
        lambda: Modulus(lambda M: -1 if M == 0 else k),
    )))()
    fname = draw(st.sampled_from(("constant-one", "hat", "clamped-identity", "zero", "random")))
    p = draw(_POLY) if fname == "random" else builtin_function(fname)[0]
    # an opaque name's range-box fit grows about as 2^(N/2) vertices
    opaque = N <= 2 and draw(st.booleans())
    return seq, limit, tm, c.vague_oracle, p, opaque, N


class TestChainAgainstFractionForms:
    """The vague => weak chain compares against 2^-n in ``int``s: every
    return value, exception type, message and witness is the one its
    ``Fraction`` form gives."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=_chain_inputs())
    def test_matches_the_fraction_forms(self, inputs):
        seq, limit, tm, oracle, p, opaque, N = inputs
        name = opaque_name_of(p) if opaque else co_name_of_poly(p)
        B = p.bound().__ceil__()
        pairs = [
            (lambda: vague_to_weak(seq, limit, tm, oracle, name, B, N),
             lambda: vague_to_weak_fraction(seq, limit, tm, oracle, name, B, N)),
            (lambda: tail_mass_bound(seq, tm, oracle, N),
             lambda: tail_mass_bound_fraction(seq, tm, oracle, N)),
            (lambda: polygonal_surrogate(name, B, N, seq, limit, tm, oracle),
             lambda: polygonal_surrogate_two_builds(name, B, N, seq, limit, tm, oracle)),
        ]
        if p.extension == "zero-outside":
            f = SupportedFunc(name, supported_from_poly(p).support)
            pairs.append((lambda: uniformize_vague(seq, limit, oracle, f, N),
                          lambda: uniformize_vague_fraction(seq, limit, oracle, f, N)))
        for got, want in pairs:
            assert _call_outcome(got) == _call_outcome(want)

    @pytest.mark.parametrize("family", ["deltashrink", "mixture"])
    @pytest.mark.parametrize("fname", ["hat", "constant-one"])
    def test_negative_precisions(self, family, fname):
        p, _ = builtin_function(fname)
        name = co_name_of_poly(p)
        for N in range(-12, 3):
            c = corpus_by_name(family)
            assert _call_outcome(
                lambda: vague_to_weak(c.seq, c.limit, c.tm, c.vague_oracle, name, 1, N)
            ) == _call_outcome(
                lambda: vague_to_weak_fraction(c.seq, c.limit, c.tm, c.vague_oracle, name, 1, N)
            )
            if p.extension == "zero-outside":
                f = supported_from_poly(p)
                assert uniformize_vague(c.seq, c.limit, c.vague_oracle, f, N) == (
                    uniformize_vague_fraction(c.seq, c.limit, c.vague_oracle, f, N)
                )

    @pytest.mark.parametrize("N", [-12, -2, 0, 5])
    def test_surrogate_tolerance_is_the_fraction_form(self, N, monkeypatch):
        # 2^-(N+1) / (m + 2 + 1), m the largest mass of members 0..tm.of(0)
        masses = [Fraction(1), Fraction(7, 3), Fraction(2)]
        seq = MeasureSeq(lambda n: DiscreteMeasure.point(0, masses[min(n, 2)]))
        seen = []
        window = convergence._window_lattice
        monkeypatch.setattr(
            convergence, "_window_lattice", lambda f, a, b, tol: seen.append(tol) or window(f, a, b, tol)
        )
        tm = Modulus(lambda M: 2 if M == 0 else 3)
        one = co_name_of_poly(constant_func(Fraction(1)))
        polygonal_surrogate(one, 1, N, seq, DiscreteMeasure.point(0, 2), tm, lambda q: Modulus.constant(3))
        assert seen == [_pow2(N + 1) / (Fraction(7, 3) + 2 + 1)]


# every converter that asks a vague oracle, on the mixture corpus
ORACLE_CALLERS = {
    "uniformize_vague": lambda c, o: uniformize_vague(c.seq, c.limit, o, supported_from_poly(HAT), 4),
    "vague_to_weak": lambda c, o: vague_to_weak(
        c.seq, c.limit, c.tm, o, co_name_of_poly(constant_func(Fraction(1))), 1, 3
    ),
    "tail_mass_bound": lambda c, o: tail_mass_bound(c.seq, c.tm, o, 4),
    "interval_mass_lower": lambda c, o: limit_from_vague(
        c.seq, o, CauchyReal.from_rational(1)
    ).interval_mass_lower(Fraction(-1), Fraction(1)).bound(4),
}


class TestNoSupportNames:
    def test_converters_build_no_compact_open_name_on_discrete_members(self, monkeypatch):
        c = mixture()
        f, one = supported_from_poly(HAT), co_name_of_poly(constant_func(Fraction(1)))
        calls = {
            "uniformize_vague": lambda: uniformize_vague(c.seq, c.limit, c.vague_oracle, f, 4),
            "vague_to_weak": lambda: vague_to_weak(c.seq, c.limit, c.tm, c.vague_oracle, one, 1, 3),
            "tail_mass_bound": lambda: tail_mass_bound(c.seq, c.tm, c.vague_oracle, 4),
            "interval_mass_lower": lambda: limit_from_vague(
                c.seq, c.vague_oracle, CauchyReal.from_rational(1)
            ).interval_mass_lower(Fraction(-1), Fraction(1)).bound(4),
        }
        built = []
        init = CompactOpenName.__init__

        def record(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CompactOpenName, "__init__", record)
        for name, call in calls.items():
            call()
            assert built == [], name
        assert all(isinstance(c.seq[n], DiscreteMeasure) for n in range(8))
        supported_from_poly(HAT)  # the recorder sees a build
        assert len(built) == 1


class TestVagueOracleContract:
    @pytest.mark.parametrize("call", ORACLE_CALLERS.values(), ids=ORACLE_CALLERS)
    def test_oracle_is_asked_only_about_zero_outside_polygons(self, call):
        c = mixture()
        asked = []
        call(c, lambda p: asked.append(p) or c.vague_oracle(p))
        assert asked
        assert all(isinstance(p, PolyFunc) and p.extension == "zero-outside" for p in asked)


class TestLimitReconstruction:
    def test_interval_masses(self):
        c = deltashrink()
        rec = limit_from_vague(c.seq, c.vague_oracle, CauchyReal.from_rational(1))
        for (a, b, expect) in ((-1, 1, 1), (0, 1, 0), (1, 2, 0)):
            val = rec.interval_mass_lower(Fraction(a), Fraction(b)).bound(12)
            assert abs(val - expect) <= _pow2(10)

    def test_open_mass_from_components(self):
        c = deltashrink()
        rec = limit_from_vague(c.seq, c.vague_oracle, CauchyReal.from_rational(1))
        U = exact_open([(Fraction(-2), Fraction(-1)), (Fraction(-1, 2), Fraction(1, 2))])
        assert abs(rec.open_mass(U).bound(12) - 1) <= _pow2(10)


class TestPortmanteau:
    """Cut witnesses through ``check_cut``, region masses through ``check_modulus``."""

    C = pi_from_complement([(Fraction(1, 2), Fraction(1))])  # mu(C) = 0 for deltashrink

    @staticmethod
    def closed_mass(seq, C):
        return lambda n: seq[n].mass_closed(C.closed_components)

    @staticmethod
    def open_mass(seq, U):
        return lambda n: seq[n].region_mass_open(U.components)

    def test_closed_limsup_pass_and_fail(self):
        c = deltashrink()
        mu_c = c.limit.mass_closed(self.C.closed_components)
        member = self.closed_mass(c.seq, self.C)
        assert check_cut(0, 2, Fraction(1, 4), mu_c, member, 20).passed
        bad = check_cut(0, 2, Fraction(-1, 4), mu_c, member, 20)  # not in the right cut
        assert bad.rows == [CheckRow(0, -1, -1, Fraction(-1, 4), mu_c, False)]

    def test_open_liminf(self):
        c = deltashrink()
        U = exact_open([(Fraction(-1), Fraction(1))])  # mu(U) = 1
        mu_u = c.limit.region_mass_open(U.components)
        rep = check_cut(0, 1, Fraction(1, 2), mu_u, self.open_mass(c.seq, U), 20, above=True)
        assert rep.passed and len(rep.rows) == 21

    def test_cut_boundary_is_not_in_the_cut(self):
        # r must be strictly past the limit's value: r == cut is refused on
        # both sides, and so is r on the wrong side or a missing index
        c = deltashrink()
        mu_c = c.limit.mass_closed(self.C.closed_components)
        U = exact_open([(Fraction(-1), Fraction(1))])
        mu_u = c.limit.region_mass_open(U.components)
        closed, opened = self.closed_mass(c.seq, self.C), self.open_mass(c.seq, U)
        for r, cut, member, above in (
            (mu_c, mu_c, closed, False),
            (mu_c - Fraction(1, 4), mu_c, closed, False),
            (mu_u, mu_u, opened, True),
            (mu_u + Fraction(1, 4), mu_u, opened, True),
        ):
            rep = check_cut(3, 2, r, cut, member, 2, above=above)
            assert rep.rows == [CheckRow(3, -1, -1, r, cut, False)]
        rep = check_cut(3, None, mu_c + 1, mu_c, closed, 2)
        assert rep.rows == [CheckRow(3, -1, -1, mu_c + 1, mu_c, False)]

    def test_cut_window_rows(self):
        c = deltashrink()
        rep = check_cut(2, 4, Fraction(1, 4), Fraction(0), self.closed_mass(c.seq, self.C), 2)
        assert rep.rows == [CheckRow(2, 4, n, Fraction(0), Fraction(1, 4), True) for n in (4, 5, 6)]

    def test_almost_decidable_mode(self):
        from effmeas import almost_decidable_ball

        c = deltashrink()
        _, pair = almost_decidable_ball(c.limit, Fraction(0), Fraction(1))
        mod = c.ad_modulus(pair)
        rep = check_modulus(
            self.open_mass(c.seq, pair.U),
            c.limit.region_mass_open(pair.U.components),
            mod,
            (1, 3, 5),
            Fuel(20),
        )
        assert rep.passed

    @staticmethod
    def lazy_limit():
        # a null test, but no exact region masses
        return LazyDiscreteMeasure(lambda i: _pow2(i + 1))

    # the cut and the target are the limit's values, so the limit refuses
    # before any member is read
    def test_open_liminf_lazy_limit_unsupported(self):
        U = exact_open([(Fraction(-1), Fraction(1))])
        seq = deltashrink().seq
        with pytest.raises(UnsupportedMeasureClass):
            check_cut(
                0, 1, Fraction(1, 2), self.lazy_limit().region_mass_open(U.components),
                self.open_mass(seq, U), 20, above=True,
            )

    def test_almost_decidable_lazy_limit_unsupported(self):
        from effmeas import almost_decidable_ball

        _, pair = almost_decidable_ball(self.lazy_limit(), Fraction(1, 2), Fraction(1))
        seq = deltashrink().seq
        with pytest.raises(UnsupportedMeasureClass):
            check_modulus(
                self.open_mass(seq, pair.U),
                self.lazy_limit().region_mass_open(pair.U.components),
                Modulus.constant(0),
                (1,),
                Fuel(20),
            )


# ---------------------------------------------------------------------------
# exact outputs of the vague side, pinned


F = Fraction
PIN_FAMILIES = ("deltashrink", "mixture", "deltadrift")
PIN_FUNCTIONS = ("constant-one", "hat", "clamped-identity")
# int f dmu_n within 2^-8 for n = 0, 3, 7: a SupportedFunc for hat, a
# bounded (name, B) pair for the other two
PINNED_INTEGRALS = {
    ('deltashrink', 'constant-one'): (F(1, 1), F(1, 1), F(1, 1)),
    ('deltashrink', 'hat'): (F(4, 5), F(1, 10), F(1, 160)),
    ('deltashrink', 'clamped-identity'): (F(1, 1), F(1, 8), F(1, 128)),
    ('mixture', 'constant-one'): (F(1, 1), F(1, 1), F(1, 1)),
    ('mixture', 'hat'): (F(1, 5), F(9, 20), F(129, 320)),
    ('mixture', 'clamped-identity'): (F(1, 2), F(1, 2), F(1, 2)),
    ('deltadrift', 'constant-one'): (F(1, 1), F(1, 1), F(1, 1)),
    ('deltadrift', 'hat'): (F(2, 5), F(9, 10), F(129, 160)),
    ('deltadrift', 'clamped-identity'): (F(1, 1), F(1, 1), F(1, 1)),
}
PINNED_POLYS = (
    ((F(-1), F(0)), (F(0), F(1)), (F(1), F(0))),
    ((F(-3, 2), F(0)), (F(-1, 16), F(-2)), (F(5, 8), F(3, 4)), (F(9, 4), F(0))),
    ((F(0), F(0)), (F(1, 3), F(5)), (F(2, 3), F(5)), (F(1), F(0)), (F(7, 5), F(-1, 7)), (F(3), F(0))),
)
# uniformize_vague at N = 1, 4, 8, 12, the same on every family
PINNED_UNIFORMIZE = {0: (3, 6, 10, 14), 1: (5, 8, 12, 16), 2: (6, 9, 13, 17)}
PINNED_SPECKER_PERM = (5, 0, 11, 3, 8, 1, 14, 9, 2, 13, 6, 10, 4, 15, 7, 12)
# interval_mass_lower((a, b)).bound(t) for t = 0..13
PINNED_SPECKER = {
    (F(-1, 2), F(5, 2)): (
        F(65, 12288), F(1601, 6144), F(1601, 4096), F(1857, 4096),
        F(1985, 4096), F(2049, 4096), F(2081, 4096), F(2097, 4096),
        F(2105, 4096), F(2109, 4096), F(2111, 4096), F(33, 64),
        F(4225, 8192), F(8451, 16384),
    ),
    (F(3, 4), F(29, 4)): (
        F(0, 1), F(30189, 212992), F(146485, 425984), F(238773, 425984),
        F(25705, 32768), F(26217, 32768), F(26473, 32768), F(26601, 32768),
        F(26665, 32768), F(26697, 32768), F(26713, 32768), F(26721, 32768),
        F(26725, 32768), F(26727, 32768),
    ),
    (F(2, 1), F(13, 1)): (
        F(0, 1), F(61185, 360448), F(118769, 360448), F(13683, 32768),
        F(14707, 32768), F(15219, 32768), F(15475, 32768), F(15603, 32768),
        F(15667, 32768), F(15699, 32768), F(15715, 32768), F(15723, 32768),
        F(15727, 32768), F(15729, 32768),
    ),
}


class TestPinnedExactOutputs:
    """Exact outputs of the vague side, computed with the per-atom
    ``Fraction`` integration and the range-box rebuild of exactly backed
    names that the lattice moments and the backing rule replaced: a change
    of integration cost must leave every one of them as it is."""

    @pytest.mark.parametrize("family", PIN_FAMILIES)
    @pytest.mark.parametrize("fname", PIN_FUNCTIONS)
    def test_vague_to_weak_indices(self, family, fname):
        p, _ = builtin_function(fname)
        c = corpus_by_name(family)
        got = [
            vague_to_weak(c.seq, c.limit, c.tm, c.vague_oracle, co_name_of_poly(p), int(p.bound().__ceil__()), N)
            for N in range(1, 13)
        ]
        assert got == list(range(11, 23))  # the same on every pair

    @pytest.mark.parametrize("family", PIN_FAMILIES)
    @pytest.mark.parametrize("fname", PIN_FUNCTIONS)
    def test_integrals(self, family, fname):
        p, kind = builtin_function(fname)
        f = supported_from_poly(p) if kind == "supported" else (co_name_of_poly(p), int(p.bound().__ceil__()))
        c = corpus_by_name(family)
        got = tuple(integrate_named(f, c.seq[n], 8) for n in (0, 3, 7))
        assert got == PINNED_INTEGRALS[family, fname]

    @pytest.mark.parametrize("family", PIN_FAMILIES)
    @pytest.mark.parametrize("i", sorted(PINNED_UNIFORMIZE))
    def test_uniformize_indices(self, family, i):
        c = corpus_by_name(family)
        f = supported_from_poly(PolyFunc(PINNED_POLYS[i], "zero-outside"))
        got = tuple(uniformize_vague(c.seq, c.limit, c.vague_oracle, f, N) for N in (1, 4, 8, 12))
        assert got == PINNED_UNIFORMIZE[i]

    @pytest.mark.parametrize("interval", sorted(PINNED_SPECKER))
    def test_specker_lower_bounds(self, interval):
        total = sum((_pow2(v + 1) for v in PINNED_SPECKER_PERM), Fraction(0))
        sp = specker_sequence(iter(PINNED_SPECKER_PERM))
        rec = limit_from_vague(sp.seq, sp.vague_oracle(), CauchyReal.from_rational(total))
        lower = rec.interval_mass_lower(*interval)
        assert tuple(lower.bound(t) for t in range(14)) == PINNED_SPECKER[interval]


class TestSurrogateBuild:
    """psi of :func:`polygonal_surrogate` on the pinned families and functions."""

    @pytest.mark.parametrize("family", PIN_FAMILIES)
    @pytest.mark.parametrize("fname", PIN_FUNCTIONS)
    def test_surrogate_equals_the_two_build_oracle_and_is_built_once(self, family, fname, monkeypatch):
        p, _ = builtin_function(fname)
        B = int(p.bound().__ceil__())
        c = corpus_by_name(family)
        built = []
        post_init, from_ints = PolyFunc.__post_init__, PolyFunc.from_ints

        def record(self):
            post_init(self)
            built.append(self.vertices)

        def record_ints(*args):
            p = from_ints(*args)
            built.append(p.vertices)
            return p

        for N in range(1, 11):
            want = polygonal_surrogate_two_builds(co_name_of_poly(p), B, N, c.seq, c.limit, c.tm, c.vague_oracle)
            with monkeypatch.context() as m:
                m.setattr(PolyFunc, "__post_init__", record)
                m.setattr(PolyFunc, "from_ints", record_ints)
                got = polygonal_surrogate(co_name_of_poly(p), B, N, c.seq, c.limit, c.tm, c.vague_oracle)
            assert got == want
            psi = got[2]
            assert built.count(psi.vertices) == 1
            assert psi.vertices[1:-1] not in built  # no polygon of the fit alone
            built.clear()
