"""End-to-end acceptance suite.

Each criterion prints one pass/fail line on the real terminal (capture is
suspended for that line) and asserts its own runtime budget.  Everything
is exact rational arithmetic against independent oracles; random cases
are seeded and deterministic.
"""

import random
import time
from fractions import Fraction

import pytest

from effmeas import (
    CauchyReal,
    DivergenceDetected,
    LowerReal,
    Modulus,
    MeasureSeq,
    MonotonicityViolation,
    NameViolation,
    check_modulus,
    closed_neighborhood,
    constant_func,
    eps_function,
    indicator_approx,
    integrate_poly,
    limit_from_vague,
    make_cauchy,
    pi_from_complement,
    prokhorov_discrete,
    prokhorov_discrete_bruteforce,
    specker_sequence,
    supported_from_poly,
    uniformize_vague,
    vague_to_weak,
    witness_from_eps,
)
from effmeas.convergence import Fuel
from effmeas.corpora import builtin_function, deltadrift, deltan, deltashrink, mixture
from effmeas.functions import co_name_of_poly
from effmeas.prokhorov import NOT_IN_CUT
from effmeas.reals import _pow2
from effmeas.sets import dist_point_to_closed, expand_closed, merge_closed
from tests.conftest import rand_discrete, rand_rational, rand_supported_poly


def _criterion(capsys, num: int, label: str, budget_s: float, body) -> None:
    t0 = time.monotonic()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"criterion {num} ({label}): pass  [{elapsed:.1f}s / {budget_s:.0f}s]")
    assert elapsed <= budget_s


def test_criterion_1_prokhorov_oracle_equivalence(capsys):
    def body():
        rng = random.Random(1001)
        for _ in range(200):
            mu, nu = rand_discrete(rng), rand_discrete(rng)
            assert prokhorov_discrete(mu, nu) == prokhorov_discrete_bruteforce(mu, nu)

    _criterion(capsys, 1, "prokhorov distance equals brute-force oracle", 60, body)


def test_criterion_2_weak_to_prokhorov(capsys):
    def body():
        for make in (deltashrink, mixture):
            c = make()
            eps = eps_function(c.seq, c.limit, c.ad_modulus)
            for N in range(1, 9):
                idx = eps.of(N)
                for n in range(idx, idx + 21):
                    assert prokhorov_discrete(c.seq[n], c.limit) < _pow2(N)

    _criterion(capsys, 2, "weak modulus yields a valid eps-function", 60, body)


def test_criterion_3_prokhorov_to_witness(capsys):
    def body():
        c = deltadrift(Fraction(1))
        eps = eps_function(c.seq, c.limit, c.ad_modulus)
        comps = ((Fraction(0), Fraction(1)),)
        C = pi_from_complement(comps)
        assert c.limit.mass_closed(comps) == 1
        for k in range(1, 11):  # ten rationals in the right cut of mu(C) = 1
            r = 1 + Fraction(k, 7)
            idx = witness_from_eps(c.seq, c.limit, eps, C, r)
            assert isinstance(idx, int)
            for n in range(idx, idx + 20):
                assert c.seq[n].mass_closed(comps) < r
        for k in range(10):  # ten rationals at or below mu(C)
            r = Fraction(k, 11)
            assert witness_from_eps(c.seq, c.limit, eps, C, r) == NOT_IN_CUT

    _criterion(capsys, 3, "eps-function yields limsup witnesses", 10, body)


def test_criterion_4_vague_uniformizer(capsys):
    def body():
        for N in range(0, 11):  # closing error-budget identity, symbolically
            assert _pow2(N + 2) + _pow2(N + 1) + _pow2(N + 2) == _pow2(N)
        rng = random.Random(4004)
        corpora = (deltashrink(), mixture())
        for i in range(50):
            p = rand_supported_poly(rng)
            f = supported_from_poly(p)
            c = corpora[i % 2]
            G = Modulus(
                lambda N, c=c, f=f: uniformize_vague(c.seq, c.limit, c.vague_oracle, f, N)
            )
            rep = check_modulus(
                lambda n, c=c, p=p: integrate_poly(p, c.seq[n]),
                integrate_poly(p, c.limit),
                G,
                range(1, 11),
                Fuel(4),
            )
            assert rep.passed

    _criterion(capsys, 4, "uniform vague modulus from per-function data", 120, body)


def test_criterion_5_specker_demo(capsys):
    def body():
        rng = random.Random(5005)
        sp = specker_sequence(iter(range(300)))
        for _ in range(100):
            p = rand_supported_poly(rng)
            comps = p.support_components()
            hull_hi = comps[-1][1] if comps else Fraction(0)
            claimed = max(0, hull_hi.__ceil__() + 1)
            assert sp.vague_modulus(p).of(0) <= max(claimed, 1)
            limit_val = sum(
                (sp.weight(i) * p(Fraction(i)) for i in range(max(0, hull_hi.__floor__()) + 1)),
                Fraction(0),
            )
            for n in range(claimed, claimed + 12):  # exact constancy, tolerance 0
                assert integrate_poly(p, sp.seq[n]) == limit_val
        lower = sp.total_mass_lower()
        vals = [lower.bound(k) for k in range(60)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    _criterion(capsys, 5, "slow-enumeration demo: exact stalling integrals", 30, body)


def test_criterion_6_vague_to_weak_probability(capsys):
    def body():
        for make in (deltashrink, mixture, deltadrift):
            c = make()
            assert all(c.seq[n].exact_total_mass() == 1 for n in range(4))
            for fname in ("constant-one", "hat", "clamped-identity"):
                poly, _ = builtin_function(fname)
                B = int(poly.bound().__ceil__())
                entries = {
                    N: vague_to_weak(
                        c.seq, c.limit, c.tm, c.vague_oracle, co_name_of_poly(poly), B, N
                    )
                    for N in range(1, 9)
                }
                rep = check_modulus(
                    lambda n, c=c, poly=poly: integrate_poly(poly, c.seq[n]),
                    integrate_poly(poly, c.limit),
                    Modulus.from_table(entries),
                    range(1, 9),
                    Fuel(6),
                )
                assert rep.passed
        dn = deltan()
        one = constant_func(Fraction(1))
        with pytest.raises(DivergenceDetected):
            vague_to_weak(dn.seq, dn.limit, dn.tm, dn.vague_oracle, co_name_of_poly(one), 1, 3)

    _criterion(capsys, 6, "vague + total mass implies weak; escape detected", 60, body)


def test_criterion_7_limit_reconstruction(capsys):
    def body():
        c = deltashrink()
        pulls = {"n": 0}

        def counted(n: int):
            pulls["n"] += 1
            return c.seq[n]

        rec = limit_from_vague(
            MeasureSeq(counted), c.vague_oracle, CauchyReal.from_rational(Fraction(1))
        )
        for a, b, expect in ((-1, 1, 1), (0, 1, 0), (1, 2, 0)):
            val = rec.interval_mass_lower(Fraction(a), Fraction(b)).bound(12)
            assert abs(val - expect) <= _pow2(10)
        assert pulls["n"] <= 10_000

    _criterion(capsys, 7, "limit measure reconstructed from vague data", 30, body)


def test_criterion_8_kernel_invariants(capsys):
    def body():
        rng = random.Random(8008)

        # Cauchy-name gap validation: legal wobbles accepted, injected
        # gap violations rejected at the offending index.
        for _ in range(1000):
            q = rand_rational(rng)
            vals = [q + (-1) ** n * _pow2(n + 2) for n in range(8)]
            broken = rng.random() < 0.5
            if broken:
                k = rng.randrange(7)
                vals[k + 1] = vals[k] + _pow2(k) + _pow2(k + 1)
            x = make_cauchy(iter(vals))
            if broken:
                with pytest.raises(NameViolation):
                    for n in range(8):
                        x.approx(n)
            else:
                for n in range(8):
                    assert abs(x.approx(n) - q) <= _pow2(n + 2)

        # LowerReal monotonicity validation.
        for _ in range(1000):
            base = rand_rational(rng)
            vals = [base]
            for _ in range(6):
                vals.append(vals[-1] + abs(rand_rational(rng)) / 8)
            broken = rng.random() < 0.5
            if broken:
                k = rng.randrange(6)
                vals[k + 1] = vals[k] - 1
            lr = LowerReal(iter(vals))
            if broken:
                with pytest.raises(MonotonicityViolation):
                    for n in range(7):
                        lr.bound(n)
            else:
                for n in range(7):
                    assert lr.bound(n) == vals[n]

        # closed_neighborhood soundness on finite rational closed unions.
        for _ in range(1000):
            comps = merge_closed(
                [
                    tuple(sorted((rand_rational(rng), rand_rational(rng))))
                    for _ in range(rng.randrange(1, 4))
                ]
            )
            s = abs(rand_rational(rng)) / 4 + Fraction(1, 64)
            fat = closed_neighborhood(pi_from_complement(comps), s).closed_components
            assert fat == expand_closed(comps, s)
            x = rand_rational(rng)
            in_fat = any(l <= x <= r for l, r in fat)
            assert in_fat == (dist_point_to_closed(x, comps) <= s)

        # T_k monotonicity in k on a 1/64 grid.
        for _ in range(1000):
            a, b = sorted((rand_rational(rng), rand_rational(rng)))
            if a == b:
                b = a + 1
            k = rng.randrange(0, 6)
            tk, tk1 = indicator_approx((a, b), k), indicator_approx((a, b), k + 1)
            for step in range(-8, 9):
                x = (a + b) / 2 + Fraction(step, 64)
                assert tk(x) <= tk1(x) <= (1 if a <= x <= b else 0)

    _criterion(capsys, 8, "kernel name-validation and shape invariants", 60, body)
