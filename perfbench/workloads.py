"""The three workloads: their seeded inputs, job lists and answer checks.

A job is one certified answer a user of effmeas waits for.  Each job builds
its corpora, functions and file readers afresh, so every round of a run
repeats exactly the same work and no memo carries over between rounds.
Each job carries a check against ``oracles`` (closed forms, a greedy
transport, plain piecewise-linear sums) and, where one is known to be wrong
by a separate argument, a deliberately wrong answer for the self-check.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import oracles
from oracles import pow2

LAYERS = (
    "cli", "fileformat", "corpora", "prokhorov", "convergence", "measures",
    "functions", "sets", "reals", "streams", "codes", "errors",
)


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    # check(answer, answers of the round by label) -> error text or None
    check: Callable[[object, dict], Optional[str]]
    kind: str
    # answers known wrong by a separate argument, for the self-check
    wrongs: tuple[Callable[[object], object], ...] = ()


def load_effmeas() -> SimpleNamespace:
    importlib.import_module("effmeas")
    return SimpleNamespace(
        **{name: importlib.import_module(f"effmeas.{name}") for name in LAYERS}
    )


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _write_discrete(path, atoms) -> str:
    path.write_text(
        "discrete\n" + "".join(f"atom {_frac(x)} {_frac(w)}\n" for x, w in atoms)
    )
    return str(path)


def _write_density(path, vertices) -> str:
    path.write_text(
        "polydensity\n" + "".join(f"{_frac(x)} {_frac(y)}\n" for x, y in vertices)
    )
    return str(path)


def _off(ans):
    return (ans[0] + pow2(20),)


# ---------------------------------------------------------------------------
# prokhorov: exact distances and certified bounds through the CLI

PROKHOROV_KS = (3, 4, 5, 6)  # 2^k atoms per measure
DENSITY_NS = (3, 4, 5)  # --precision of the density pairs
DENSITY_WIDTH = Fraction(1, 4)
DENSITY_SHIFT = Fraction(3, 32)  # at most the width, so rho = h/2
DENSITY_PEAK = Fraction(5, 64)  # of the triangle, inside (0, width)


def _random_atoms(rng: random.Random, n: int):
    """n distinct locations on the 2^-10 grid in [-2, 2), weights summing to 1."""
    locs = rng.sample(range(-2048, 2048), n)
    ws = [rng.randint(1, 16) for _ in locs]
    tot = sum(ws)
    return [(Fraction(x, 1024), Fraction(w, tot)) for x, w in zip(locs, ws)]


def _moved(atoms, sign: int, offset: Fraction):
    return sorted((sign * x + offset, w) for x, w in atoms)


def _small_atoms(rng: random.Random, n: int):
    locs = rng.sample(range(-64, 65), n)
    return sorted((Fraction(x, 16), Fraction(rng.randint(1, 8), 16)) for x in locs)


def _uniform(a: Fraction, b: Fraction):
    """The vertices PolyDensityMeasure.uniform gives: 2^-20-relative ramps."""
    e = (b - a) / 2**20
    return [(a - e, Fraction(0)), (a, Fraction(1)), (b, Fraction(1)), (b + e, Fraction(0))]


def _cli_job(m, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = m.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"effmeas {' '.join(argv)} exited {code}")
        return tuple(Fraction(tok) for tok in buf.getvalue().splitlines()[0].split())

    return run


def _check_infimum(a, b):
    def check(ans, _results):
        if not oracles.prokhorov_infimum_ok(a, b, ans[0]):
            return f"{ans[0]} is not the infimum of the valid eps"
        return None

    return check


def _check_equal(expect):
    def check(ans, _results):
        return None if ans == (expect,) else f"got {ans}, expected {expect}"

    return check


def _check_bruteforce(m, a, b):
    infimum = _check_infimum(a, b)

    def check(ans, results):
        ref = m.prokhorov.prokhorov_discrete_bruteforce(
            m.measures.DiscreteMeasure(tuple(a)), m.measures.DiscreteMeasure(tuple(b))
        )
        if ans != (ref,):
            return f"got {ans}, brute force gives {ref}"
        return infimum(ans, results)

    return check


def _check_bounds(n: int, prev_label: Optional[str], centre: Optional[Fraction]):
    """0 <= lo <= hi, hi - lo <= 2^-n, overlap with n-1, and h/2 bracketed."""
    # The ramps of a uniform density move at most 2^-20 of its mass, which
    # moves the distance by at most that much on either measure.
    slack = pow2(19)

    def check(ans, results):
        if len(ans) != 2:
            return f"expected two bounds, got {ans}"
        lo, hi = ans
        if not 0 <= lo <= hi or hi - lo > pow2(n):
            return f"bounds {lo}, {hi} are not 0 <= lo <= hi within 2^-{n}"
        prev = results.get(prev_label)
        if prev is not None and max(lo, prev[0]) > min(hi, prev[1]):
            return f"bounds {ans} do not overlap those at n={n - 1}: {prev}"
        if centre is not None and not (lo <= centre + slack and centre - slack <= hi):
            return f"bounds {ans} do not bracket h/2 = {centre}"
        return None

    return check


def prokhorov_setup(seed: int, workdir) -> list[Job]:
    m = load_effmeas()
    rng = random.Random(seed)
    jobs: list[Job] = []

    def add(label, argv, check, kind, wrongs=(_off,)):
        jobs.append(Job(label, _cli_job(m, argv), check, kind, wrongs))

    # The max-flow time of a pair depends on its shape: one fresh random
    # pair of 64 atoms takes up to 60% longer than another.  So the shapes
    # come from a fixed generator and the seed mirrors and translates them,
    # which changes the rationals but neither the distances nor the work.
    shapes = random.Random(0xEFF)

    def shape(n):
        sign, offset = rng.choice((-1, 1)), Fraction(rng.randint(-1024, 1024), 1024)
        return lambda: _moved(_random_atoms(shapes, n), sign, offset)

    for k in PROKHOROV_KS:
        move = shape(2**k)
        a, b = move(), move()
        pa = _write_discrete(workdir / f"rand{k}a.measure", a)
        pb = _write_discrete(workdir / f"rand{k}b.measure", b)
        add(f"random-2^{k}", ["prokhorov", pa, pb], _check_infimum(a, b), "infimum")
    for k in PROKHOROV_KS:
        # below half the 2^-10 atom spacing, so the distance is exactly h
        h = Fraction(rng.randint(1, 31), 2**16)
        a = shape(2**k)()
        pa = _write_discrete(workdir / f"shift{k}a.measure", a)
        pb = _write_discrete(workdir / f"shift{k}b.measure", [(x + h, w) for x, w in a])
        add(f"shifted-2^{k}", ["prokhorov", pa, pb], _check_equal(h), "closed-form")
    for i in range(4):
        x = Fraction(rng.randint(-128, 128), 64)
        y = x + Fraction(rng.randint(1, 63) if i % 2 else rng.randint(65, 192), 64)
        pa = _write_discrete(workdir / f"dirac{i}a.measure", [(x, Fraction(1))])
        pb = _write_discrete(workdir / f"dirac{i}b.measure", [(y, Fraction(1))])
        add(f"dirac-{i}", ["prokhorov", pa, pb], _check_equal(oracles.dirac_distance(x, y)), "closed-form")
    for n in (3, 4, 5, 6):
        a, b = _small_atoms(rng, n), _small_atoms(rng, n)
        pa = _write_discrete(workdir / f"small{n}a.measure", a)
        pb = _write_discrete(workdir / f"small{n}b.measure", b)
        add(f"small-{n}", ["prokhorov", pa, pb], _check_bruteforce(m, a, b), "bruteforce")

    # The density pairs take no seed: moving them by a multiple of the grid
    # pitch, which leaves the bounds alone, still changed the time of the
    # n = 3 pair by 20 %, and that pair sits at the median job.
    w, h, c = DENSITY_WIDTH, DENSITY_SHIFT, DENSITY_PEAK
    pu = _write_density(workdir / "uniform.measure", _uniform(Fraction(0), w))
    pv = _write_density(workdir / "uniform-shift.measure", _uniform(h, w + h))
    pt = _write_density(
        workdir / "triangle.measure",
        [(Fraction(0), Fraction(0)), (c, 2 / w), (w, Fraction(0))],
    )
    for name, other, centre in (("uniform-shift", pv, h / 2), ("uniform-triangle", pt, None)):
        for n in DENSITY_NS:
            prev = f"{name}-n{n - 1}" if n > DENSITY_NS[0] else None
            add(
                f"{name}-n{n}",
                ["prokhorov", pu, other, "--precision", str(n)],
                _check_bounds(n, prev, centre),
                "bounds",
                wrongs=(lambda ans, n=n: (ans[0], ans[1] + pow2(n) + pow2(20)),),
            )
    return jobs


# ---------------------------------------------------------------------------
# weak-to-prokhorov: eps-functions and limsup witnesses

EPS_NS = tuple(range(1, 7))
EPS_WINDOW = 3  # members past the eps index whose distance the job reports
WITNESS_WINDOW = 8


def _eps_job(m, family: str, params: dict, N: int) -> Job:
    def run():
        c = m.corpora.corpus_by_name(family, **params)
        idx = m.prokhorov.eps_from_weak(c.seq, c.limit, c.ad_modulus, N)
        dists = {
            n: m.prokhorov.prokhorov_discrete(c.seq[n], c.limit)
            for n in range(idx, idx + EPS_WINDOW + 1)
        }
        return idx, dists

    def check(ans, _results):
        idx, dists = ans
        if not isinstance(idx, int) or idx < 1:
            return f"eps index {idx!r} is not a positive index"
        for n in range(idx, idx + EPS_WINDOW + 1):
            if oracles.drift_distance(family, n, params) >= pow2(N):
                return f"rho(mu_{n}, mu) is not below 2^-{N}"
        for n, d in dists.items():
            if d != oracles.drift_distance(family, n, params):
                return f"rho(mu_{n}, mu) = {d}, closed form gives {oracles.drift_distance(family, n, params)}"
        return None

    # rho(mu_N, mu) = min(2^-N, a) = 2^-N since every drifting mass a >= 1/2,
    # so index N is refuted; so is any distance off by 2^-20.
    wrongs = (
        lambda ans: (N, ans[1]),
        lambda ans: (ans[0], {n: d + pow2(20) for n, d in ans[1].items()}),
    )
    return Job(f"eps-{family}-N{N}", run, check, "eps-closed-form", wrongs)


def _witness_job(m, i: int, r: Fraction) -> Job:
    C = ((Fraction(0), Fraction(1)),)
    above = r > oracles.closed_mass(oracles.family_atoms("deltadrift", None, {}), *C[0])

    def run():
        c = m.corpora.deltadrift()
        eps = m.prokhorov.eps_function(c.seq, c.limit, c.ad_modulus)
        return m.prokhorov.witness_from_eps(
            c.seq, c.limit, eps, m.sets.pi_from_complement(C), r
        )

    def check(ans, _results):
        if not above:
            return None if ans == m.prokhorov.NOT_IN_CUT else f"r={r} is not in the cut, got {ans!r}"
        if not isinstance(ans, int) or ans < 0:
            return f"r={r} is in the cut, got {ans!r}"
        for n in range(ans, ans + WITNESS_WINDOW + 1):
            if oracles.closed_mass(oracles.family_atoms("deltadrift", n, {}), *C[0]) >= r:
                return f"mu_{n}(C) >= {r}"
        return None

    def wrong(_ans):
        return m.prokhorov.NOT_IN_CUT if above else 0

    return Job(f"witness-{i}-{r}", run, check, "witness", (wrong,))


def weak_to_prokhorov_setup(seed: int, workdir) -> list[Job]:
    m = load_effmeas()
    rng = random.Random(seed)
    w2 = Fraction(rng.randint(8, 14), 16)
    families = (
        ("mixture", {"w1": 1 - w2, "w2": w2}),
        ("deltashrink", {}),
        ("deltadrift", {"loc": Fraction(rng.choice((-1, 1)))}),
    )
    jobs = [_eps_job(m, fam, params, N) for fam, params in families for N in EPS_NS]
    # mu([0, 1]) = 1 for the limit of deltadrift.  r - 1 in (2^-j, 2^-(j-1))
    # makes witness_from_eps ask eps for precision j + 1, so the seed moves
    # r but not the work.
    above = [1 + pow2(j) * (1 + Fraction(rng.randint(1, 15), 16)) for j in range(1, 6)]
    below = [Fraction(1)] + [Fraction(rng.randint(0, 15), 16) for _ in range(4)]
    jobs += [_witness_job(m, i, r) for i, r in enumerate(above + below)]
    return jobs


# ---------------------------------------------------------------------------
# vague-to-weak: converters and scans on the vague side

V2W_FAMILIES = ("deltashrink", "mixture", "deltadrift")
V2W_FUNCTIONS = ("constant-one", "hat", "clamped-identity")
V2W_NS = tuple(range(1, 11))
INDEX_WINDOW = 4
UNIFORMIZE_POLYS = 8
UNIFORMIZE_NS = (2, 4, 6, 8, 10)
SPECKER_ATOMS = 48
SPECKER_STEPS = 10
DIVERGED = "divergence detected"


def _check_window(family: str, vertices, extension: str, N: int):
    """|int f dmu_n - int f dmu| < 2^-N on a window past the returned index."""
    lim = oracles.pl_integral(vertices, extension, oracles.family_atoms(family, None, {}))

    def check(ans, _results):
        if not isinstance(ans, int) or ans < 0:
            return f"index {ans!r} is not a natural number"
        for n in range(ans, ans + INDEX_WINDOW + 1):
            atoms = oracles.family_atoms(family, n, {})
            if abs(oracles.pl_integral(vertices, extension, atoms) - lim) >= pow2(N):
                return f"member {n} is not 2^-{N}-close to the limit integral"
        return None

    return check


def _v2w_wrongs(family: str, fname: str, N: int):
    # On deltashrink int f dmu_n is 2^-n for clamped-identity and
    # (4/5) 2^-n for hat, so indices N and N-1 are refuted.  Elsewhere no
    # index is known wrong without the check's own computation.
    if family != "deltashrink" or fname == "constant-one":
        return ()
    bad = N if fname == "clamped-identity" else N - 1
    return (lambda _ans: bad,)


def _v2w_job(m, family: str, fname: str, N: int) -> Job:
    poly, _ = m.corpora.builtin_function(fname)

    def run():
        c = m.corpora.corpus_by_name(family)
        p, _ = m.corpora.builtin_function(fname)
        return m.convergence.vague_to_weak(
            c.seq, c.limit, c.tm, c.vague_oracle,
            m.functions.co_name_of_poly(p), int(p.bound().__ceil__()), N,
        )

    check = _check_window(family, poly.vertices, poly.extension, N)
    return Job(f"v2w-{family}-{fname}-N{N}", run, check, "window", _v2w_wrongs(family, fname, N))


def _random_polygon(rng: random.Random):
    """A compactly supported polygon with vertices on the 1/16 grid in [-3, 3]."""
    xs = sorted({Fraction(rng.randint(-48, 48), 16) for _ in range(rng.randint(1, 5))})
    return (
        [(xs[0] - 1, Fraction(0))]
        + [(x, Fraction(rng.randint(-16, 16), 8)) for x in xs]
        + [(xs[-1] + 1, Fraction(0))]
    )


def _uniformize_job(m, i: int, family: str, vertices, N: int) -> Job:
    def run():
        c = m.corpora.corpus_by_name(family)
        f = m.functions.supported_from_poly(m.functions.PolyFunc(tuple(vertices), "zero-outside"))
        return m.convergence.uniformize_vague(c.seq, c.limit, c.vague_oracle, f, N)

    check = _check_window(family, vertices, "zero-outside", N)
    return Job(f"uniformize-{i}-{family}-N{N}", run, check, "window")


def _specker_job(m, i: int, perm, a: Fraction, b: Fraction) -> Job:
    exact = oracles.specker_interval_mass(perm, a, b)
    total = sum((pow2(v + 1) for v in perm), Fraction(0))

    def run():
        sp = m.convergence.specker_sequence(iter(perm))
        rec = m.convergence.limit_from_vague(
            sp.seq, sp.vague_oracle(), m.reals.CauchyReal.from_rational(total)
        )
        lower = rec.interval_mass_lower(a, b)
        return [lower.bound(t) for t in range(SPECKER_STEPS + 1)]

    def check(ans, _results):
        if any(q > exact for q in ans):
            return f"a lower bound exceeds mu(({a}, {b})) = {exact}"
        if any(q1 < q0 for q0, q1 in zip(ans, ans[1:])):
            return "lower bounds decrease"
        return None

    def wrong(ans):
        return ans[:-1] + [exact + pow2(20)]

    return Job(f"specker-{i}-({a},{b})", run, check, "specker", (wrong,))


def _refute_job(m, which: str, N: int) -> Job:
    def run():
        c = m.corpora.deltan()
        one = m.functions.co_name_of_poly(m.functions.constant_func(1))
        try:
            if which == "weak":
                return m.convergence.weak_modulus(c.seq, c.limit, one, 1).of(N)
            return m.convergence.vague_to_weak(c.seq, c.limit, c.tm, c.vague_oracle, one, 1, N)
        except m.errors.DivergenceDetected:
            return DIVERGED

    def check(ans, _results):
        return None if ans == DIVERGED else f"deltan against zero gave {ans!r}"

    return Job(f"refute-{which}-N{N}", run, check, "refutation", (lambda _ans: 0,))


def vague_to_weak_setup(seed: int, workdir) -> list[Job]:
    m = load_effmeas()
    rng = random.Random(seed)
    jobs = [
        _v2w_job(m, fam, fname, N)
        for fam in V2W_FAMILIES
        for fname in V2W_FUNCTIONS
        for N in V2W_NS
    ]
    for i in range(UNIFORMIZE_POLYS):
        verts = _random_polygon(rng)
        fam = ("deltashrink", "mixture")[i % 2]
        jobs += [_uniformize_job(m, i, fam, verts, N) for N in UNIFORMIZE_NS]
    perm = rng.sample(range(SPECKER_ATOMS), SPECKER_ATOMS)
    for i in range(4):
        a = Fraction(rng.randint(-4, 120), 4)
        b = min(a + Fraction(rng.randint(2, 40), 4), Fraction(SPECKER_ATOMS - 8))
        jobs.append(_specker_job(m, i, perm, min(a, b - 1), b))
    jobs += [_refute_job(m, which, N) for which in ("weak", "v2w") for N in (1, 3, 5)]
    return jobs


WORKLOADS = {
    "prokhorov": prokhorov_setup,
    "weak-to-prokhorov": weak_to_prokhorov_setup,
    "vague-to-weak": vague_to_weak_setup,
}
