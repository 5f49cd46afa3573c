"""Reference computations the benchmark checks effmeas answers against.

Nothing here imports effmeas.  Measures are plain sorted lists of
``(location, weight)`` Fraction pairs and functions are plain vertex lists,
so a fault in the package cannot make its own answers look right.
"""

from __future__ import annotations

from fractions import Fraction


def pow2(n: int) -> Fraction:
    """2^-n as an exact rational."""
    return Fraction(1, 2**n) if n >= 0 else Fraction(2**-n)


# ---------------------------------------------------------------------------
# Prokhorov distance on the line


def deficit(src, dst, eps: Fraction) -> Fraction:
    """sup over atom sets S of src(S) - dst(S^eps), S^eps the open eps-ball.

    On the line the open neighbourhood of a sorted source atom is a window
    of sorted destination atoms whose two ends only move right, so filling
    each source atom from the leftmost destination with capacity left is a
    maximum transport (greedy matching on a convex bipartite graph).  The
    deficit is the source mass that transport cannot place.
    """
    cap = [w for _, w in dst]
    m = len(dst)
    p = 0
    unplaced = Fraction(0)
    for x, w in src:
        while p < m and (dst[p][0] <= x - eps or cap[p] == 0):
            p += 1
        j = p
        while w and j < m and dst[j][0] < x + eps:
            take = min(w, cap[j])
            cap[j] -= take
            w -= take
            j += 1
        unplaced += w
    return unplaced


def prokhorov_valid(a, b, eps: Fraction) -> bool:
    """Does eps satisfy the Prokhorov inequalities in both directions?"""
    return eps > 0 and deficit(a, b, eps) <= eps and deficit(b, a, eps) <= eps


# Distances between distinct candidate levels of the benchmark's discrete
# inputs are at least 2^-26 (locations on the 2^-16 grid, weight
# denominators at most 2^10), so a step of 2^-40 stays between neighbours.
PROBE = pow2(40)


def prokhorov_infimum_ok(a, b, rho: Fraction) -> bool:
    """rho is the infimum of the valid eps: valid just above, invalid below."""
    if rho < 0 or not prokhorov_valid(a, b, rho + PROBE):
        return False
    return rho == 0 or not prokhorov_valid(a, b, rho - PROBE)


def dirac_distance(x: Fraction, y: Fraction) -> Fraction:
    """rho(delta_x, delta_y) = min(|x - y|, 1)."""
    return min(abs(x - y), Fraction(1))


# ---------------------------------------------------------------------------
# integrals of piecewise-linear functions against atoms


def pl_eval(vertices, extension: str, x: Fraction) -> Fraction:
    """A piecewise-linear function through ``vertices`` at ``x``.

    Outside the vertex hull it is 0 (``zero-outside``) or the boundary value
    (``constant-extend``).
    """
    (x0, y0), (xn, yn) = vertices[0], vertices[-1]
    if x < x0:
        return y0 if extension == "constant-extend" else Fraction(0)
    if x > xn:
        return yn if extension == "constant-extend" else Fraction(0)
    for (xa, ya), (xb, yb) in zip(vertices, vertices[1:]):
        if xa <= x <= xb:
            return ya + (yb - ya) * (x - xa) / (xb - xa)
    return y0  # a single vertex and x == x0


def pl_integral(vertices, extension: str, atoms) -> Fraction:
    return sum((w * pl_eval(vertices, extension, x) for x, w in atoms), Fraction(0))


# ---------------------------------------------------------------------------
# atom locations of the builtin families, in closed form


def family_atoms(family: str, n, params: dict):
    """Atoms of member n of a builtin family; n=None gives the limit."""
    shift = Fraction(0) if n is None else pow2(n)
    if family == "deltashrink":
        return [(shift, Fraction(1))]
    if family == "deltadrift":
        return [(params.get("loc", Fraction(1)) + shift, Fraction(1))]
    if family == "mixture":
        w1 = params.get("w1", Fraction(1, 2))
        w2 = params.get("w2", Fraction(1, 2))
        return [(Fraction(0), w1), (Fraction(1) + shift, w2)]
    raise KeyError(family)


def drift_distance(family: str, n: int, params: dict) -> Fraction:
    """rho(mu_n, mu) = min(2^-n, a) for one drifting atom of mass a (n >= 1)."""
    a = params.get("w2", Fraction(1, 2)) if family == "mixture" else Fraction(1)
    return min(pow2(n), a)


def closed_mass(atoms, lo: Fraction, hi: Fraction) -> Fraction:
    return sum((w for x, w in atoms if lo <= x <= hi), Fraction(0))


def specker_interval_mass(perm, a: Fraction, b: Fraction) -> Fraction:
    """Mass on the open (a, b) of sum_i 2^-(perm[i]+1) delta_i."""
    return sum(
        (pow2(v + 1) for i, v in enumerate(perm) if a < i < b), Fraction(0)
    )
