"""Plain-text file formats for measures, functions, and certificates.

Measure files::

    discrete
    atom 0 1/2
    atom 1 1/2

    polydensity
    0 0
    1/2 1
    1 0

Function files::

    polyfunc zero-outside
    0 0
    5/4 1
    5/2 0

Certificate files are modulus tables (``modulus`` header, then ``N index``
rows, at most one per N, every index nonnegative).  Enumeration files carry
one natural number below 2^16 per line.  All numbers are exact rationals
``p/q`` or integers; serialization always emits reduced fractions.

Each ``p/q`` token is read once into an ``int`` pair with a positive
denominator, not reduced (``2/-4`` is ``(-2, 4)``).  A discrete file goes
straight onto the measure's ``int`` lattice
(:meth:`~effmeas.measures.DiscreteMeasure.from_ints`): unreduced and
negative-denominator tokens are normalised there, and the atoms'
``Fraction``s are built only when ``atoms`` is first read.
"""

from __future__ import annotations

from fractions import Fraction

from .convergence import Modulus
from .errors import ParseError
from .functions import PolyFunc
from .measures import DiscreteMeasure, Measure, PolyDensityMeasure


def _ratio(tok: str, line_no: int) -> tuple[int, int]:
    """``tok`` as ``(p, q)`` with ``q`` positive, not reduced: ``2/-4`` is
    ``(-2, 4)``."""
    try:
        if "/" in tok:
            p, q = tok.split("/")
            p, q = int(p), int(q)
            if q < 0:
                return -p, -q
            if q == 0:
                raise ZeroDivisionError(f"Fraction({p}, 0)")
            return p, q
        return int(tok), 1
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(line_no, f"bad rational {tok!r}: {exc}") from None


def _rational(tok: str, line_no: int) -> Fraction:
    return Fraction(*_ratio(tok, line_no))


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _vertices(rows, *, density: bool, zero_ends: bool) -> list[tuple[Fraction, Fraction]]:
    """``x y`` vertex rows, each checked on its own line as it is read.

    Abscissae must strictly increase, a density's ordinates must be
    nonnegative, and with ``zero_ends`` the first ordinate must be 0 (the
    constructor's check of the last one falls on the last row anyway).
    """
    verts = []
    for line_no, line in rows:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'x y' vertex, got {line!r}")
        x, y = _rational(parts[0], line_no), _rational(parts[1], line_no)
        if verts and not verts[-1][0] < x:
            raise ParseError(line_no, "vertex abscissae must strictly increase")
        if density and y.numerator < 0:
            raise ParseError(line_no, "density must be nonnegative")
        if zero_ends and not verts and y != 0:
            raise ParseError(line_no, "zero-outside requires zero boundary values")
        verts.append((x, y))
    return verts


def parse_measure(text: str) -> Measure:
    rows = list(_lines(text))
    if not rows:
        raise ParseError(1, "empty measure file")
    line_no, header = rows[0]
    if header == "discrete":
        # read onto the int lattice; the atoms' Fractions wait for a reader
        xn, xd, wn, wd = [], [], [], []
        for line_no, line in rows[1:]:
            parts = line.split()
            if parts[0] != "atom" or len(parts) != 3:
                raise ParseError(line_no, f"expected 'atom <loc> <weight>', got {line!r}")
            c, d = _ratio(parts[2], line_no)
            if c <= 0:  # d is positive
                raise ParseError(line_no, "atom weights must be positive")
            a, b = _ratio(parts[1], line_no)
            xn.append(a)
            xd.append(b)
            wn.append(c)
            wd.append(d)
        return DiscreteMeasure.from_ints(xn, xd, wn, wd)
    if header == "polydensity":
        verts = _vertices(rows[1:], density=True, zero_ends=True)
        line_no = rows[-1][0]
        try:
            return PolyDensityMeasure(PolyFunc(tuple(verts), "zero-outside"))
        except Exception as exc:
            raise ParseError(line_no, str(exc)) from None
    raise ParseError(line_no, f"unknown header {header!r} (want discrete|polydensity)")


def serialize_measure(mu: Measure) -> str:
    if isinstance(mu, DiscreteMeasure):
        out = ["discrete"]
        out.extend(f"atom {x} {w}" for x, w in mu.atoms)
        return "\n".join(out) + "\n"
    if isinstance(mu, PolyDensityMeasure):
        out = ["polydensity"]
        out.extend(f"{x} {y}" for x, y in mu.density.vertices)
        return "\n".join(out) + "\n"
    raise TypeError(f"cannot serialize measure class {type(mu).__name__}")


def parse_function(text: str) -> PolyFunc:
    rows = list(_lines(text))
    if not rows:
        raise ParseError(1, "empty function file")
    line_no, header = rows[0]
    parts = header.split()
    if parts[0] != "polyfunc" or len(parts) != 2:
        raise ParseError(line_no, "expected 'polyfunc <zero-outside|constant-extend>'")
    extension = parts[1]
    if extension not in ("zero-outside", "constant-extend"):
        raise ParseError(line_no, f"unknown extension {extension!r}")
    verts = _vertices(rows[1:], density=False, zero_ends=extension == "zero-outside")
    line_no = rows[-1][0]
    try:
        return PolyFunc(tuple(verts), extension)
    except Exception as exc:
        raise ParseError(line_no, str(exc)) from None


def serialize_function(p: PolyFunc) -> str:
    out = [f"polyfunc {p.extension}"]
    out.extend(f"{x} {y}" for x, y in p.vertices)
    return "\n".join(out) + "\n"


# value a has weight 2^-(a+1): a 16-bit value keeps each weight at 64 Kibit
_ENUM_BITS = 16


def parse_enumeration(text: str) -> list[int]:
    values = []
    for line_no, line in _lines(text):
        try:
            v = int(line)
        except ValueError:
            raise ParseError(line_no, f"expected a natural number, got {line!r}") from None
        if v < 0:
            raise ParseError(line_no, "enumeration values must be nonnegative")
        if v.bit_length() > _ENUM_BITS:
            msg = f"enumeration value of {v.bit_length()} bits is above the {_ENUM_BITS}-bit cap"
            raise ParseError(line_no, msg)
        values.append(v)
    return values


def parse_modulus(text: str) -> Modulus:
    rows = list(_lines(text))
    if not rows or rows[0][1] != "modulus":
        raise ParseError(rows[0][0] if rows else 1, "expected 'modulus' header")
    table: dict[int, int] = {}
    for line_no, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected '<N> <index>', got {line!r}")
        try:
            N, idx = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if N in table:
            raise ParseError(line_no, f"repeated modulus row for N = {N}")
        if idx < 0:
            raise ParseError(line_no, f"negative modulus index {idx} for N = {N}")
        table[N] = idx
    if not table:
        raise ParseError(rows[0][0], "modulus table has no rows")
    return Modulus.from_table(table)


def serialize_modulus(entries: dict[int, int]) -> str:
    out = ["modulus"]
    out.extend(f"{n} {idx}" for n, idx in sorted(entries.items()))
    return "\n".join(out) + "\n"
