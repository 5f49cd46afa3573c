"""Command-line front door.

Subcommands::

    effmeas prokhorov A.measure B.measure [--precision n]
    effmeas demo specker [--enum NAME|FILE] [--function NAME|FILE] [--fuel k]
    effmeas verify MODE SEQ LIMIT [FUNCTION] [N-LIST]
                   [--certificate FILE] [--fuel k] [--out FILE.csv]

MODE is one of weak, vague, eps, witness, vague-to-weak.  SEQ names a
builtin family (deltashrink, deltan, mixture, deltadrift,
specker[:identity|squares]); LIMIT is a builtin measure name or a measure
file; ``--enum`` is identity, squares or an enumeration file.  weak, vague
and vague-to-weak take a FUNCTION; eps and witness refuse one.  weak,
vague and eps check the ``--certificate`` modulus in place of the one they
would construct; witness and vague-to-weak refuse one.  N-LIST tokens look
like ``4`` or ``1..8`` or ``1,3,5``; a second FUNCTION or a second N-LIST
(positional or ``--precision``) is a usage error.  Exit codes: 0 all rows
pass, 1 some row fails, 2 certified divergence, 3 parse error (a malformed
file, a path that cannot be read or written as text, an unknown name, an
input the mode does not use, or a usage error on the command line).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import re
import sys
from fractions import Fraction

from .convergence import (
    CheckReport,
    CheckRow,
    Modulus,
    check_cut,
    check_modulus,
    specker_sequence,
    vague_to_weak,
    validate_total_mass_modulus,
    weak_modulus,
)
from .corpora import builtin_function, builtin_measure, corpus_by_name, specker_enumeration
from .errors import (
    ContractViolation,
    DivergenceDetected,
    DuplicateEnumeration,
    EffmeasError,
    ParseError,
)
from .fileformat import (
    parse_enumeration,
    parse_function,
    parse_measure,
    parse_modulus,
)
from .functions import co_name_of_poly
from .measures import DiscreteMeasure, integrate_poly
from .prokhorov import (
    eps_function,
    prokhorov_bounds,
    prokhorov_discrete,
    witness_from_eps,
    NOT_IN_CUT,
)
from .reals import _pow2
from .sets import pi_from_complement
from .streams import Fuel


REPORT_HEADER = ("N", "index", "checked_n", "quantity", "bound", "result")


def _decimal(q: Fraction, digits: int = 20) -> str:
    """``q`` truncated toward zero to ``digits`` decimal places."""
    whole, rest = divmod(abs(q.numerator), q.denominator)
    digits_str = (
        str(rest * 10**digits // q.denominator).rjust(digits, "0") if rest else "0" * digits
    )
    return f"{'-' if q.numerator < 0 else ''}{whole}.{digits_str}"


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _emit(report: CheckReport, out_path=None) -> int:
    """Write ``report`` as the CSV report to stdout and to ``out_path``, if
    given; the exit code, 0 when the report passed and 1 otherwise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    writer.writerows(
        (r.N, r.index, r.checked_n, r.quantity, r.bound, "pass" if r.ok else "fail")
        for r in report.rows
    )
    text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(None, f"cannot write {out_path!r}: {exc}") from None
    sys.stdout.write(text)
    return 0 if report.passed else 1


def _read(path: str, missing_ok: bool = False) -> str | None:
    """The text of ``path``, in one ``open``; a path that cannot be read as
    text (a ``UnicodeDecodeError`` or a NUL in the name is a ``ValueError``)
    is a parse error.  With ``missing_ok``, a path naming no file (nothing
    there, or a non-directory on the way) gives ``None``, so the caller can
    try the token as a builtin name."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        if missing_ok and isinstance(exc, (FileNotFoundError, NotADirectoryError)):
            return None
        raise ParseError(None, f"cannot read {path!r}: {exc}") from None


def _resolve(token: str, parse, builtin, what: str):
    """The file ``token`` read through ``parse``, else the builtin ``token``;
    with ``parse`` None, builtin names only.  A name nothing knows is a
    parse error."""
    text = _read(token, missing_ok=True) if parse else None
    if text is not None:
        return parse(text)
    try:
        return builtin(token)
    except KeyError:
        where = "file or builtin" if parse else "builtin"
        raise ParseError(None, f"unknown {what} {token!r} (no such {where})") from None


def _builtin_poly(name: str):
    return builtin_function(name)[0]  # a polygon's extension tells its kind


_NLIST = re.compile(r"^\d+(\.\.\d+)?(,\d+(\.\.\d+)?)*$")


def _parse_nlist(token: str) -> list[int]:
    if not _NLIST.match(token):
        raise ParseError(None, f"bad N-list {token!r} (want e.g. 4, 1..8 or 1,3,5)")
    ns: list[int] = []
    for part in token.split(","):
        if ".." in part:
            a, b = part.split("..")
            if int(a) > int(b):
                raise ParseError(None, f"empty N-range {part!r} in N-list {token!r}")
            ns.extend(range(int(a), int(b) + 1))
        else:
            ns.append(int(part))
    return ns


def _nonnegative(flag: str, value: int) -> int:
    if value < 0:
        raise ParseError(None, f"{flag} must be nonnegative, got {value}")
    return value


def _load_certificate(path: str, Ns: list[int]) -> Modulus:
    """The modulus in ``path``, which must answer every precision in ``Ns``."""
    mod = parse_modulus(_read(path))
    for N in Ns:
        try:
            mod.of(N)
        except ContractViolation as exc:
            raise ParseError(None, f"certificate {path}: {exc}") from None
    return mod


# ---------------------------------------------------------------------------
# subcommands


def cmd_prokhorov(args) -> int:
    _nonnegative("--precision", args.precision)
    a = _resolve(args.file_a, parse_measure, builtin_measure, "measure")
    b = _resolve(args.file_b, parse_measure, builtin_measure, "measure")
    if isinstance(a, DiscreteMeasure) and isinstance(b, DiscreteMeasure):
        d = prokhorov_discrete(a, b)
        print(_frac(d))
        print(_decimal(d))
        return 0
    lo, hi = prokhorov_bounds(a, b, args.precision)
    print(f"{_frac(lo)} {_frac(hi)}")
    print(f"{_decimal(lo)} {_decimal(hi)}")
    return 0


def cmd_demo_specker(args) -> int:
    _nonnegative("--fuel", args.fuel)
    values = _resolve(args.enum or "identity", parse_enumeration, specker_enumeration, "enumeration")
    sp = specker_sequence(iter(values))
    horizon = len(values) - 1 if isinstance(values, list) else None  # a file's values end
    poly = _resolve(args.function or "hat", parse_function, _builtin_poly, "function")
    if poly.extension != "zero-outside":
        raise ParseError(None, "the demo needs a compactly supported function")
    idx = sp.vague_modulus(poly).of(0)
    top, last = idx + args.fuel, args.fuel  # the last row and the last lower bound
    if horizon is not None:  # the row at idx is the first one checked
        if horizon < idx:
            msg = f"enumeration {args.enum!r} holds {horizon + 1} values, needs {idx + 1}"
            raise ParseError(None, msg)
        top, last = min(top, horizon), min(last, horizon)
    # exact at any precision: the atoms up to the end of the polygon's support
    limit_val = sp.limit_measure().integrate_zero_outside(poly, 0)
    rows = []
    for n in range(top + 1):
        q = abs(integrate_poly(poly, sp.seq[n]) - limit_val)
        rows.append(CheckRow(0, idx, n, q, Fraction(0), n < idx or q == 0))
    code = _emit(CheckReport(rows), args.out)
    print("# total-mass lower bounds (hidden oracle; strictly partial):")
    lower = sp.total_mass_lower()
    for k in range(0, last + 1, max(1, args.fuel // 5)):
        print(f"#   fuel {k}: {_frac(lower.bound(k))}")
    return code


def cmd_verify(args) -> int:
    Ns = args.ns if args.ns is not None else list(range(1, 7))
    window = _nonnegative("--fuel", args.fuel)
    corpus = _resolve(args.seq, None, corpus_by_name, "corpus")
    seq = corpus.seq
    limit = _resolve(args.limit, parse_measure, builtin_measure, "measure")
    if args.certificate and args.mode in ("witness", "vague-to-weak"):
        raise ParseError(None, f"{args.mode} verification reads no certificate")
    mod = _load_certificate(args.certificate, Ns) if args.certificate else None

    if args.mode in ("weak", "vague", "vague-to-weak"):
        token = args.function or ("hat" if args.mode == "vague" else "constant-one")
        poly = _resolve(token, parse_function, _builtin_poly, "function")
        target = integrate_poly(poly, limit)

        if args.mode == "weak":
            if mod is None and corpus.weak_oracle is not None:
                mod = corpus.weak_oracle(poly)
            elif mod is None:
                mod = weak_modulus(seq, limit, co_name_of_poly(poly), poly.bound())
        elif args.mode == "vague":
            if poly.extension != "zero-outside":
                raise ParseError(None, "vague verification needs a supported function")
            if mod is None:
                mod = corpus.vague_oracle(poly)
        else:  # vague-to-weak
            if corpus.tm is None:
                raise ParseError(None, "vague-to-weak needs a builtin corpus with mass data")
            # one check serves every N: it depends on seq and tm only
            validate_total_mass_modulus(seq, corpus.tm)
            entries = {}
            for N in Ns:
                entries[N] = vague_to_weak(
                    seq,
                    limit,
                    corpus.tm,
                    corpus.vague_oracle,
                    co_name_of_poly(poly),
                    int(poly.bound().__ceil__()),
                    N,
                    validate_tm=False,
                )
            mod = Modulus.from_table(entries)
        of_member = functools.partial(integrate_poly, poly)

    elif args.mode in ("eps", "witness"):
        if corpus.ad_modulus is None:
            msg = f"{args.mode} verification needs a builtin corpus with ball moduli"
            raise ParseError(None, msg)
        if args.function is not None:
            raise ParseError(None, f"{args.mode} verification takes no function {args.function!r}")
        if mod is None:
            mod = eps_function(seq, limit, corpus.ad_modulus)
        target, of_member = 0, functools.partial(prokhorov_discrete, nu=limit)
        if args.mode == "witness":
            comps = ((Fraction(0), Fraction(1)),)
            C = pi_from_complement(comps)
            mu_c = limit.mass_closed(comps)
            rows: list[CheckRow] = []
            for N in Ns:
                r = mu_c + _pow2(N)
                idx = witness_from_eps(seq, limit, mod, C, r)
                rows += check_cut(
                    N, None if idx == NOT_IN_CUT else idx, r, mu_c,
                    lambda n: seq[n].mass_closed(comps), window,
                ).rows
            return _emit(CheckReport(rows), args.out)
    else:
        raise ParseError(None, f"unknown verify mode {args.mode!r}")

    report = check_modulus(lambda n: of_member(seq[n]), target, mod, Ns, Fuel(window))
    return _emit(report, args.out)


class _UsageError(Exception):
    """A command line argparse rejects; ``main`` reports it as a parse error."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print usage and exit 2, the divergence exit code
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call (not at import) and kept for the process."""
    parser = _ArgumentParser(
        prog="effmeas",
        description="Exact-arithmetic effective convergence toolkit for measures on R.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prokhorov", help="distance between two measure files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--precision", type=int, default=6)

    d = sub.add_parser("demo", help="built-in demonstrations")
    dsub = d.add_subparsers(dest="demo_name", required=True)
    ds = dsub.add_parser("specker", help="slowly revealed total mass demo")
    ds.add_argument("--enum", default=None, help="builtin enumeration name or file")
    ds.add_argument("--function", default=None, help="builtin function name or file")
    ds.add_argument("--fuel", type=int, default=10)
    ds.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="construct and/or validate certificates")
    v.add_argument("mode", choices=["weak", "vague", "eps", "witness", "vague-to-weak"])
    v.add_argument("seq", help="builtin family name")
    v.add_argument("limit", help="builtin measure name or measure file")
    v.add_argument("extras", nargs="*", help="optional function and N-list tokens")
    v.add_argument("--certificate", default=None)
    v.add_argument("--precision", default=None, help="N list, e.g. 1..8")
    v.add_argument("--fuel", type=int, default=10)
    v.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    # an exact rational is printed whatever its length (Specker weights
    # reach thousands of digits); the interpreter's limit is restored after
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args, leftover = parser.parse_known_args(argv)
        bad = [t for t in leftover if t.startswith("-")]
        if bad or (leftover and args.command != "verify"):
            parser.error(f"unrecognized arguments: {' '.join(leftover)}")
        # Looked up at call time, so rebinding a module-level cmd_* takes effect.
        if args.command == "prokhorov":
            return cmd_prokhorov(args)
        if args.command == "demo":
            return cmd_demo_specker(args)
        args.extras = list(args.extras) + leftover
        args.function = None
        args.ns = _parse_nlist(args.precision) if args.precision else None
        for token in args.extras:
            if _NLIST.match(token):
                if args.ns is not None:
                    parser.error(f"a second N-list {token!r} (positional or --precision)")
                args.ns = _parse_nlist(token)
            elif args.function is not None:
                parser.error(f"a second function {token!r} after {args.function!r}")
            else:
                args.function = token
        return cmd_verify(args)
    except (_UsageError, ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (DivergenceDetected,) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ContractViolation, DuplicateEnumeration) as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 1
    except EffmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
