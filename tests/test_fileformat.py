"""Plain-text formats: round trips and line-numbered parse errors."""

import copy
import dataclasses
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import (
    DiscreteMeasure,
    ParseError,
    PolyDensityMeasure,
    hat_function,
    parse_enumeration,
    parse_function,
    parse_measure,
    parse_modulus,
    serialize_function,
    serialize_measure,
    serialize_modulus,
)
from effmeas import fileformat
from effmeas.prokhorov import prokhorov_discrete


class TestMeasureRoundTrip:
    def test_discrete(self):
        mu = DiscreteMeasure(((Fraction(0), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 3))))
        again = parse_measure(serialize_measure(mu))
        assert isinstance(again, DiscreteMeasure) and again.atoms == mu.atoms

    def test_polydensity(self):
        u = PolyDensityMeasure.uniform(Fraction(0), Fraction(1))
        again = parse_measure(serialize_measure(u))
        assert isinstance(again, PolyDensityMeasure)
        assert again.density.vertices == u.density.vertices

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# a delta\ndiscrete\n\natom 0 1  # unit mass\n"
        mu = parse_measure(text)
        assert mu.atoms == ((Fraction(0), Fraction(1)),)

    def test_unknown_header(self):
        with pytest.raises(ParseError) as e:
            parse_measure("gaussian\n")
        assert e.value.line_no == 1

    def test_bad_atom_row_line_number(self):
        with pytest.raises(ParseError) as e:
            parse_measure("discrete\natom 0 1/2\natom oops\n")
        assert e.value.line_no == 3

    def test_bad_rational(self):
        with pytest.raises(ParseError) as e:
            parse_measure("discrete\natom 1/0 1\n")
        assert e.value.line_no == 2

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ParseError):
            parse_measure("discrete\natom 0 0\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_measure("# only a comment\n")

    # A bad row is reported on its own line, not on the file's last one.
    @pytest.mark.parametrize(
        "text,line_no,message",
        [
            ("discrete\natom 0 0\natom 1 1\natom 2 1\n", 2, "atom weights must be positive"),
            ("polydensity\n0 0\n1 -1\n2 1\n3 0\n", 3, "density must be nonnegative"),
            ("polydensity\n0 0\n2 1\n1 1\n4 0\n", 4, "vertex abscissae must strictly increase"),
            ("polydensity\n0 1\n1 1\n2 0\n", 2, "zero-outside requires zero boundary values"),
        ],
    )
    def test_bad_row_reported_on_its_line(self, text, line_no, message):
        with pytest.raises(ParseError) as e:
            parse_measure(text)
        assert e.value.line_no == line_no
        assert str(e.value) == f"line {line_no}: {message}"


class TestFunctionRoundTrip:
    def test_round_trip(self):
        p = hat_function(Fraction(0), Fraction(5, 4), Fraction(5, 2), Fraction(1))
        again = parse_function(serialize_function(p))
        assert again.vertices == p.vertices and again.extension == p.extension

    def test_constant_extend_header(self):
        p = parse_function("polyfunc constant-extend\n-1 2\n1 2\n")
        assert p(Fraction(100)) == 2

    def test_unknown_extension(self):
        with pytest.raises(ParseError) as e:
            parse_function("polyfunc periodic\n0 0\n1 0\n")
        assert e.value.line_no == 1

    def test_malformed_vertices_reported_with_line(self):
        with pytest.raises(ParseError) as e:
            parse_function("polyfunc zero-outside\n0 0\n1 1 1\n")
        assert e.value.line_no == 3

    def test_zero_outside_boundary_violation(self):
        with pytest.raises(ParseError):
            parse_function("polyfunc zero-outside\n0 1\n1 0\n")

    def test_bad_row_reported_on_its_line(self):
        with pytest.raises(ParseError, match="^line 3: vertex abscissae must strictly increase$"):
            parse_function("polyfunc constant-extend\n0 1\n0 2\n1 0\n")
        with pytest.raises(ParseError, match="^line 2: zero-outside requires zero boundary values$"):
            parse_function("polyfunc zero-outside\n0 1\n1 0\n2 0\n")
        with pytest.raises(ParseError, match="^line 4: zero-outside requires zero boundary values$"):
            parse_function("polyfunc zero-outside\n0 0\n1 0\n2 1\n")
        # negative values are fine in a function, unlike in a density
        assert parse_function("polyfunc zero-outside\n0 0\n1 -1\n2 0\n")(1) == -1


class TestEnumerationAndModulus:
    def test_enumeration(self):
        assert parse_enumeration("0\n# skip\n4\n2\n") == [0, 4, 2]

    def test_enumeration_rejects_negatives_and_garbage(self):
        with pytest.raises(ParseError) as e:
            parse_enumeration("1\n-2\n")
        assert e.value.line_no == 2
        with pytest.raises(ParseError):
            parse_enumeration("1\nx\n")

    def test_enumeration_value_capped(self):
        assert parse_enumeration(f"{2**16 - 1}\n") == [2**16 - 1]
        with pytest.raises(ParseError, match="^line 2: enumeration value of 17 bits is above the 16-bit cap$"):
            parse_enumeration(f"0\n{2**16}\n")

    def test_modulus_round_trip(self):
        m = parse_modulus(serialize_modulus({2: 5, 4: 9}))
        assert m.of(4) == 9
        assert m.of(1) == 5  # shallower targets reuse a deeper row

    def test_modulus_errors(self):
        with pytest.raises(ParseError):
            parse_modulus("modulus\n")
        with pytest.raises(ParseError) as e:
            parse_modulus("modulus\n2 nope\n")
        assert e.value.line_no == 2
        with pytest.raises(ParseError):
            parse_modulus("table\n2 5\n")

    def test_modulus_rejects_repeated_row(self):
        with pytest.raises(ParseError) as e:
            parse_modulus("modulus\n1 3\n1 5\n")
        assert e.value.line_no == 3
        with pytest.raises(ParseError) as e:
            parse_modulus("modulus\n# rows\n2 4\n1 3\n2 4\n")
        assert e.value.line_no == 5

    def test_modulus_rejects_negative_index(self):
        # a negative index would certify members that do not exist
        with pytest.raises(ParseError, match="negative modulus index -5") as e:
            parse_modulus("modulus\n1 0\n2 -5\n")
        assert e.value.line_no == 3


# Token soup: every header, rationals with zero and negative denominators,
# malformed fractions, comments and blank lines.
TOKENS = st.sampled_from((
    "discrete", "polydensity", "polyfunc", "zero-outside", "constant-extend",
    "periodic", "modulus", "atom", "0", "1", "-2", "3", "1/2", "-1/3", "1/0",
    "2/-3", "0/0", "/", "1/", "/4", "1/2/3", "x", "1.5", "1e3", "#", "# note",
))
LINES = st.lists(TOKENS, max_size=4).map(" ".join)
SOUP = st.lists(LINES, max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=SOUP)
@pytest.mark.parametrize(
    "parse", [parse_measure, parse_function, parse_enumeration, parse_modulus]
)
def test_parsers_end_in_result_or_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


# The reader as it was before discrete files went onto the int lattice:
# every token one Fraction, every discrete file one DiscreteMeasure built
# from its Fraction atoms.  Kept as the oracle of the int reader.
def rational_fraction_oracle(tok: str, line_no: int) -> Fraction:
    try:
        if "/" in tok:
            p, q = tok.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(line_no, f"bad rational {tok!r}: {exc}") from None


def parse_discrete_fraction_oracle(text: str) -> DiscreteMeasure:
    rows = [
        (i, raw.split("#", 1)[0].strip())
        for i, raw in enumerate(text.splitlines(), start=1)
        if raw.split("#", 1)[0].strip()
    ]
    atoms = []
    for line_no, line in rows[1:]:
        parts = line.split()
        if parts[0] != "atom" or len(parts) != 3:
            raise ParseError(line_no, f"expected 'atom <loc> <weight>', got {line!r}")
        w = rational_fraction_oracle(parts[2], line_no)
        if w.numerator <= 0:
            raise ParseError(line_no, "atom weights must be positive")
        atoms.append((rational_fraction_oracle(parts[1], line_no), w))
    return DiscreteMeasure(tuple(atoms))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.line_no, str(exc))


def assert_same_discrete(got, want):
    """The same measure by every reading a caller can make, or the same error."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, DiscreteMeasure)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.atoms == want.atoms
    assert all(type(v) is Fraction for atom in got.atoms for v in atom)
    assert got.exact_total_mass() == want.exact_total_mass()
    assert type(got.exact_total_mass()) is Fraction
    (xs, ws, lx, lw), (ys, vs, ly, lv) = got.lattice(), want.lattice()
    assert [Fraction(x, lx) for x in xs] == [Fraction(y, ly) for y in ys]
    assert [Fraction(w, lw) for w in ws] == [Fraction(v, lv) for v in vs]
    assert lx > 0 and lw > 0 and all(type(v) is int for v in (*xs, *ws, lx, lw))


def _spell(q: Fraction, how: int) -> str:
    """``q`` as a token: reduced, unreduced, with a negative denominator,
    or with a ``+`` on the numerator or the denominator."""
    k = 1 + how % 3
    p, d = q.numerator * k, q.denominator * k
    if how % 5 == 1:
        p, d = -p, -d
    if how % 7 == 2 and d == 1:
        return f"{p:+d}" if p >= 0 else str(p)
    tok = f"{p}/{d}" if how % 2 or d != 1 else str(p)
    if how % 11 == 3 and not tok.startswith("-"):
        tok = "+" + tok
    if how % 13 == 4 and "/" in tok and d > 0:
        tok = tok.replace("/", "/+")
    return tok


_locs = st.sampled_from([Fraction(k, 4) for k in range(-6, 7)] + [Fraction(1, 3), Fraction(-5, 7)])
_weights = st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12)
_rows = st.lists(st.tuples(_locs, _weights, st.integers(0, 99), st.integers(0, 99)), max_size=10)


@st.composite
def discrete_files(draw):
    """Valid discrete files: repeated locations, unreduced, negative
    denominator and ``+`` spellings, comments and blank lines."""
    lines = ["discrete"]
    for loc, w, a, b in draw(_rows):
        if a % 9 == 0:
            lines.append("# comment" if b % 2 else "")
        lines.append(f"atom {_spell(loc, a)} {_spell(w, b)}")
    return "\n".join(lines) + "\n"


class TestIntReader:
    """The int reader against the Fraction oracle: the same measure or the
    same ParseError, line and message."""

    @settings(max_examples=300, deadline=None)
    @given(text=discrete_files())
    @example(text="discrete\natom 2/-4 2/4\natom -1/2 +1/-2\n")
    @example(text="discrete\natom 1_0 +3\natom 10 1/+3\n")
    def test_discrete_files_match_oracle(self, text):
        assert_same_discrete(_outcome(parse_measure, text), _outcome(parse_discrete_fraction_oracle, text))

    @settings(max_examples=400, deadline=None)
    @given(text=SOUP.map(lambda t: "discrete\n" + t))
    @example(text="discrete\natom 0/0 1\n")
    @example(text="discrete\natom 1/2/3 1\natom 0 1\n")
    @example(text="discrete\natom x 0\n")
    @example(text="discrete\natom 1.5 1\natom 1e3 1\n")
    @example(text="discrete\natom 0 1\natom 0 -2/-3\natom 1 -2/3\n")
    @example(text="discrete\natom 0 2/-0\n")
    def test_token_soup_matches_oracle(self, text):
        assert_same_discrete(_outcome(parse_measure, text), _outcome(parse_discrete_fraction_oracle, text))

    @settings(max_examples=300, deadline=None)
    @given(text=SOUP)
    @pytest.mark.parametrize("parse", [parse_measure, parse_function])
    def test_vertex_rows_match_oracle(self, parse, text):
        """polydensity and polyfunc files read as with the Fraction token
        reader; discrete ones are compared above."""
        if text.lstrip().startswith("discrete"):
            return
        got = _outcome(parse, text)
        with mock.patch.object(fileformat, "_rational", rational_fraction_oracle):
            want = _outcome(parse, text)
        if isinstance(want, tuple):
            assert got == want
        elif parse is parse_function:
            assert (got.vertices, got.extension) == (want.vertices, want.extension)
        else:
            assert got == want

    @given(tok=TOKENS | st.builds(_spell, st.fractions(max_denominator=20), st.integers(0, 99)))
    def test_token_reader(self, tok):
        """``_ratio`` gives a positive denominator and ``_rational`` its Fraction."""
        want = _outcome(lambda t: rational_fraction_oracle(t, 7), tok)
        got = _outcome(lambda t: fileformat._ratio(t, 7), tok)
        if isinstance(want, tuple):
            assert got == want
            return
        p, q = got
        assert q > 0 and Fraction(p, q) == want
        assert fileformat._rational(tok, 7) == want and type(fileformat._rational(tok, 7)) is Fraction


class TestLazyAtoms:
    TEXT = "discrete\natom 3/2 1/4\natom -1 1/2\natom 6/4 1/8\n"

    def test_prokhorov_builds_no_atoms(self):
        """A file read for a distance never gets its Fraction atoms."""
        mu, nu = parse_measure(self.TEXT), parse_measure("discrete\natom 0 7/8\n")
        want = prokhorov_discrete(
            parse_discrete_fraction_oracle(self.TEXT), DiscreteMeasure.point(0, Fraction(7, 8))
        )
        assert prokhorov_discrete(mu, nu) == want
        assert "atoms" not in vars(mu) and "atoms" not in vars(nu)
        assert mu.exact_total_mass() == Fraction(7, 8)
        assert "atoms" not in vars(mu)

    def test_atoms_built_once_on_first_read(self):
        mu = parse_measure(self.TEXT)
        atoms = mu.atoms
        assert atoms == ((Fraction(-1), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 8)))
        assert vars(mu)["atoms"] is atoms and mu.atoms is atoms

    @pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_copies_before_the_first_read(self, dup):
        mu = parse_measure(self.TEXT)
        again = dup(mu)
        assert again == parse_measure(self.TEXT) and again.lattice() == mu.lattice()

    def test_atoms_stays_a_required_field(self):
        """The lazy reader is no default for the dataclass field."""
        (atoms_field, *_) = dataclasses.fields(DiscreteMeasure)
        assert atoms_field.name == "atoms" and atoms_field.default is dataclasses.MISSING
        with pytest.raises(TypeError):
            DiscreteMeasure()


_measures = st.lists(st.tuples(st.fractions(max_denominator=30), _weights), max_size=12).map(
    lambda atoms: DiscreteMeasure(tuple(atoms))
)


@settings(max_examples=100, deadline=None)
@given(mu=_measures)
def test_discrete_round_trip(mu):
    assert_same_discrete(parse_measure(serialize_measure(mu)), mu)
