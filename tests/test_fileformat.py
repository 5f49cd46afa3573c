"""Plain-text formats: round trips and line-numbered parse errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
