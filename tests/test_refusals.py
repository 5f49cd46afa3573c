"""The refusals of the exact-object constructors.

A bad atom gets one message from every build that takes atoms, and no value
handed to ``DiscreteMeasure``, ``DiscreteMeasure.point``, ``PolyFunc``,
``PolyDensityMeasure``, ``DriftingAtomFamily``, ``tent_function``,
``SigmaSet.ball`` or ``SigmaSet.ball_exterior`` escapes as anything but
:class:`MalformedInterval` or ``ValueError`` with a printable message.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from effmeas import DiscreteMeasure, PolyDensityMeasure, PolyFunc, SigmaSet
from effmeas.corpora import DriftingAtomFamily
from effmeas.errors import MalformedInterval, show
from effmeas.functions import CONST, tent_function

BAD_ATOMS = [
    ("None location", (None, 1), MalformedInterval, "expected a rational number, got None"),
    ("1/0 weight", (0, "1/0"), MalformedInterval, "expected a rational number, got '1/0'"),
    ("infinite location", (float("inf"), 1), MalformedInterval, "expected a rational number, got inf"),
    ("zero weight", (Fraction(1, 3), 0), ValueError, "atom weights must be positive"),
    ("negative weight", (0, Fraction(-1, 2)), ValueError, "atom weights must be positive"),
]


@pytest.mark.parametrize("atom, kind, msg", [b[1:] for b in BAD_ATOMS], ids=[b[0] for b in BAD_ATOMS])
def test_same_atom_refusal_from_every_build(atom, kind, msg):
    builds = [
        lambda: DiscreteMeasure(((1, 1), atom)),
        lambda: DiscreteMeasure.point(*atom),
        lambda: DriftingAtomFamily([(1, 1, 0), (*atom, 1)]),
    ]
    for build in builds:
        with pytest.raises(kind) as exc:
            build()
        assert type(exc.value) is kind and str(exc.value) == msg


# ---------------------------------------------------------------------------
# hostile values

HUGE = 10**5000 + 1  # 5,001 digits: past the interpreter's int-to-str limit
DIGITS = "7" * 5001

hostile = st.one_of(
    st.sampled_from(
        [None, "1/0", float("inf"), float("-inf"), float("nan"), 0.1, 0, -1, DIGITS, "-" + DIGITS, "1/" + DIGITS, [1]]
    ),
    st.tuples(st.integers(-3, 3), st.integers(1, 7)),
    st.fractions(min_value=-4, max_value=4, max_denominator=16),
)


def _value(spec):
    """The value a drawn ``spec`` names: ``(k, d)`` the rational k*HUGE/d,
    of 5,001 digits unless 0, and ``[k]`` the tuple ``(k*HUGE,)``, whose
    repr raises, both built here since no report could print them; any
    other ``spec`` itself."""
    if type(spec) is tuple:
        return Fraction(spec[0] * HUGE, spec[1])
    return (spec[0] * HUGE,) if type(spec) is list else spec


def _mass_of(U: SigmaSet) -> Fraction:
    """The mass of the open set ``U`` under a point mass at 0: reads its components."""
    return DiscreteMeasure.point(0).region_mass_open(U.components)


# build -> (constructor of the value, the rule in RULES for the rationals it
# refuses, or None if it takes every rational)
BUILDS = {
    "measure location": (lambda v: DiscreteMeasure(((Fraction(1, 2), 1), (v, 1))), None),
    "measure weight": (lambda v: DiscreteMeasure(((Fraction(1, 2), 1), (0, v))), "weight"),
    "point location": (lambda v: DiscreteMeasure.point(v), None),
    "point weight": (lambda v: DiscreteMeasure.point(0, v), "weight"),
    "polygon abscissa": (lambda v: PolyFunc(((v, 0),)), None),
    "polygon ordinate": (lambda v: PolyFunc(((0, 0), (1, v), (2, 0)), CONST), None),
    "density ordinate": (lambda v: PolyDensityMeasure(PolyFunc(((0, 0), (1, v), (2, 0)))), "ordinate"),
    "family location": (lambda v: DriftingAtomFamily([(v, 1, 1)]), None),
    "family weight": (lambda v: DriftingAtomFamily([(0, Fraction(1, 3), 0), (1, v, 1)]), "weight"),
    "tent end": (lambda v: tent_function((v, 1)), "tent end"),
    "ball centre": (lambda v: _mass_of(SigmaSet.ball(v, 1)), None),
    "ball radius": (lambda v: _mass_of(SigmaSet.ball(0, v)), "radius"),
    "exterior centre": (lambda v: _mass_of(SigmaSet.ball_exterior(v, 1)), None),
}
# rule -> (which rationals it refuses, the error, its text; {q} is show(q))
RULES = {
    "weight": (lambda q: q <= 0, ValueError, "atom weights must be positive"),
    "ordinate": (lambda q: q < 0, ValueError, "density must be nonnegative"),
    "tent end": (lambda q: q > 1, MalformedInterval, "need c <= d"),
    "radius": (lambda q: q < 0, MalformedInterval, "negative radius {q}"),
}


def _expected(v, rule):
    """``None`` if the build must succeed, else the error's type and text.
    A float is refused as a value no rational takes, whatever its binary value."""
    try:
        if isinstance(v, float):
            raise TypeError("a float")
        q = Fraction(v)
    except (TypeError, ValueError, ArithmeticError):
        try:
            shown = repr(v)
        except ValueError:
            shown = f"a {type(v).__name__} that cannot be printed"
        return MalformedInterval, f"expected a rational number, got {shown}"
    if rule is not None and RULES[rule][0](q):
        return RULES[rule][1], RULES[rule][2].format(q=show(q))
    return None


@settings(max_examples=300, deadline=None)
@given(spec=hostile, build=st.sampled_from(sorted(BUILDS)))
@example(spec=None, build="family location")
@example(spec="1/0", build="measure weight")
@example(spec=float("inf"), build="polygon abscissa")
@example(spec=float("-inf"), build="density ordinate")
@example(spec=DIGITS, build="point location")
@example(spec="1/" + DIGITS, build="polygon ordinate")
@example(spec=(1, 3), build="family weight")
@example(spec=(-1, 7), build="measure weight")
@example(spec=0, build="point weight")
@example(spec=-1, build="family weight")
@example(spec=Fraction(-1, 2), build="density ordinate")
@example(spec=[1], build="measure location")  # its repr raised in the message
@example(spec=None, build="tent end")  # escaped as TypeError
@example(spec=None, build="ball centre")  # escaped as TypeError
@example(spec=0.1, build="ball centre")  # refused: once built on its binary value
@example(spec=0.1, build="point location")  # refused: once the atom 3602879701896397/2^55
@example(spec=None, build="ball radius")
@example(spec=None, build="exterior centre")
def test_hostile_values_refused_loudly(spec, build):
    """Each build succeeds or refuses exactly as :func:`_expected` says, and
    its message prints under the interpreter's default digit limit."""
    v = _value(spec)
    make, rule = BUILDS[build]
    want = _expected(v, rule)
    try:
        make(v)
    except Exception as exc:  # any type: the assertion names the allowed ones
        text = str(exc)  # never raises, whatever the value's digits
        assert (type(exc), text) == want
    else:
        assert want is None


@pytest.mark.parametrize("flag", [None, "1/0", float("inf"), 2, Fraction(1, 2)])
def test_drift_flag_refused_loudly(flag):
    with pytest.raises(ValueError) as exc:
        DriftingAtomFamily([(0, 1, flag)])
    assert type(exc.value) is ValueError and str(exc.value) == "drift flags must be 0 or 1"
