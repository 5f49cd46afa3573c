"""Exact-arithmetic effective convergence toolkit for measures on the line.

Everything is computed over ``fractions.Fraction``: real numbers are
validated Cauchy/monotone rational streams, sets are interval
enumerations, functions are range-box names, and measures are finite
discrete or polygonal-density objects.  The convergence and prokhorov
modules implement the modulus converters between effective weak, vague,
and Prokhorov-metric convergence.
"""

from .convergence import (
    CheckReport,
    CheckRow,
    MeasureSeq,
    Modulus,
    ReconstructedMeasure,
    SpeckerSequence,
    TotalMassModulus,
    check_cut,
    check_modulus,
    limit_from_vague,
    polygonal_surrogate,
    specker_sequence,
    tail_mass_bound,
    uniformize_vague,
    vague_modulus,
    vague_to_weak,
    weak_modulus,
)
from .errors import (
    ContractViolation,
    DivergenceDetected,
    DuplicateEnumeration,
    EffmeasError,
    EmptyCompact,
    InsufficientNameProgress,
    MalformedInterval,
    MonotonicityViolation,
    NameViolation,
    ParseError,
    SearchExhausted,
    UnsupportedMeasureClass,
)
from .fileformat import (
    parse_enumeration,
    parse_function,
    parse_measure,
    parse_modulus,
    serialize_function,
    serialize_measure,
    serialize_modulus,
)
from .functions import (
    CompactOpenName,
    PolyFunc,
    SupportedFunc,
    approx_polygonal,
    co_name_of_poly,
    constant_func,
    hat_function,
    indicator_approx,
    supported_from_poly,
    tent_function,
)
from .measures import (
    AlmostDecidablePair,
    DiscreteMeasure,
    LazyDiscreteMeasure,
    Measure,
    PolyDensityMeasure,
    almost_decidable_ball,
    almost_decidable_cover,
    integrate_named,
    integrate_poly,
)
from .prokhorov import (
    EpsFunction,
    NOT_IN_CUT,
    eps_from_weak,
    eps_function,
    prokhorov_bounds,
    prokhorov_discrete,
    prokhorov_discrete_bruteforce,
    witness_from_eps,
)
from .reals import (
    CauchyReal,
    LowerReal,
    UpperReal,
    make_cauchy,
)
from .sets import (
    CompactName,
    Membership,
    PiSet,
    SigmaSet,
    closed_neighborhood,
    compact_from_closed_union,
    dist_to_closed,
    pi_from_complement,
    sigma_member,
)
from .streams import Fuel, Stream

__version__ = "0.1.0"
