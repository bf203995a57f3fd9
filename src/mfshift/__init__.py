"""Numerical multifractal pressure and zeta-function machinery on full shifts.

Three mutually cross-validating routes to fine multifractal spectra of
self-similar measures and Birkhoff averages: radius of convergence of
constrained zeta series, Legendre transforms of the temperature function,
and constrained variational principles over explicit measure families.
"""

from .birkhoff import (
    ObservableTable,
    erg_bowen,
    erg_constrained_coefficient,
    erg_spectrum_variational,
)
from .errors import (
    AllEmpty,
    BracketFailure,
    BudgetExceeded,
    DepthExceedsBudget,
    DepthUnsupported,
    InfeasibleConstraint,
    MfShiftError,
    ParseError,
    ScheduleTooShort,
    ValidationError,
)
from .mfzeta import (
    MfPressureWindow,
    ShrinkingResult,
    constrained_coefficient,
    mf_bowen_fixed,
    mf_bowen_shrinking,
    mf_pressure_window,
    mf_zeta_series,
    sandwich_threshold,
)
from .model import (
    LevelMap,
    MarkovWeights,
    ModelSpec,
    PotentialTable,
    ProductMeasureWeights,
    TargetBox,
    build_potentials,
    entropy,
    integrate,
    level_map,
    moran_dimension,
)
from .oracle import (
    OracleReport,
    brute_constrained_sum,
    brute_variational,
    compare_constrained,
    compare_variational,
)
from .pressure import (
    RadiusEstimate,
    SeriesCoefficients,
    bowen_root,
    pressure_exact,
    pressure_level,
    radius_estimate,
    zeta_coefficients,
)
from .spectrum import (
    BetaPoint,
    LegendreResult,
    SupResult,
    VariationalResult,
    beta,
    legendre,
    sup_spectrum,
    variational_solve,
)
from .symbolic import (
    BirkhoffRange,
    Word,
    cylinder_birkhoff_range,
    enumerate_words,
    periodic_birkhoff_sum,
)

__version__ = "0.1.0"
