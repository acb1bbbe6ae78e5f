"""Concentration-of-measure computations on finite metric-measure spaces.

Core objects: validated spaces (`FiniteMMSpace`), separation distances
with exact witnesses, observable-diameter brackets for maps to the real
line or to finite screens, doubling profiles with packing/coloring
certificates, and a reproducible trend experiment over space families.
"""

from ._numeric import exact_triangle_closure, floor_sum, rng_for, stable_seed, subadditive_table
from .doubling import (
    Coloring,
    ConcentrationWitness,
    DoublingProfile,
    PackingCheck,
    color_net,
    concentration_witness,
    doubling_profile,
    lemma_constant,
    packing_bound_check,
    ratio_bound,
)
from .families import (
    FamilySpec,
    LevyReport,
    binomial_mean_measure,
    default_screen_roster,
    generate,
    run_levy_experiment,
)
from .formats import (
    SpaceFileError,
    parse_document,
    parse_real_measure,
    parse_space,
    report_csv,
    report_json,
    serialize_space,
)
from .observable import (
    Bracket,
    LipschitzMap,
    LipschitzValidationError,
    lipschitz_candidates,
    obsdiam_real_bracket,
    obsdiam_screen_estimate,
    partial_diameter_real,
    partial_diameter_screen,
    pushforward_real,
    pushforward_screen,
    sample_lipschitz_map,
    sep_pushforward_check,
    validate_lipschitz,
)
from .separation import (
    BudgetExceededError,
    DEFAULT_ASSIGNMENT_BUDGET,
    QuantileGap,
    RealMeasure,
    SepResult,
    real_measure_as_space,
    sep,
    sep_exact,
    sep_lower_bound,
    sep_real_quantile,
)
from .space import (
    FiniteMMSpace,
    Net,
    PointSet,
    SpaceValidationError,
    Violation,
    ball_mass,
    build_net,
    validate_space,
)

__version__ = "0.1.0"
