"""Numerical laboratory for operator semistable Levy processes: spectral
decomposition of exponents, closed-form graph/range Hausdorff dimensions,
path simulation, and Monte Carlo dimension / sojourn / capacity estimators."""

__version__ = "0.1.0"

from .borel import BorelSetSpec, SetKind, cantor, interval, time_set, union
from .dimension import (
    Branch,
    DimensionResult,
    classify_sojourn_case,
    dimensions_from_spectrum,
    graph_dimension,
    range_dimension,
)
from .errors import SemidimError
from .estimators import (
    BoxCountEstimate,
    CoveringCount,
    EnergyEstimate,
    Schedule,
    SojournEstimate,
    box_count_graph,
    count_occupied_cubes,
    covering_count,
    dyadic_intervals,
    dyadic_scales,
    energy_dimension,
    geometric_scales,
    sojourn_mc,
)
from .fitting import ScalingFit, fit_loglog
from .harness import (
    Scenario,
    SweepConfig,
    VerificationReport,
    builtin_scenarios,
    get_scenario,
    run_scenario,
    sweep,
)
from .laws import (
    BlockLaw,
    LawKind,
    sample_isotropic_stable_2d,
    sample_one_sided_stable,
    sample_semistable_increment,
    sample_stable_increment,
)
from .paths import (
    KSReport,
    LevyPath,
    empirical_fullness,
    sample_marginal,
    semiselfsimilarity_test,
    simulate_path,
)
from .seeds import derive_rng
from .spectral import (
    ExponentSpec,
    SpectralBlock,
    SpectralDecomposition,
    decompose,
    norm_growth_fit,
    scaling_operator,
    validate_exponent,
)
