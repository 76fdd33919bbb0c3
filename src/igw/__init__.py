"""Iterated Galton-Watson processes with binomial thinning.

Simulation of the iterated chain, exact small-state distributions, and
rigorous interval certificates for its death and explosion probabilities.
"""

from .analysis import (
    AbsorptionReport,
    ExplosionCertificate,
    McDeathResult,
    McEstimate,
    SubmultReport,
    binary_death_bound,
    explosion_lower_bound,
    fixed_point_q,
    geometric_absorption_check,
    geometric_death_bound,
    mc_death_prob,
    mc_ratio_convergence,
    ratio_crossing_errors,
    submultiplicativity_check,
    wilson_interval,
)
from .exact_dist import (
    Caps,
    IntervalProb,
    TruncatedDist,
    death_prob_interval,
    finite_horizon_death,
    one_step_death_prob,
    one_step_dist,
    total_progeny_dist,
)
from .gw_engine import (
    DEFAULT_EXACT_CAP,
    ExtendedCount,
    harmonic_moment,
    harmonic_moments,
    stream_for,
)
from .igw_process import (
    RNG_CHUNK,
    AlmostSureRegime,
    ChunkPaths,
    MeanRegime,
    RegimeReport,
    TerminationKind,
    classify_regimes,
    simulate_chunk,
)
from .reproduction_laws import (
    IGWParams,
    LawSpecError,
    OffspringLaw,
    RegimeError,
    format_law_spec,
    mean,
    parse_law_spec,
    pgf_eval,
    thinned_pgf,
    variance,
)

__version__ = "0.1.0"
