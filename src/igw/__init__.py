"""Iterated Galton-Watson processes with binomial thinning.

Simulation of the iterated chain, exact small-state distributions, and
rigorous interval certificates for its death and explosion probabilities.
"""

from .analysis import (
    AbsorptionReport,
    ExplosionCertificate,
    SubmultReport,
    binary_death_bound,
    explosion_lower_bound,
    geometric_absorption_check,
    geometric_death_bound,
    submultiplicativity_check,
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
from .gw_engine import harmonic_moments
from .igw_process import (
    DEFAULT_EXACT_CAP,
    RNG_CHUNK,
    AlmostSureRegime,
    ChunkPaths,
    ExtendedCount,
    McDeathResult,
    McEstimate,
    MeanRegime,
    RegimeReport,
    TerminationKind,
    classify_regimes,
    mc_death_prob,
    mc_ratio_convergence,
    ratio_crossing_errors,
    simulate_chunks,
    stream_for,
    wilson_interval,
)
from .reproduction_laws import (
    IGWParams,
    LawSpecError,
    OffspringLaw,
    RegimeError,
    fixed_point_q,
    format_law_spec,
    parse_law_spec,
    pgf_eval,
    thinned_pgf,
)

__version__ = "0.1.0"
