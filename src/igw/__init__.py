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
    transition_kernel,
)
from .gw_engine import (
    DEFAULT_EXACT_CAP,
    ExtendedCount,
    RngStream,
    harmonic_moment,
    simulate_total_progeny,
    stream_for,
    thin,
)
from .igw_process import (
    RNG_CHUNK,
    AlmostSureRegime,
    ChunkPaths,
    MeanRegime,
    RegimeReport,
    TerminationKind,
    Trajectory,
    asymptotic_ratios,
    classify_regimes,
    simulate_chunk,
    simulate_trajectory,
    step,
)
from .reproduction_laws import (
    IGWParams,
    LawSpecError,
    OffspringLaw,
    RegimeError,
    chi,
    format_law_spec,
    log_chi,
    mean,
    parse_law_spec,
    pgf_eval,
    sample_offspring,
    thinned_pgf,
    variance,
)

__version__ = "0.1.0"
