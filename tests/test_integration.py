"""Cross-checks between the two independent engines: the batched stochastic
simulator (per-generation draws, count ladder) and the exact truncated
dynamic program (pgf composition, envelopes).  Agreement here exercises
both stacks end to end."""

import math

import numpy as np

from igw import (
    Caps,
    ExtendedCount,
    IGWParams,
    OffspringLaw,
    finite_horizon_death,
    one_step_dist,
    simulate_chunks,
    stream_for,
)
from igw.igw_process import DIED

from conftest import first_states

CAPS = Caps(512, 512, 64)


def test_one_step_dist_matches_simulator():
    law = OffspringLaw.explicit({0: 0.1, 1: 0.3, 2: 0.4, 3: 0.2})
    params = IGWParams(law, 0.7)
    x, n = 3, 60_000
    exact = one_step_dist(x, params, CAPS)
    assert exact.overflow < 1e-9
    states, _ = first_states(x, params, n, stream_for(303, 0, "xcheck"))
    counts = np.bincount(states, minlength=len(exact.atoms))
    for v in range(25):  # covers all but ~1e-6 of the mass
        p = float(exact.atoms[v])
        se = math.sqrt(max(p * (1 - p), 1e-8) / n)
        assert abs(counts[v] / n - p) <= 4 * se, f"value {v}"


def test_finite_horizon_death_matches_simulator():
    params = IGWParams(OffspringLaw.binary(0.5), 0.7)
    x, horizon, n = 2, 4, 40_000
    iv = finite_horizon_death(x, params, horizon, CAPS)
    gen = stream_for(404, 0, "fh")
    paths = simulate_chunks(x, params, horizon, ExtendedCount.from_log(700.0), [gen], [n])[0]
    freq = float(np.mean((paths.termination == DIED) & (paths.steps <= horizon)))
    se = math.sqrt(freq * (1 - freq) / n)
    assert iv.lo - 4 * se <= freq <= iv.hi + 4 * se
