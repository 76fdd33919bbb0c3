"""Analytic certificates and the Monte Carlo estimation harness.

Certificates
    * the smallest fixed point q* of s = g(s) for the thinned generating
      function, an upper bound on the death probability from state 1 in the
      supercritical-thinned regime (m * theta > 1),
    * its closed form for the binary family,
    * the geometric chain bound q1^x for higher start states,
    * a product lower bound on the explosion probability: with
      phi(y) = y + 1 and psi(y) = y^2, the chance that the chain ever fails
      to gain a unit is controlled by gamma(y) >= P_y(X_1 <= y + 1), and
      P_y(always gaining) >= prod_k (1 - gamma(y + k)).  States below a
      switch point y0 use exact one-step tail probabilities, read off the
      thinned composition H_y of :mod:`igw.exact_dist` (exact, so no
      truncation cap enters); from y0 on, a Markov bound on 1/Z_y, with
      E(1/Z_y) bounded above by a certified trapezoid sum taken at y0 and
      carried by a contraction, plus an exponential-moment bound on the
      thinning.  y0 is read off the law: it is where that analytic bound
      stops decreasing.  The infinite tail is closed in closed form once
      the terms provably decay geometrically, and all arithmetic after the
      trapezoid sum is rounded outward.

Monte Carlo
    Every experiment runs on the batched engine of :mod:`igw.igw_process`:
    replicas advance in fixed chunks of ``RNG_CHUNK``, and chunk c draws from
    the counter-based stream keyed by (master seed, purpose, c).  Chunking
    does not depend on the worker count, so estimates are bit-for-bit
    reproducible at any ``workers``.  Death-type estimates come with Wilson
    score intervals; trajectories that are still undecided at the horizon
    are reported separately, never folded into either class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import count, islice
from statistics import NormalDist
from typing import Iterator

import numpy as np

from .exact_dist import Caps, IntervalProb, finite_horizon_death, thinned_rows
from .gw_engine import ExtendedCount, harmonic_moments
from .igw_process import EXPLODED, ChunkPaths, map_chunks, states_below
from .reproduction_laws import IGWParams, OffspringLaw, RegimeError, mean, thinned_pgf

#: every product factor is kept at least this large so certificates stay
#: strictly inside (0, 1) even when the underlying tails underflow floats;
#: inflating a gamma only weakens (never invalidates) the lower bound.
GAMMA_FLOOR = 1e-16

#: the analytic region ends at the first state whose stall bound is at most
#: STOP_EPS once both tail terms provably decay geometrically; a certificate
#: that needs more than MAX_TERMS analytic states is reported invalid.
STOP_EPS = 1e-12
MAX_TERMS = 100_000

#: the search for the switch point between the exact and the analytic
#: region stops here at the latest (about a second for laws with a heavy
#: one-child atom, whose harmonic bounds decay slowest).
MAX_SWITCH = 1024


# -- fixed points and closed forms ----------------------------------------------


def fixed_point_q(params: IGWParams, tol: float = 1e-12) -> float:
    """Smallest root q* of s = g(s) in [0, 1), by bisection.

    g is convex with g(1) = 1, so a nontrivial root below 1 exists exactly
    when g'(1) = m * theta > 1; otherwise 1.0 is reported.  Requires
    p_0 = 0 (with p_0 > 0 the plain extinction analysis applies instead).
    Bisection stops at width min(tol, 1e-14), so every tol >= 1e-14 gives
    the same q*.
    """
    if params.law.p0 > 0.0:
        raise RegimeError("the fixed-point certificate needs p_0 = 0")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    m = mean(params.law)
    if m * params.theta <= 1.0:
        return 1.0
    g0 = thinned_pgf(params, 0.0)
    if g0 == 0.0:
        return 0.0  # no thinning: 0 is itself the smallest fixed point
    lo = 0.0
    hi = None
    for i in range(1, 60):
        cand = 1.0 - 0.5**i
        if thinned_pgf(params, cand) < cand:
            hi = cand
            break
    if hi is None:
        return 1.0  # root indistinguishable from 1 at float resolution
    width_goal = min(tol, 1e-14)
    while hi - lo > width_goal:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: tol is below their spacing
        if thinned_pgf(params, mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binary_death_bound(lam: float, theta: float) -> float:
    """Closed-form death bound (1-theta)(1-lam*theta)/(lam*theta^2) for the
    binary law, valid when theta exceeds 1/m = 1/(1+lam); clamped to [0, 1].
    """
    lam = float(lam)
    theta = float(theta)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"binary parameter {lam!r} outside (0, 1]")
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"thinning parameter {theta!r} outside (0, 1]")
    if theta <= 1.0 / (1.0 + lam):
        raise RegimeError(
            f"closed form needs theta > 1/(1+lambda) = {1.0 / (1.0 + lam)!r}; got {theta!r}"
        )
    value = (1.0 - theta) * (1.0 - lam * theta) / (lam * theta * theta)
    return min(max(value, 0.0), 1.0)


def geometric_death_bound(q1_hi: float, x: int) -> float:
    """q1^x: death from state x is at most the state-1 bound to the x-th
    power (death probabilities are submultiplicative in the start state)."""
    q1_hi = float(q1_hi)
    if not 0.0 <= q1_hi <= 1.0:
        raise ValueError(f"q1 bound {q1_hi!r} outside [0, 1]")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
    if q1_hi == 0.0:
        return 0.0
    if x * abs(math.log(q1_hi)) < 700.0:
        return q1_hi**x
    return math.exp(x * math.log(q1_hi))


# -- explosion certificate --------------------------------------------------------


@dataclass(frozen=True)
class CertificateStep:
    """One product factor: state x_k, its raw one-step stall bound, the
    monotonized/floored value actually multiplied, and how it was obtained."""

    x_k: int
    gamma_raw: float
    gamma: float
    method: str  # "exact" | "tail-bound"


@dataclass(frozen=True)
class ExplosionCertificate:
    """The product bound and its audit trail.  ``harmonic_bound`` is the
    certified upper bound on E(1/Z_y) taken at state ``harmonic_y``, the
    switch point y0; every analytic state carries it by the contraction."""

    start: int
    steps: tuple[CertificateStep, ...]
    tail_sum: float
    tail_sup: float
    bound: float
    valid: bool
    harmonic_y: int
    harmonic_bound: float


def _up(v: float) -> float:
    """The next float above v.  It bounds from above the exact result of
    one correctly rounded operation, or of one libm call accurate to an ulp,
    that returned v."""
    return math.nextafter(v, math.inf)


def _down(v: float) -> float:
    """The next float below v, the lower counterpart of :func:`_up`."""
    return math.nextafter(v, -math.inf)


def _log_beta(theta: float) -> float:
    """An upper bound on log E(e^{-B}) = log(1 - theta + theta/e) for one
    thinning trial B: a negative number, rounded towards zero.  math.e lies
    below e, so theta / math.e lies above theta / e."""
    return _up(math.log(_up(_up(1.0 - theta) + _up(theta / math.e))))


def _chernoff_thinning(y: int, theta: float) -> float:
    """Upper bound on P(Binomial(y^2, theta) <= y + 1),
    e^{y+1} E(e^{-B})^{y^2}, rounded upward.

    With no thinning the count is exactly y^2 > y + 1 for y >= 2, so the
    probability is identically zero.
    """
    if theta == 1.0:
        return 0.0 if y * y > y + 1 else 1.0
    log_b = _up((y + 1.0) + _up((y * y) * _log_beta(theta)))
    return min(_up(math.exp(log_b)), 1.0) if log_b < 0.0 else 1.0


def _stall_bound(y: int, h: float, theta: float) -> float:
    """gamma(y) = y^2 h + Chernoff(y) >= P_y(X_1 <= y + 1) when h bounds
    E(1/Z_y) from above, rounded upward and not clamped at 1."""
    return _up(_up((y * y) * h) + _chernoff_thinning(y, theta))


def _contraction(p1: float) -> float:
    """c = 1 - (1 - p_1)/2 rounded upward, the provable one-step
    contraction E(1/Z_{y+1}) <= c * E(1/Z_y); c lies in [1/2, 1]."""
    return _up(1.0 - _down(1.0 - p1) / 2.0)


def _carried(h: float, contraction: float) -> Iterator[float]:
    """h, h c, h c^2, ...: each product rounded upward, so the k-th value
    bounds E(1/Z_{y+k}) from above when h bounds E(1/Z_y) and c bounds the
    one-step contraction."""
    while True:
        yield h
        h = _up(h * contraction)


@lru_cache(maxsize=8)
def _switch_point(law: OffspringLaw, theta: float) -> tuple[int, float]:
    """The switch point y0 and h(y0), the harmonic bound there.

    Walks :func:`harmonic_moments` from y = 1 and stops at the first y0
    whose stall bound gamma(y0) is below 1 and no larger than
    gamma(y0 + 1): past y0, h(y) no longer shrinks faster than y^2 grows,
    so h(y0) carried by the contraction is the better bound.  The walk
    ends at ``MAX_SWITCH`` at the latest.  y0 depends on (law, theta)
    alone, so the eight most recently used are kept and every start state
    shares one walk.
    """
    prev_gamma = prev_h = math.inf
    for y, h in zip(range(1, MAX_SWITCH + 1), harmonic_moments(law)):
        gamma = _stall_bound(y, h, theta)
        if prev_gamma < 1.0 and gamma >= prev_gamma:
            return y - 1, prev_h
        prev_gamma, prev_h = gamma, h
    return MAX_SWITCH, prev_h


def _harmonic_tail(h: float, r: float, y: int) -> float:
    """Upper bound on sum_{k>=1} (y + k)^2 h r^k, the closed form
    h (y^2 r/d + 2 y r/d^2 + r (1 + r)/d^3) with d = 1 - r, rounded
    upward."""
    d = 1.0 - r  # exact, since r lies in [1/2, 1]
    d2 = _down(d * d)
    d3 = _down(d2 * d)
    s = _up(_up(_up((y * y) * r) / d) + _up(_up((2.0 * y) * r) / d2))
    s = _up(s + _up(_up(r * _up(1.0 + r)) / d3))
    return _up(h * s)


def explosion_lower_bound(
    x: int,
    params: IGWParams,
    caps: Caps = Caps(),
) -> ExplosionCertificate:
    """Certified lower bound on the explosion probability from state x.

    Requires p_0 = 0, p_1 != 1, x >= 1.  The switch point y0 is found from
    the law by :func:`_switch_point`.  Exact one-step tail probabilities
    are used at the states x_k = x + k below y0: the law of X_1 from y by
    the thinned composition H_y, cut at y0, is exact on 0..y + 1, so
    P_y(X_1 <= y + 1) is the sum of those atoms and no cap enters.
    ``caps`` is therefore ignored; it stays in the signature for callers
    that pass it positionally.  From max(x, y0) on,
    gamma(y) <= y^2 * E(1/Z_y) + Chernoff(thinning), with E(1/Z_y) bounded
    once, at y0, by the certified trapezoid bound of
    :func:`harmonic_moments`, and carried to every later state by the
    provable one-step contraction
    E(1/Z_{y+1}) <= (1 - (1-p_1)/2) * E(1/Z_y).  Every step after that
    bound is rounded outward: the contraction, the carry, the stall bounds
    and the tail sums upward, the final product downward.  Returns bound 0
    with ``valid=False`` if any stall probability reaches 1.
    """
    law = params.law
    theta = params.theta
    if law.p0 > 0.0:
        raise RegimeError("explosion certificates need p_0 = 0")
    if law.p1 == 1.0:
        raise RegimeError("single-child laws never explode; no certificate exists")
    if x < 1:
        raise ValueError("x must be >= 1")

    r = _contraction(law.p1)
    harmonic_y, harmonic_bound = _switch_point(law, theta)
    raw: list[tuple[int, float, str]] = []

    # exact region, y = x..y0 - 1 (zip stops before composing any row when
    # x >= y0): row y holds P_y(X_1 = offset + i) = coef[i]
    rows = islice(thinned_rows(law, theta, harmonic_y), x, None)
    for y, row in zip(range(x, harmonic_y), rows):
        p = float(row.coef[: max(0, y + 2 - row.offset)].sum())
        raw.append((y, min(p, 1.0), "exact"))

    # analytic region from max(x, y0), extended until the terms are provably
    # in geometric decay
    start = max(x, harmonic_y)
    carried = islice(_carried(harmonic_bound, r), start - harmonic_y, None)
    for terms, (y, h_used) in enumerate(zip(count(start), carried)):
        if terms >= MAX_TERMS:
            return ExplosionCertificate(x, (), math.inf, 1.0, 0.0, False, harmonic_y, harmonic_bound)
        g = min(_stall_bound(y, h_used, theta), 1.0)
        raw.append((y, g, "tail-bound"))
        ratio_a_ok = _up(r * (y + 1) ** 2) < y * y
        ratio_b_ok = theta == 1.0 or _up(1.0 + _up((2.0 * y + 1.0) * _log_beta(theta))) < 0.0
        if g <= STOP_EPS and ratio_a_ok and ratio_b_ok:
            break

    # closed-form tail beyond the last explicit state Y = y
    tail_a = _harmonic_tail(h_used, r, y)
    b_next = _chernoff_thinning(y + 1, theta)
    if b_next == 0.0:
        tail_b = 0.0
    else:
        # b(k + 1)/b(k) = e * beta^(2k + 1) <= r_b for every k > y
        r_b = _up(math.exp(_up(1.0 + _up((2.0 * y + 3.0) * _log_beta(theta)))))
        tail_b = _up(b_next / _down(1.0 - r_b)) if r_b < 1.0 else math.inf
    tail_sum = _up(tail_a + tail_b)
    tail_sup = min(1.0, _up(_up(_up((y + 1) ** 2 * h_used) * r) + b_next))

    # monotone majorant: the product argument needs gamma nonincreasing in
    # the state, so each factor is the sup over all larger states
    gammas: list[float] = [0.0] * len(raw)
    running = tail_sup
    for i in range(len(raw) - 1, -1, -1):
        running = max(running, raw[i][1])
        gammas[i] = max(running, GAMMA_FLOOR)

    steps = tuple(
        CertificateStep(raw[i][0], raw[i][1], gammas[i], raw[i][2]) for i in range(len(raw))
    )
    if any(g >= 1.0 for g in gammas) or tail_sup >= 1.0 or not math.isfinite(tail_sum):
        return ExplosionCertificate(x, steps, tail_sum, tail_sup, 0.0, False, harmonic_y, harmonic_bound)

    log_prod = 0.0
    for g in gammas:
        log_prod = _down(log_prod + _down(math.log1p(-g)))
    log_tail = _up(tail_sum / _down(1.0 - tail_sup))
    bound = max(_down(math.exp(_down(log_prod - log_tail))), 0.0)
    return ExplosionCertificate(x, steps, tail_sum, tail_sup, bound, True, harmonic_y, harmonic_bound)


# -- Monte Carlo -------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo proportion with its Wilson score interval."""

    replicas: int
    successes: int
    point: float
    ci_lo: float
    ci_hi: float
    confidence: float
    master_seed: int


def wilson_interval(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval; well behaved for proportions near 0 and 1."""
    if n < 1:
        raise ValueError("need at least one trial")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class McDeathResult:
    estimate: McEstimate
    exploded_fraction: float
    undecided_fraction: float


def _verdict_counts(index: int, paths: ChunkPaths) -> np.ndarray:
    """Died, exploded and undecided replicas of one chunk."""
    return np.bincount(paths.termination, minlength=3)


def mc_death_prob(
    x: int,
    params: IGWParams,
    replicas: int,
    horizon: int,
    threshold,
    master_seed: int,
    *,
    confidence: float = 0.99,
    workers: int = 1,
) -> McDeathResult:
    """Fraction of trajectories absorbed at 0, with a Wilson interval.

    Horizon-undecided trajectories are reported separately.  Replica r runs
    in chunk r // RNG_CHUNK, which draws from the stream derived from
    (master_seed, "mc-death:x", chunk), so the result is identical at any
    worker count.
    """
    parts = map_chunks(
        _verdict_counts, x, params, horizon, threshold, master_seed, f"mc-death:{x}",
        replicas, workers=workers,
    )
    died, exploded, undecided = (int(c) for c in np.sum(parts, axis=0))
    ci_lo, ci_hi = wilson_interval(died, replicas, confidence)
    est = McEstimate(replicas, died, died / replicas, ci_lo, ci_hi, confidence, master_seed)
    return McDeathResult(est, exploded / replicas, undecided / replicas)


# -- growth-ratio experiments -------------------------------------------------------


@dataclass(frozen=True)
class RatioTableRow:
    step: int
    count: int
    median_y: float
    err_q10: float
    err_q50: float
    err_q90: float


#: internal crossing threshold for ratio runs: effectively never triggers
#: before the log-domain saturation does, so every observable ratio is kept.
_RATIO_THRESHOLD = ExtendedCount(log_value=1e30)


def _ratio_log_m(params: IGWParams) -> float:
    law = params.law
    if law.p0 > 0.0:
        raise RegimeError("ratio experiments need p_0 = 0")
    m = mean(law)
    if m <= 1.0:
        raise RegimeError("ratio experiments need a supercritical mean (m > 1)")
    return math.log(m)


def _ratio_paths(summarise, params, x0, replicas, master_seed, horizon, workers) -> list:
    """``summarise`` over the recorded chunks of a growth-ratio run."""
    return map_chunks(
        summarise, x0, params, horizon, _RATIO_THRESHOLD, master_seed, f"mc-ratio:{x0}",
        replicas, workers=workers, record=True,
    )


def _exploded_ratios(index: int, paths: ChunkPaths) -> list[np.ndarray]:
    """Per step n, the defined Y_n of the chunk's exploding paths."""
    exploded = paths.termination == EXPLODED
    out = []
    for n, row in enumerate(paths.ratio):
        ys = row[exploded & (paths.steps > n)]
        out.append(ys[~np.isnan(ys)])
    return out


def mc_ratio_convergence(
    params: IGWParams,
    x0: int,
    replicas: int,
    master_seed: int,
    *,
    horizon: int = 256,
    workers: int = 1,
) -> list[RatioTableRow]:
    """Per-step table of the growth ratio Y_n = log(X_{n+1})/X_n over
    exploding paths only: count, median Y_n, and quantiles of the relative
    error Y_n/log(m) - 1.  Deterministic given the seed, at any worker
    count."""
    log_m = _ratio_log_m(params)
    parts = _ratio_paths(_exploded_ratios, params, x0, replicas, master_seed, horizon, workers)
    rows = []
    for n in range(max(len(p) for p in parts)):
        ys = np.concatenate([p[n] for p in parts if n < len(p)])
        if not ys.size:
            continue
        errs = ys / log_m - 1.0
        q10, q50, q90 = np.quantile(errs, [0.1, 0.5, 0.9])
        rows.append(RatioTableRow(n, len(ys), float(np.median(ys)), float(q10), float(q50), float(q90)))
    return rows


def _crossing_errors(level: ExtendedCount, log_m: float, index: int, paths: ChunkPaths) -> np.ndarray:
    """(error at the first state >= level, error one step later) for each of
    the chunk's exploding paths that has both ratios, in replica order."""
    n_ratio = len(paths.ratio) - 1
    if n_ratio < 1:
        return np.empty((0, 2))
    reached = ~states_below(paths.exact[:n_ratio], paths.log[:n_ratio], level)
    reached &= np.arange(n_ratio)[:, None] < paths.steps - 1
    reached &= paths.termination == EXPLODED
    cols = np.nonzero(reached.any(axis=0))[0]
    first = reached.argmax(axis=0)[cols]
    y0 = paths.ratio[first, cols]
    y1 = paths.ratio[first + 1, cols]
    keep = ~(np.isnan(y0) | np.isnan(y1))
    return np.abs(np.column_stack((y0[keep], y1[keep])) / log_m - 1.0)


def ratio_crossing_errors(
    params: IGWParams,
    x0: int,
    replicas: int,
    level: int,
    master_seed: int,
    *,
    horizon: int = 256,
    workers: int = 1,
) -> list[tuple[float, float]]:
    """Per-path relative ratio errors at the first state >= ``level`` and at
    the following step, over exploding paths that reach both.

    This is the desk-scale surrogate for almost-sure ratio convergence: the
    error should already be small when the state first clears ``level`` and
    should collapse further one step later.
    """
    log_m = _ratio_log_m(params)
    summarise = partial(_crossing_errors, ExtendedCount.exact(level), log_m)
    parts = _ratio_paths(summarise, params, x0, replicas, master_seed, horizon, workers)
    return [(e0, e1) for e0, e1 in np.concatenate(parts).tolist()]


# -- inequality verification --------------------------------------------------------

_SLACK = 1e-12


@dataclass(frozen=True)
class SubmultReport:
    x: int
    y: int
    n: int
    interval_xy: IntervalProb
    interval_x: IntervalProb
    interval_y: IntervalProb
    status: str  # "certified" | "pass" | "indeterminate"


def submultiplicativity_check(
    params: IGWParams, x: int, y: int, n: int, caps: Caps = Caps()
) -> SubmultReport:
    """Check P_{x+y}(X_n = 0) <= P_x(X_n = 0) * P_y(X_n = 0) on certified
    intervals.

    "certified" means hi(x+y) <= lo(x)*lo(y), proving the inequality for
    the true values; "pass" means hi(x+y) <= hi(x)*hi(y) up to float
    rounding; anything else is
    reported indeterminate, not failed, since the inequality holds for the
    true probabilities and certified intervals can only be too wide, never
    wrong.
    """
    if params.law.p0 > 0.0:
        raise RegimeError("the submultiplicativity bound is stated for p_0 = 0")
    if min(x, y) < 1:
        raise ValueError("both start states must be >= 1")
    if n == 0:
        z = IntervalProb(0.0, 0.0)  # P(X_0 = 0) = 0 from any positive state
        return SubmultReport(x, y, 0, z, z, z, "certified")
    ixy = finite_horizon_death(x + y, params, n, caps)
    ix = finite_horizon_death(x, params, n, caps)
    iy = finite_horizon_death(y, params, n, caps)
    if ixy.hi <= ix.lo * iy.lo + _SLACK:
        status = "certified"
    elif ixy.hi <= ix.hi * iy.hi + _SLACK:
        status = "pass"
    else:
        status = "indeterminate"
    return SubmultReport(x, y, n, ixy, ix, iy, status)


@dataclass(frozen=True)
class AbsorptionRow:
    n: int
    survival_lo: float
    survival_hi: float
    geometric_bound: float
    status: str


@dataclass(frozen=True)
class AbsorptionReport:
    x: int
    p0: float
    rows: tuple[AbsorptionRow, ...]

    @property
    def all_certified(self) -> bool:
        return all(r.status == "certified" for r in self.rows)


def geometric_absorption_check(
    params: IGWParams, x: int, n_max: int, caps: Caps = Caps()
) -> AbsorptionReport:
    """Check the uniform geometric absorption bound
    P_x(X_n != 0) <= (1 - p_0)^n for laws that can produce zero offspring.

    Survival comes from the certified death intervals; rows whose interval
    straddles the bound are flagged indeterminate rather than failed.
    """
    p0 = params.law.p0
    if p0 <= 0.0:
        raise RegimeError("the absorption bound needs p_0 > 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        death = finite_horizon_death(x, params, n, caps)
        surv_hi = 1.0 - death.lo
        surv_lo = 1.0 - death.hi
        bound = (1.0 - p0) ** n
        if surv_hi <= bound + _SLACK:
            status = "certified"
        elif surv_lo <= bound + _SLACK:
            status = "indeterminate"
        else:
            status = "violated"
        rows.append(AbsorptionRow(n, surv_lo, surv_hi, bound, status))
    return AbsorptionReport(x, p0, tuple(rows))
