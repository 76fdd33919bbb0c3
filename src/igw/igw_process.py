"""The iterated chain itself: the batched simulator and regime
classification.

One step from state x >= 1 runs the auxiliary branching process for x
generations, sums the total progeny S_x, and thins it binomially with
survival probability theta.  State 0 is absorbing.  Generations run as
exact integers while Z stays within the cap; once Z leaves it, the rest of
the sum is one Gaussian draw with its exact mean and variance.  A state in
the log tier makes the next total astronomically concentrated, so that
step is deterministic: log X' = x*log(m) + log(m/(m-1)) + log(theta).

:func:`simulate_chunk` advances a block of replicas as numpy arrays drawing
from one stream, and :func:`map_chunks` drives every Monte Carlo experiment
through it: replica r belongs to chunk r // RNG_CHUNK, and chunk c draws
from the stream keyed by (master seed, purpose, c).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .gw_engine import (
    DEFAULT_EXACT_CAP,
    LOG_EXACT_CAP,
    LOG_VALUE_LIMIT,
    ExtendedCount,
    LawContext,
    law_context,
    stream_for,
)
from .reproduction_laws import (
    IGWParams,
    MEAN_CRITICAL_TOL,
    OffspringLaw,
    RegimeError,
    mean,
)


class TerminationKind(str, Enum):
    DIED = "Died"
    EXPLODED = "Exploded"
    HORIZON = "HorizonReached"


class MeanRegime(str, Enum):
    EXPLODES = "MeanExplodes"
    VANISHES = "MeanVanishes"
    CONSTANT = "MeanConstant"


class AlmostSureRegime(str, Enum):
    DEATH = "AlmostSureDeath"
    EXPLOSION = "AlmostSureExplosion"
    MIXED = "MixedDeathOrExplosion"
    THINNED_IDENTITY = "ThinnedIdentity"


@dataclass(frozen=True)
class RegimeReport:
    mean_regime: MeanRegime
    as_regime: AlmostSureRegime


def classify_regimes(params: IGWParams) -> RegimeReport:
    """Mean and almost-sure behaviour from (law, theta) alone.

    Laws putting all mass on one child get their own label: the chain is
    then a pure thinning chain (S_x = x), constant without thinning and
    almost surely dying with it.  Mean criticality is decided up to the pmf
    tolerance band around m = 1.
    """
    law = params.law
    theta = params.theta
    m = mean(law)
    critical = abs(m - 1.0) <= MEAN_CRITICAL_TOL

    if m > 1.0 and not critical:
        mean_regime = MeanRegime.EXPLODES
    elif critical and theta == 1.0:
        mean_regime = MeanRegime.CONSTANT
    else:
        mean_regime = MeanRegime.VANISHES

    if law.p1 == 1.0:
        as_regime = AlmostSureRegime.THINNED_IDENTITY
    elif law.p0 > 0.0:
        as_regime = AlmostSureRegime.DEATH
    elif theta == 1.0:
        as_regime = AlmostSureRegime.EXPLOSION
    else:
        as_regime = AlmostSureRegime.MIXED
    return RegimeReport(mean_regime, as_regime)


# -- batched engine ----------------------------------------------------------------

#: replicas per chunk.  Chunk c of an experiment draws from the stream keyed
#: by (master_seed, purpose, c), so a replica's path depends on this size but
#: never on the worker count.
RNG_CHUNK = 1024

#: verdict codes of the batched engine, indexing ``TERMINATIONS``.
DIED, EXPLODED, UNDECIDED = 0, 1, 2
TERMINATIONS = (TerminationKind.DIED, TerminationKind.EXPLODED, TerminationKind.HORIZON)

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ChunkPaths:
    """Paths of one chunk of replicas, as advanced by :func:`simulate_chunk`.

    ``termination[r]`` indexes ``TERMINATIONS`` and ``steps[r]`` is the step
    at which replica r died or exploded (the horizon if undecided).  With
    records, row n of ``exact`` and ``log`` holds X_n (``exact`` is -1 for a
    log-tier state, ``log`` is -inf for 0) and row n of ``ratio`` holds
    Y_n = log(X_{n+1}) / X_n (nan where undefined).  A replica's entries
    past its own ``steps`` are meaningless.
    """

    termination: np.ndarray
    steps: np.ndarray
    exact: Optional[np.ndarray] = None
    log: Optional[np.ndarray] = None
    ratio: Optional[np.ndarray] = None


def _log_of(exact: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(exact.astype(np.float64))


def _from_log(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector :meth:`ExtendedCount.from_log`: (exact values, -1 in the log
    tier; logs), demoting to exact at or below the cap."""
    logs = np.minimum(logs, LOG_VALUE_LIMIT)
    demote = logs <= LOG_EXACT_CAP
    exact = np.full(logs.shape, -1, np.int64)
    exact[demote] = np.rint(np.exp(logs[demote]))
    logs[demote] = _log_of(exact[demote])
    return exact, logs


def states_below(exact: np.ndarray, logs: np.ndarray, count: ExtendedCount) -> np.ndarray:
    """Vector ``state < count``: integers when both are exact, logs otherwise."""
    if count.is_exact and count.exact_value <= _INT64_MAX:  # type: ignore[operator]
        return np.where(exact >= 0, exact < count.exact_value, logs < count.log())
    return logs < count.log()


def _next_generations(law: OffspringLaw, z: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One generation from each entry of z (>= 1 individuals), exact in
    distribution."""
    two = law.two_atoms
    if two is not None:
        a, b, pb = two
        return a * z + (b - a) * gen.binomial(z, pb)
    # row blocks bound the count matrix for laws with a wide support
    rows = max(1, 2**20 // law.probs_array.size)
    return np.concatenate([
        gen.multinomial(z[i:i + rows], law.probs_array) @ law.ks_array
        for i in range(0, z.size, rows)
    ])


@lru_cache(maxsize=16)
def _point_mass_table(pm: int) -> np.ndarray:
    """S_x = pm (pm^x - 1) / (pm - 1) for x = 0, 1, ... while it is within
    the cap; read-only, as every caller shares it."""
    table = [0]
    while table[-1] * pm + pm <= DEFAULT_EXACT_CAP:
        table.append(table[-1] * pm + pm)
    out = np.asarray(table, np.int64)
    out.flags.writeable = False
    return out


def _point_mass_totals(ctx: LawContext, pm: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S_x in closed form when every individual has exactly pm children."""
    if pm == 0:
        return np.zeros_like(x), np.full(x.shape, -np.inf)
    if pm == 1:
        return np.where(x > DEFAULT_EXACT_CAP, -1, x), _log_of(x)
    table = _point_mass_table(pm)
    exact_x = x < table.size
    s = np.full(x.shape, -1, np.int64)
    s[exact_x] = table[x[exact_x]]
    logs = np.empty(x.shape)
    logs[exact_x] = _log_of(s[exact_x])
    g = x[~exact_x].astype(np.float64) * ctx.log_m
    logs[~exact_x] = np.minimum(g + ctx.log_fold + np.log1p(-np.exp(-g)), LOG_VALUE_LIMIT)
    return s, logs


#: 1/n! for n = 19 down to 2, the Taylor coefficients (highest first) of
#: (e^x - 1 - x)/x^2 in x; every other one gives (sinh x - x)/x^3 in x^2
_TAYLOR = [1.0 / math.factorial(n) for n in range(19, 1, -1)]


def _remainder_moments(ctx: LawContext, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log mu_L, rho_L): mu_L = E S_L = m (m^L - 1)/(m - 1) and rho_L =
    Var S_L / mu_L^2 for S_L, the total of L generations from one ancestor.
    With x = L log m, P = (x/2)^2 / sinh(x/2)^2, r = log(m)/(m-1) and
    k = ((m+1) r - 2)/(m-1)^2 (1 and 1/6 at m = 1), log mu_L is
    log m + log(L r) + log((e^x - 1)/x) and rho_L m^2/v is
    2 L r P (sinh x - x)/x^3 + P k/(r^2 L) + P (e^x - 1 - x)/x^2: no term
    is negative, so nothing cancels near m = 1.  Series give k near m = 1
    and the factors in x below |x| = 1; above it, closed forms in
    sinh(|x|/2) and e^-|x| overflow for no m > 0 and no L."""
    m, log_m = ctx.m, ctx.log_m
    d = m - 1.0
    r = log_m / d if d else 1.0
    k = (sum((-d) ** n * (n + 1) / ((n + 2) * (n + 3)) for n in range(40)) if abs(d) < 0.25
         else ((2.0 + d) * r - 2.0) / (d * d))
    x = left * log_m
    ax = np.abs(x)
    small = ax < 1.0
    xs = np.where(small, x, 0.0)
    f, a = np.polyval(_TAYLOR, xs), np.polyval(_TAYLOR[::2], xs * xs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sh2 = np.sinh(0.5 * ax) ** 2
        p = np.where(ax > 0.0, 0.25 * ax * ax / sh2, 1.0)
        pa = np.where(small, p * a, 0.5 / (ax * np.tanh(0.5 * ax)) - 0.25 / sh2)
        tail = (np.expm1(-ax) + ax) / (4.0 * sh2)  # P f(-|x|), and P f(x) + P f(-x) = 1
        pf = np.where(small, p * f, np.where(x > 0.0, 1.0 - tail, tail))
        log_e = np.where(small, np.log1p(xs * f), np.log(-np.expm1(-ax) / ax) + np.maximum(x, 0.0))
    rho = ctx.v / (m * m) * (2.0 * left * r * pa + p * k / (r * r * left) + pf)
    return log_m + np.log(left * r) + log_e, rho


def _remainder_log(
    ctx: LawContext, z_log: np.ndarray, left: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """log R, R = Z_{K+1} + ... + Z_{K+L} once Z_K = z has left the exact
    range with L generations to go: z i.i.d. copies of S_L, drawn as one
    Gaussian with their exact mean and variance, clamped at R >= 0."""
    log_mu, rho = _remainder_moments(ctx, left)
    noise = np.sqrt(rho * np.exp(-z_log)) * gen.standard_normal(left.size)
    with np.errstate(divide="ignore"):
        return z_log + log_mu + np.log1p(np.maximum(noise, -1.0))


def _chunk_totals(ctx: LawContext, x: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """S_x for each entry of x (all >= 1): exact values (-1 where S left the
    exact range) and logs, each replica run for its own x generations from
    one ancestor: exact generations while Z stays within the cap, then one
    Gaussian draw for the rest of the sum (:func:`_remainder_log`)."""
    law = ctx.law
    if law.point_mass is not None:
        return _point_mass_totals(ctx, law.point_mass, x)
    s = np.zeros(x.size, np.int64)  # -1 once S has left the exact range
    s_log = np.full(x.size, -np.inf)  # read only where s is -1
    # the running replicas (exact Z, alive, generations left), in index order
    run, z = np.arange(x.size), np.ones(x.size, np.int64)
    rs, rl, left = s.copy(), s_log.copy(), x.copy()
    gauss = []
    while run.size:
        z = _next_generations(law, z, gen)
        left -= 1
        small = z <= DEFAULT_EXACT_CAP
        add = small & (rs >= 0)
        np.add(rs, z, out=rs, where=add)
        # S joins the log range with its first huge generation or sum
        grow = ~add
        if grow.any():
            prev = rs[grow]
            cur = np.where(prev >= 0, _log_of(np.maximum(prev, 0)), rl[grow])
            rl[grow], rs[grow] = np.logaddexp(cur, _log_of(z[grow])), -1
        over = rs > DEFAULT_EXACT_CAP
        if over.any():
            rl[over], rs[over] = _log_of(rs[over]), -1
        stop = ~small | (z == 0) | (left == 0)
        if stop.any():
            on = ~small & (left > 0)
            if on.any():
                gauss.append((run[on], _log_of(z[on]), left[on]))
            s[run[stop]], s_log[run[stop]] = rs[stop], rl[stop]
            keep = ~stop
            run, z, rs, rl, left = run[keep], z[keep], rs[keep], rl[keep], left[keep]
    if gauss:
        g, z_log, left = (np.concatenate(parts) for parts in zip(*gauss))
        s_log[g] = np.logaddexp(s_log[g], _remainder_log(ctx, z_log, left, gen))
    exact = s >= 0
    s_log[exact] = _log_of(s[exact])
    s[~exact], s_log[~exact] = _from_log(s_log[~exact])
    return s, s_log


def _chunk_step(
    ctx: LawContext, theta: float, xi: np.ndarray, xl: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One transition for every replica (all states nonzero).  States are
    (exact values, -1 in the log tier; logs).  An exact state x moves to the
    theta-thinning of S_x: one exact binomial draw while S is exact, a shift
    by log(theta) once S has left the exact range.  A log-tier state moves
    deterministically to log X' = X log m + log(m/(m-1)) + log(theta)."""
    ni = np.empty_like(xi)
    nl = np.empty_like(xl)
    big = xi < 0
    if big.any():
        if ctx.m <= 1.0:
            raise RegimeError("log-tier states only arise from supercritical growth (m > 1)")
        with np.errstate(over="ignore"):
            log_next = np.exp(xl[big]) * ctx.log_m + (ctx.log_fold + math.log(theta))
        ni[big], nl[big] = _from_log(log_next)
    small = ~big
    if not small.any():
        return ni, nl
    si, sl = _chunk_totals(ctx, xi[small], gen)
    if theta < 1.0:
        exact = si >= 0
        out = gen.binomial(si[exact], theta)
        si[exact] = out
        sl[exact] = _log_of(out)
        si[~exact], sl[~exact] = _from_log(sl[~exact] + math.log(theta))
    ni[small], nl[small] = si, sl
    return ni, nl


def simulate_chunk(
    x0: int,
    params: IGWParams,
    horizon: int,
    explosion_threshold: Union[int, ExtendedCount],
    gen: np.random.Generator,
    size: int = RNG_CHUNK,
    *,
    record: bool = False,
) -> ChunkPaths:
    """Iterate ``size`` independent copies of the chain from x0, all drawing
    from ``gen``, until each dies, crosses ``explosion_threshold`` or reaches
    the horizon.  Death is the first zero state, explosion the first state
    at or above the threshold; paths still undecided at the horizon keep
    their own verdict and are never folded into either class.

    Exact states are int64, so the law's largest offspring count must keep
    DEFAULT_EXACT_CAP * max_k below 2**63.  Per-step states and ratios are
    kept only with ``record``.
    """
    if x0 < 1:
        raise ValueError("start the chain from a positive state")
    if x0 > _INT64_MAX:
        raise ValueError("the batched engine starts from int64 states")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if size < 1:
        raise ValueError("a chunk holds at least one replica")
    law = params.law
    if DEFAULT_EXACT_CAP * law.max_k > _INT64_MAX:
        raise ValueError(
            f"offspring counts up to {law.max_k} can overflow int64 generation sizes "
            f"above the exact cap {DEFAULT_EXACT_CAP}"
        )
    threshold = explosion_threshold
    if not isinstance(threshold, ExtendedCount):
        threshold = ExtendedCount.exact(int(threshold))
    start = ExtendedCount.exact(x0)
    if threshold < start:
        raise ValueError("explosion threshold must be at least the start state")

    ctx = law_context(law)
    theta = params.theta
    shift = ctx.log_fold + math.log(theta)  # nan unless m > 1
    monotone = theta == 1.0 and law.p0 == 0.0
    termination = np.full(size, UNDECIDED, np.int8)
    steps = np.full(size, horizon, np.int64)
    xi = np.full(size, x0, np.int64)
    xl = np.full(size, math.log(x0))
    rows_exact, rows_log, rows_ratio = [xi.copy()], [xl.copy()], []

    live = np.arange(size)
    if not start < threshold:
        termination[:] = EXPLODED
        steps[:] = 0
        live = live[:0]
    for n in range(horizon):
        if not live.size:
            break
        ni, nl = _chunk_step(ctx, theta, xi, xl, gen)
        if monotone:
            fell = np.where((ni >= 0) & (xi >= 0), ni < xi, nl < xl)
            assert not fell.any(), "paths must be nondecreasing without thinning or deaths"
        died = ni == 0
        if record:
            with np.errstate(over="ignore"):
                y = np.where(xi >= 0, nl / xi, ctx.log_m + shift / np.exp(xl))
            y[died] = np.nan
            for rows, values, fill in (
                (rows_exact, ni, -1),
                (rows_log, nl, np.nan),
                (rows_ratio, y, np.nan),
            ):
                row = np.full(size, fill, values.dtype)
                row[live] = values
                rows.append(row)
        exploded = ~died & ~states_below(ni, nl, threshold)
        termination[live[died]] = DIED
        termination[live[exploded]] = EXPLODED
        done = died | exploded
        steps[live[done]] = n + 1
        keep = ~done
        live, xi, xl = live[keep], ni[keep], nl[keep]

    if not record:
        return ChunkPaths(termination, steps)
    ratio = np.array(rows_ratio) if rows_ratio else np.empty((0, size))
    return ChunkPaths(termination, steps, np.array(rows_exact), np.array(rows_log), ratio)


def _run_chunk(summarise, x0, params, horizon, threshold, master_seed, purpose, record, index, size):
    gen = stream_for(master_seed, index, purpose)
    paths = simulate_chunk(x0, params, horizon, threshold, gen, size, record=record)
    return summarise(index, paths)


def map_chunks(
    summarise: Callable[[int, ChunkPaths], object],
    x0: int,
    params: IGWParams,
    horizon: int,
    threshold: Union[int, ExtendedCount],
    master_seed: int,
    purpose: str,
    replicas: int,
    *,
    workers: int = 1,
    record: bool = False,
) -> list:
    """Simulate ``replicas`` paths in chunks of RNG_CHUNK and return
    ``summarise(chunk_index, paths)`` for every chunk, in chunk order.

    Chunk c draws from ``stream_for(master_seed, c, purpose)``, so the
    result is identical at any worker count; ``workers`` > 1 spreads chunks
    over that many processes, never more than there are chunks or CPUs
    (``os.cpu_count()``).  ``summarise`` runs in the worker and must be
    a module-level function, or a partial of one, so that it pickles.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sizes = [min(RNG_CHUNK, replicas - start) for start in range(0, replicas, RNG_CHUNK)]
    job = partial(_run_chunk, summarise, x0, params, horizon, threshold, master_seed, purpose, record)
    processes = min(workers, len(sizes), os.cpu_count() or 1)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly to import

        # the platform's default start method: a chunk takes milliseconds,
        # and spawned workers would each start an interpreter and re-import
        # numpy and igw
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(pool.map(job, range(len(sizes)), sizes))
    return [job(index, size) for index, size in enumerate(sizes)]
