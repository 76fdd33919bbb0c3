"""The iterated chain itself: the batched simulator and regime
classification.

One step from state x >= 1 runs the auxiliary branching process for x
generations, sums the total progeny S_x, and thins it binomially with
survival probability theta.  State 0 is absorbing.  A state already in the
log tier makes the next total astronomically concentrated, so that step is
computed deterministically: log S = x*log(m) + log(m/(m-1)) and
log X' = log S + log(theta).

:func:`simulate_chunk` advances a block of replicas as numpy arrays drawing
from one stream, and :func:`map_chunks` drives every Monte Carlo experiment
through it: replica r belongs to chunk r // RNG_CHUNK, and chunk c draws
from the stream keyed by (master seed, purpose, c).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .gw_engine import (
    DEFAULT_EXACT_CAP,
    LOG_EXACT_CAP,
    LOG_VALUE_LIMIT,
    THIN_EXACT_LIMIT,
    ExtendedCount,
    LawContext,
    RngStream,
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


def _as_count(x: Union[int, ExtendedCount]) -> ExtendedCount:
    if isinstance(x, ExtendedCount):
        return x
    return ExtendedCount.exact(int(x))


def _ratio_shift(ctx: LawContext, theta: float) -> float:
    """log(m/(m-1)) + log(theta): the offset of a deterministic step (nan
    unless m > 1)."""
    return ctx.log_fold + math.log(theta)


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


def _below_pairwise(ai: np.ndarray, al: np.ndarray, bi: np.ndarray, bl: np.ndarray) -> np.ndarray:
    """Vector ``a < b`` for two arrays of states."""
    return np.where((ai >= 0) & (bi >= 0), ai < bi, al < bl)


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


def _point_mass_totals(ctx: LawContext, pm: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S_x in closed form when every individual has exactly pm children."""
    if pm == 0:
        return np.zeros_like(x), np.full(x.shape, -np.inf)
    if pm == 1:
        return np.where(x > DEFAULT_EXACT_CAP, -1, x), _log_of(x)
    # S_x = pm (pm^x - 1) / (pm - 1); exact for the x whose S_x is within the cap
    table = [0]
    while table[-1] <= DEFAULT_EXACT_CAP:
        table.append(table[-1] * pm + pm)
    exact_x = x < len(table) - 1
    s = np.full(x.shape, -1, np.int64)
    s[exact_x] = np.asarray(table, np.int64)[x[exact_x]]
    logs = np.empty(x.shape)
    logs[exact_x] = _log_of(s[exact_x])
    g = x[~exact_x].astype(np.float64) * ctx.log_m
    logs[~exact_x] = np.minimum(g + ctx.log_fold + np.log1p(-np.exp(-g)), LOG_VALUE_LIMIT)
    return s, logs


def _chunk_totals(ctx: LawContext, x: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """S_x for each entry of x (all >= 1): exact values (-1 where S left the
    exact range) and logs, each replica run for its own x generations from
    one ancestor on the count ladder of :mod:`igw.gw_engine`: exact
    generations while Z stays within the cap, Gaussian branching noise
    beyond it, and one deterministic fold of the remaining generations once
    that noise cannot move a float."""
    law = ctx.law
    if law.point_mass is not None:
        return _point_mass_totals(ctx, law.point_mass, x)
    cap = DEFAULT_EXACT_CAP
    n = x.size
    s = np.zeros(n, np.int64)  # -1 once S has left the exact range
    s_log = np.full(n, -np.inf)
    z = np.ones(n, np.int64)
    z_log = np.zeros(n)
    left = x.copy()
    run = np.arange(n)  # exact Z, alive, generations left
    gauss = []
    while run.size:
        zr = _next_generations(law, z[run], gen)
        left[run] -= 1
        sr = s[run]
        small = zr <= cap
        add = small & (sr >= 0)
        sr[add] += zr[add]
        # S joins the log range with its first huge generation or sum
        into_log = ~add | (sr > cap)
        zr_log = _log_of(zr)
        cur = np.where(sr >= 0, _log_of(np.maximum(sr, 0)), s_log[run])
        s_log[run] = np.where(add, cur, np.logaddexp(cur, zr_log))
        sr[into_log] = -1
        s[run] = sr
        z[run] = zr
        z_log[run] = zr_log
        gauss.append(run[~small & (left[run] > 0)])
        run = run[small & (zr > 0) & (left[run] > 0)]
    g = np.concatenate(gauss)
    m, v, log_m = ctx.m, ctx.v, ctx.log_m
    while g.size:
        fold = z_log[g] > ctx.handover_log
        if fold.any():
            # the remaining noise cannot move a float: add sum_j Z m^j at once
            f = g[fold]
            k = left[f] * log_m
            s_log[f] = np.logaddexp(
                s_log[f], z_log[f] + log_m + k + np.log1p(-np.exp(-k)) - math.log(m - 1.0)
            )
            g = g[~fold]
        if not g.size:
            break
        # v > 0: only a point mass has no variance, and it has a closed form
        zf = np.exp(z_log[g])
        zf = np.maximum(m * zf + np.sqrt(v * zf) * gen.standard_normal(g.size), 1.0)
        z_log[g] = np.log(zf)
        s_log[g] = np.logaddexp(s_log[g], z_log[g])
        left[g] -= 1
        g = g[left[g] > 0]
    big = s < 0
    s[big], s_log[big] = _from_log(s_log[big])
    return s, s_log


def _chunk_step(
    ctx: LawContext, theta: float, xi: np.ndarray, xl: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One transition for every replica (all states nonzero).  States are
    (exact values, -1 in the log tier; logs).  An exact state x moves to the
    theta-thinning of S_x: binomial up to THIN_EXACT_LIMIT individuals, a
    rounded normal clamped to [0, S] above it, and a shift by log(theta)
    once S has left the exact range.  A log-tier state moves
    deterministically to log X' = X log m + log(m/(m-1)) + log(theta)."""
    ni = np.empty_like(xi)
    nl = np.empty_like(xl)
    big = xi < 0
    if big.any():
        if ctx.m <= 1.0:
            raise RegimeError("log-tier states only arise from supercritical growth (m > 1)")
        with np.errstate(over="ignore"):
            log_next = np.exp(xl[big]) * ctx.log_m + _ratio_shift(ctx, theta)
        ni[big], nl[big] = _from_log(log_next)
    small = ~big
    if not small.any():
        return ni, nl
    si, sl = _chunk_totals(ctx, xi[small], gen)
    if theta < 1.0:
        exact = si >= 0
        s = si[exact]
        out = s.copy()
        few = s <= THIN_EXACT_LIMIT
        out[few] = gen.binomial(s[few], theta)
        many = ~few
        if many.any():
            sm = s[many].astype(np.float64)
            drawn = np.rint(sm * theta + np.sqrt(sm * theta * (1.0 - theta)) * gen.standard_normal(sm.size))
            out[many] = np.clip(drawn, 0.0, sm)
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
    rng: RngStream,
    size: int = RNG_CHUNK,
    *,
    record: bool = False,
) -> ChunkPaths:
    """Iterate ``size`` independent copies of the chain from x0, all drawing
    from ``rng``, until each dies, crosses ``explosion_threshold`` or reaches
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
    threshold = _as_count(explosion_threshold)
    start = ExtendedCount.exact(x0)
    if threshold < start:
        raise ValueError("explosion threshold must be at least the start state")

    ctx = law_context(law)
    theta = params.theta
    shift = _ratio_shift(ctx, theta)
    monotone = theta == 1.0 and law.p0 == 0.0
    gen = rng.generator
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
            assert not _below_pairwise(ni, nl, xi, xl).any(), (
                "paths must be nondecreasing without thinning or deaths"
            )
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
    rng = stream_for(master_seed, index, purpose)
    paths = simulate_chunk(x0, params, horizon, threshold, rng, size, record=record)
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
    over that many processes.  ``summarise`` runs in the worker and must be
    a module-level function, or a partial of one, so that it pickles.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    sizes = [min(RNG_CHUNK, replicas - start) for start in range(0, replicas, RNG_CHUNK)]
    job = partial(_run_chunk, summarise, x0, params, horizon, threshold, master_seed, purpose, record)
    if workers > 1 and len(sizes) > 1:
        # the platform's default start method: a chunk takes milliseconds,
        # and spawned workers would each start an interpreter and re-import
        # numpy and igw
        with ProcessPoolExecutor(max_workers=min(workers, len(sizes))) as pool:
            return list(pool.map(job, range(len(sizes)), sizes))
    return [job(index, size) for index, size in enumerate(sizes)]
