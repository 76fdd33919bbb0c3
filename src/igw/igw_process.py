"""The iterated chain itself: the count ladder, the random streams, the
batched simulator, its Monte Carlo estimators and regime classification.

One step from state x >= 1 runs the auxiliary branching process for x
generations, sums the total progeny S_x, and thins it binomially with
survival probability theta.  State 0 is absorbing.  Counts travel on a
ladder, and promotion between its tiers never overflows:

* exact integers while the count stays at or below ``DEFAULT_EXACT_CAP``
  (2**48); one generation advances by one binomial or multinomial draw
  of the offspring counts of all its individuals,
* one Gaussian draw for the rest of the sum once a generation Z = z
  leaves the exact range with L generations to go: z i.i.d. L-generation
  totals, with the mean and variance that Gaussian branching noise
  ``Z' = m*Z + sqrt(v*Z) * N(0,1)`` gives them, which preserves the
  fluctuation scale of the almost-sure growth limit,
* logs beyond the exact range (:class:`ExtendedCount`, saturated at
  ``LOG_VALUE_LIMIT``), where a state steps by a formula,
  log X' = x*log(m) + log(m/(m-1)) + log(theta), the log of the next
  state's mean up to a relative m^-x.  That step is not exact in law.  It
  drops the martingale limit W of the one-ancestor tree, S_x/E(S_x) -> W,
  whose log has sd about 0.74 on binary:0.5 (ROADMAP item 16).  For
  p_0 > 0 it also drops the tree's extinction, so a log-tier path never
  dies (item 13).

The per-law constants these tiers read (m, v, log m, log(m/(m-1))) are
cached on :class:`~igw.reproduction_laws.OffspringLaw`.

:func:`map_chunks` drives every Monte Carlo experiment: replica r belongs
to chunk r // RNG_CHUNK, and chunk c draws from :func:`stream_for`, the
counter-based (Philox) stream keyed by (master seed, purpose, c), so
results are bit-for-bit the same at any worker count.
:func:`simulate_chunks` advances consecutive chunks in lockstep batches as
numpy arrays: each step does its bookkeeping once for the whole batch,
while each chunk draws from its own stream, in its own order: its exact
generations, then its Gaussian remainders, then its thinning.  A chunk's
paths are therefore those of the batch of that chunk alone.  Within a
step, a replica whose total has finished, died or left the exact range
stays in the running arrays as an inert entry with Z = 0, which draws
nothing, until half of the entries are inert.

The estimators summarise each chunk's verdicts and rows: death fractions
with Wilson score intervals (:func:`mc_death_prob`), with paths undecided
at the horizon reported apart, never folded into either class, and the
growth ratio Y_n = log(X_{n+1})/X_n of exploding paths.
"""

from __future__ import annotations

import math
import os
from _blake2 import blake2s
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial, total_ordering
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .reproduction_laws import IGWParams, MEAN_CRITICAL_TOL, OffspringLaw, RegimeError


#: counts at or below this stay exact integers.
DEFAULT_EXACT_CAP = 2**48

LOG_EXACT_CAP = math.log(DEFAULT_EXACT_CAP)

#: log values are saturated here so they stay finite floats; any state this
#: large exceeds every usable explosion threshold.
LOG_VALUE_LIMIT = 1e308

_MASK64 = (1 << 64) - 1


# -- counts ------------------------------------------------------------------


@total_ordering
@dataclass(frozen=True)
class ExtendedCount:
    """A population count, exact below the cap and log-domain above it.

    Exactly one of ``exact_value`` (a nonnegative int) and ``log_value``
    (the natural log of the represented count, a finite float) is set.
    """

    exact_value: Optional[int] = None
    log_value: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.exact_value is None) == (self.log_value is None):
            raise ValueError("exactly one of exact_value/log_value must be set")
        if self.exact_value is not None and self.exact_value < 0:
            raise ValueError("counts are nonnegative")
        if self.log_value is not None and not math.isfinite(self.log_value):
            raise ValueError("log_value must be finite")

    @classmethod
    def exact(cls, value: int) -> "ExtendedCount":
        return cls(exact_value=int(value))

    @classmethod
    def from_log(cls, log_value: float) -> "ExtendedCount":
        """Build a count from its log, demoting to exact below the cap."""
        if log_value <= LOG_EXACT_CAP:
            return cls(exact_value=int(round(math.exp(log_value))))
        return cls(log_value=min(float(log_value), LOG_VALUE_LIMIT))

    @property
    def is_exact(self) -> bool:
        return self.exact_value is not None

    def log(self) -> float:
        """Natural log of the count; -inf for an exact zero."""
        if self.exact_value is not None:
            return math.log(self.exact_value) if self.exact_value > 0 else -math.inf
        return self.log_value  # type: ignore[return-value]

    def __lt__(self, other: "ExtendedCount") -> bool:
        if self.exact_value is not None and other.exact_value is not None:
            return self.exact_value < other.exact_value
        return self.log() < other.log()

    def __repr__(self) -> str:
        if self.exact_value is not None:
            return f"ExtendedCount({self.exact_value})"
        return f"ExtendedCount(log={self.log_value!r})"


# -- random streams -----------------------------------------------------------


def stream_for(master_seed: int, index: int, purpose: str) -> np.random.Generator:
    """The random stream of chunk ``index`` of one experiment.

    A counter-based (Philox) generator keyed by (master_seed, stream id),
    with the stream id a stable hash of (purpose, index): distinct chunks
    draw statistically independent, reproducible sequences, identical
    however chunks are spread over workers.  The master seed is the key's
    low 64 bits, so a seed outside [0, 2**64) is rejected, not aliased.

    The hash is BLAKE2s from CPython's builtin ``_blake2``, the very
    function ``hashlib.blake2s`` returns (hashlib never serves BLAKE2 from
    OpenSSL); importing ``hashlib`` itself would map OpenSSL's libcrypto
    into every process, exact-layer ones included, for nothing.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seeds lie in [0, 2**64), got {master_seed}")
    digest = blake2s(f"{purpose}|{index}".encode("utf-8"), digest_size=8).digest()
    key = master_seed | (int.from_bytes(digest, "big") << 64)
    return np.random.Generator(np.random.Philox(key=key))


class TerminationKind(str, Enum):
    DIED = "Died"
    EXPLODED = "Exploded"
    HORIZON = "HorizonReached"
    CENSORED = "Censored"


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
    critical = abs(law.m - 1.0) <= MEAN_CRITICAL_TOL

    if law.m > 1.0 and not critical:
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
#: the same codes for a law with p_0 > 0, which dies almost surely: a path
#: stopped at the threshold is censored, undecided as ``mc_death_prob``
#: counts it, not exploded
CENSORED_TERMINATIONS = (TerminationKind.DIED, TerminationKind.CENSORED, TerminationKind.HORIZON)

_INT64_MAX = 2**63 - 1

#: replicas times the rows each records (one without records) that one
#: lockstep batch may hold: 16 chunks without records, one chunk once a
#: recorded horizon reaches 15 steps
_LOCKSTEP_CELLS = 16 * RNG_CHUNK


@dataclass(frozen=True)
class ChunkPaths:
    """Paths of one chunk of replicas, as advanced by :func:`simulate_chunks`.

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
    """log of counts as floats; log 0 = -inf warns unless the caller has
    silenced it (:func:`_chunk_step` does, once per step)."""
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


class _Streams:
    """The random streams of a lockstep batch of chunks.  Entry i of every
    array the batch advances belongs to chunk ``owner[i]`` (nondecreasing)
    and draws from ``gens[owner[i]]``, in the entries' order."""

    def __init__(self, gens: Sequence[np.random.Generator], owner: np.ndarray) -> None:
        self.gens, self.owner = gens, owner
        bounds = np.searchsorted(owner, np.arange(len(gens) + 1)).tolist()
        self.segments = [(gen, lo, hi) for gen, lo, hi in zip(gens, bounds, bounds[1:]) if lo < hi]

    def __getitem__(self, keep: np.ndarray) -> "_Streams":
        return _Streams(self.gens, self.owner[keep])

    def draw(
        self, fn: Callable[[np.random.Generator, np.ndarray], np.ndarray], values: np.ndarray
    ) -> np.ndarray:
        """``fn(gen, part)`` on each chunk's part of ``values``, joined in
        chunk order; empty ``values`` make one empty call, which draws
        nothing."""
        parts = [fn(gen, values[lo:hi]) for gen, lo, hi in self.segments] or [fn(self.gens[0], values)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _next_generations(law: OffspringLaw, z: np.ndarray, streams: _Streams) -> np.ndarray:
    """One generation from each entry of z, exact in distribution; an entry
    with z = 0 draws nothing and stays 0."""
    two = law.two_atoms
    if two is not None:
        a, b, pb = two
        return a * z + (b - a) * streams.draw(lambda gen, n: gen.binomial(n, pb), z)
    # row blocks bound the count matrix for laws with a wide support
    rows = max(1, 2**20 // law.probs_array.size)
    return streams.draw(lambda gen, n: np.concatenate([
        gen.multinomial(n[i:i + rows], law.probs_array) @ law.ks_array
        for i in range(0, n.size, rows)
    ]), z)


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


def _point_mass_totals(law: OffspringLaw, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S_x in closed form when every individual has exactly pm =
    ``law.point_mass`` children, as :func:`_chunk_totals` returns it."""
    pm = law.point_mass
    if pm == 0:
        return np.zeros_like(x), np.full(x.shape, -np.inf)
    if pm == 1:
        return np.where(x > DEFAULT_EXACT_CAP, -1, x), _log_of(x)
    table = _point_mass_table(pm)
    logs = np.full(x.shape, -np.inf)
    exact_x = x < table.size
    s = np.full(x.shape, -1, np.int64)
    s[exact_x] = table[x[exact_x]]
    g = x[~exact_x].astype(np.float64) * law.log_m
    logs[~exact_x] = np.minimum(g + law.log_fold + np.log1p(-np.exp(-g)), LOG_VALUE_LIMIT)
    return s, logs


#: 1/n! for n = 19 down to 2, the Taylor coefficients (highest first) of
#: (e^x - 1 - x)/x^2 in x; every other one gives (sinh x - x)/x^3 in x^2
_TAYLOR = [1.0 / math.factorial(n) for n in range(19, 1, -1)]


def _remainder_moments(law: OffspringLaw, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log mu_L, rho_L): mu_L = E S_L = m (m^L - 1)/(m - 1) and rho_L =
    Var S_L / mu_L^2 for S_L, the total of L generations from one ancestor.
    With x = L log m, P = (x/2)^2 / sinh(x/2)^2, r = log(m)/(m-1) and
    k = ((m+1) r - 2)/(m-1)^2 (1 and 1/6 at m = 1), log mu_L is
    log m + log(L r) + log((e^x - 1)/x) and rho_L m^2/v is
    2 L r P (sinh x - x)/x^3 + P k/(r^2 L) + P (e^x - 1 - x)/x^2: no term
    is negative, so nothing cancels near m = 1.  Series give k near m = 1
    and the factors in x below |x| = 1; above it, closed forms in
    sinh(|x|/2) and e^-|x| overflow for no m > 0 and no L."""
    m, log_m = law.m, law.log_m
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
    rho = law.v / (m * m) * (2.0 * left * r * pa + p * k / (r * r * left) + pf)
    return log_m + np.log(left * r) + log_e, rho


def _remainder_log(law: OffspringLaw, z_log: np.ndarray, left: np.ndarray, streams: _Streams) -> np.ndarray:
    """log R, R = Z_{K+1} + ... + Z_{K+L} once Z_K = z has left the exact
    range with L generations to go: z i.i.d. copies of S_L, drawn as one
    Gaussian with their exact mean and variance, clamped at R >= 0.  One
    standard normal per entry, from its chunk's stream."""
    log_mu, rho = _remainder_moments(law, left)
    normals = streams.draw(lambda gen, part: gen.standard_normal(part.size), left)
    noise = np.sqrt(rho * np.exp(-z_log)) * normals
    with np.errstate(divide="ignore"):
        return z_log + log_mu + np.log1p(np.maximum(noise, -1.0))


def _chunk_totals(law: OffspringLaw, x: np.ndarray, streams: _Streams) -> tuple[np.ndarray, np.ndarray]:
    """S_x for each entry of x (all >= 1): exact values, -1 where S left the
    exact range, and logs, read only there.  Each replica runs its own x
    generations from one ancestor: exact generations while Z stays within
    the cap, then one Gaussian draw for the rest of the sum
    (:func:`_remainder_log`).

    No entry leaves the running arrays until half of them are inert: one
    that finishes, dies or leaves the exact range keeps Z = 0, which draws
    nothing and adds nothing.  A generation is then one draw per chunk, one
    sum, one cap test and one compare of x with the generation.  Sums in the
    log range advance on their own index set, which a sum joins once it
    crosses the cap; the entries of that set whose Z is past the cap are the
    only ones that leave the exact range.  Each chunk draws its generations,
    then its Gaussian remainders by the generation they left at, then entry.
    """
    if law.point_mass is not None:
        return _point_mass_totals(law, x)
    owner = streams.owner
    s = np.zeros(x.size, np.int64)
    s_log = np.full(x.size, -np.inf)
    # the running entries: output index, x, Z, the exact sum (0 once it is
    # in the log range) and the log sum (-inf until then)
    idx, xr, z, rs, rl = np.arange(x.size), x, np.ones(x.size, np.int64), s.copy(), s_log.copy()
    lg = idx[:0]  # running entries whose sum is in the log range
    gauss = []  # (generation, output index, log Z, generations left) of entries that left
    k = 0
    while True:
        k += 1
        z = _next_generations(law, z, streams)
        rs += z  # Z <= cap * max_k and the sum <= cap before it: no overflow
        if lg.size:
            z_lg = z[lg]
            if np.count_nonzero(z_lg) < lg.size:  # a log sum whose process ended is final
                lg, z_lg = lg[z_lg > 0], z_lg[z_lg > 0]
            rl[lg] = np.logaddexp(rl[lg], _log_of(z_lg))
            rs[lg] = 0
        over = (rs > DEFAULT_EXACT_CAP).nonzero()[0]
        if over.size:
            # a sum that crossed the cap joins the log range, its last
            # generation apart if that one is past the cap too
            sums, z_over = rs[over], z[over]
            rl[over] = np.where(
                z_over > DEFAULT_EXACT_CAP,
                np.logaddexp(_log_of(sums - z_over), _log_of(z_over)),
                _log_of(sums),
            )
            rs[over] = 0
            lg = np.concatenate((lg, over))
        z[xr == k] = 0  # before the cap test: a finished sum has nothing left to draw
        if lg.size:
            # an exact sum within the cap bounds its last generation, so only
            # a log sum can hold a Z past the cap: the rest of its sum is Gaussian
            out = z[lg] > DEFAULT_EXACT_CAP
            if np.count_nonzero(out):
                at, lg = lg[out], lg[~out]
                gauss.append((np.full(at.size, k), idx[at], _log_of(z[at]), xr[at] - k))
                z[at] = 0
        alive = np.count_nonzero(z)
        if not alive:
            break
        if 2 * alive <= z.size:
            keep = z > 0
            gone = ~keep
            s[idx[gone]], s_log[idx[gone]] = rs[gone], rl[gone]
            lg = (np.cumsum(keep) - 1)[lg[keep[lg]]]
            idx, xr, z, rs, rl = idx[keep], xr[keep], z[keep], rs[keep], rl[keep]
            streams = streams[keep]
    s[idx], s_log[idx] = rs, rl
    if gauss:
        kk, g, z_log, left = (np.concatenate(parts) for parts in zip(*gauss))
        order = np.lexsort((g, kk, owner[g]))
        g = g[order]
        remainder = _remainder_log(law, z_log[order], left[order], _Streams(streams.gens, owner[g]))
        s_log[g] = np.logaddexp(s_log[g], remainder)
    logged = s_log > -np.inf
    if np.count_nonzero(logged):
        s[logged], s_log[logged] = _from_log(s_log[logged])
    return s, s_log


def _thinned(theta: float, s: np.ndarray, s_log, streams: _Streams) -> tuple[np.ndarray, np.ndarray]:
    """The theta-thinning of totals as :func:`_chunk_totals` returns them,
    with logs everywhere: one exact binomial draw per exact total, from its
    chunk's stream, and a shift by log(theta) in the log range."""
    exact = s >= 0
    if theta < 1.0:
        s[exact] = streams[exact].draw(lambda gen, n: gen.binomial(n, theta), s[exact])
        s[~exact], s_log[~exact] = _from_log(s_log[~exact] + math.log(theta))
    s_log[exact] = _log_of(s[exact])
    return s, s_log


def _chunk_step(
    law: OffspringLaw, theta: float, xi: np.ndarray, xl: np.ndarray, streams: _Streams
) -> tuple[np.ndarray, np.ndarray]:
    """One transition for every replica (all states nonzero).  States are
    (exact values, -1 in the log tier; logs).  An exact state x moves to the
    theta-thinning of S_x: one exact binomial draw while S is exact, a shift
    by log(theta) once S has left the exact range.  A log-tier state moves,
    with no draw, to the log of its next mean, log X' = X log m +
    log(m/(m-1)) + log(theta); that drops the spread of the martingale
    limit W (ROADMAP item 16) and, for p_0 > 0, extinction (item 13).
    Each chunk draws its totals, then its thinning."""
    with np.errstate(divide="ignore"):
        big = xi < 0
        if not np.count_nonzero(big):
            return _thinned(theta, *_chunk_totals(law, xi, streams), streams)
        if law.m <= 1.0:
            raise RegimeError("log-tier states only arise from supercritical growth (m > 1)")
        ni = np.empty_like(xi)
        nl = np.empty_like(xl)
        with np.errstate(over="ignore"):
            log_next = np.exp(xl[big]) * law.log_m + (law.log_fold + math.log(theta))
        ni[big], nl[big] = _from_log(log_next)
        small = ~big
        if np.count_nonzero(small):
            part = streams[small]
            ni[small], nl[small] = _thinned(theta, *_chunk_totals(law, xi[small], part), part)
        return ni, nl


def simulate_chunks(
    x0: int,
    params: IGWParams,
    horizon: int,
    threshold: Union[float, ExtendedCount],
    gens: Sequence[np.random.Generator],
    sizes: Sequence[int],
    *,
    record: bool = False,
) -> list[ChunkPaths]:
    """Advance chunk c's ``sizes[c]`` replicas of the chain from x0, drawing
    from ``gens[c]``, until each dies (a zero state), explodes (a state at
    or above ``threshold``) or reaches the horizon undecided, a verdict of
    its own.  A numeric threshold up to DEFAULT_EXACT_CAP rounds up to a
    count, a larger one is compared in logs, and a non-finite one is
    rejected.  The chunks step in lockstep, each drawing in its own order
    (:func:`_chunk_step`) from its own stream, so a chunk's paths are those
    of the batch of that chunk alone.  Exact states are int64, so the law's
    largest offspring count must keep DEFAULT_EXACT_CAP * max_k below 2**63.
    Per-step states and ratios are kept only with ``record``.
    """
    if not len(gens) == len(sizes) >= 1:
        raise ValueError("need one generator per chunk and at least one chunk")
    if x0 < 1:
        raise ValueError("start the chain from a positive state")
    if x0 > _INT64_MAX:
        raise ValueError("the batched engine starts from int64 states")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if min(sizes) < 1:
        raise ValueError("a chunk holds at least one replica")
    law = params.law
    if DEFAULT_EXACT_CAP * law.max_k > _INT64_MAX:
        raise ValueError(
            f"offspring counts up to {law.max_k} can overflow int64 generation sizes "
            f"above the exact cap {DEFAULT_EXACT_CAP}"
        )
    if not isinstance(threshold, ExtendedCount):
        if not -math.inf < threshold < math.inf:  # nan too; an int of any size passes
            raise ValueError(f"explosion threshold {threshold!r} is not finite")
        # states are counts, so 1.5 means 2
        threshold = (ExtendedCount.exact(math.ceil(threshold)) if threshold <= DEFAULT_EXACT_CAP
                     else ExtendedCount(log_value=math.log(threshold)))
    start = ExtendedCount.exact(x0)
    if threshold < start:
        raise ValueError("explosion threshold must be at least the start state")

    theta = params.theta
    shift = law.log_fold + math.log(theta)  # nan unless m > 1
    monotone = theta == 1.0 and law.p0 == 0.0
    size = sum(sizes)
    streams = _Streams(gens, np.repeat(np.arange(len(sizes)), sizes))
    termination = np.full(size, UNDECIDED, np.int8)
    steps = np.full(size, horizon, np.int64)
    xi = np.full(size, x0, np.int64)
    xl = np.full(size, math.log(x0))
    if record:
        # step n writes row n + 1 of the states and row n of the ratios, -1
        # and nan for replicas already decided; later rows are never read
        exact = np.empty((horizon + 1, size), np.int64)
        logs = np.empty((horizon + 1, size))
        ratio = np.empty((horizon, size))
        exact[0], logs[0] = xi, xl

    live = np.arange(size)
    if not start < threshold:
        termination[:] = EXPLODED
        steps[:] = 0
        live = live[:0]
    for n in range(horizon):
        if not live.size:
            break
        ni, nl = _chunk_step(law, theta, xi, xl, streams)
        if monotone:
            fell = np.where((ni >= 0) & (xi >= 0), ni < xi, nl < xl)
            assert not fell.any(), "paths must be nondecreasing without thinning or deaths"
        died = ni == 0
        if record:
            with np.errstate(over="ignore"):
                y = np.where(xi >= 0, nl / xi, law.log_m + shift / np.exp(xl))
            y[died] = np.nan
            for row, values, fill in (
                (exact[n + 1], ni, -1),
                (logs[n + 1], nl, np.nan),
                (ratio[n], y, np.nan),
            ):
                row.fill(fill)
                row[live] = values
        exploded = ~died & ~states_below(ni, nl, threshold)
        done = died | exploded
        if np.count_nonzero(done):
            termination[live[died]] = DIED
            termination[live[exploded]] = EXPLODED
            steps[live[done]] = n + 1
            keep = ~done
            live, ni, nl = live[keep], ni[keep], nl[keep]
            streams = streams[keep]
        xi, xl = ni, nl

    bounds = np.cumsum([0, *sizes]).tolist()
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = ()
        if record:
            # a chunk's rows end with the step of its last verdict
            last = int(steps[lo:hi].max())
            rows = exact[: last + 1, lo:hi], logs[: last + 1, lo:hi], ratio[:last, lo:hi]
        out.append(ChunkPaths(termination[lo:hi], steps[lo:hi], *rows))
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    where the OS reports one, else ``os.cpu_count()``, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_batch(summarise, x0, params, horizon, threshold, master_seed, purpose, record, batch):
    """``summarise(index, paths)`` for each (index, size) chunk of one
    lockstep batch."""
    gens = [stream_for(master_seed, index, purpose) for index, _ in batch]
    sizes = [size for _, size in batch]
    paths = simulate_chunks(x0, params, horizon, threshold, gens, sizes, record=record)
    return [summarise(index, chunk) for (index, _), chunk in zip(batch, paths)]


def map_chunks(
    summarise: Callable[[int, ChunkPaths], object],
    x0: int,
    params: IGWParams,
    horizon: int,
    threshold: Union[float, ExtendedCount],
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
    result is identical at any worker count.  Consecutive chunks run as
    lockstep batches (:func:`simulate_chunks`), each chunk still drawing
    its own generations, Gaussian remainders and thinning in its own order;
    a batch holds at most ``_LOCKSTEP_CELLS`` replicas times recorded rows.
    ``workers`` > 1 spreads the batches over that many processes, never more
    than there are chunks or usable CPUs (:func:`usable_cpus`).
    ``summarise`` runs in the worker and must be a module-level function, or
    a partial of one, so that it pickles.
    """
    if replicas < 1:
        raise ValueError("need at least one replica")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    starts = range(0, replicas, RNG_CHUNK)
    chunks = [(index, min(RNG_CHUNK, replicas - start)) for index, start in enumerate(starts)]
    processes = min(workers, len(chunks), usable_cpus())
    rows = horizon + 1 if record else 1
    per_batch = max(1, min(_LOCKSTEP_CELLS // (RNG_CHUNK * rows), -(-len(chunks) // processes)))
    batches = [chunks[i:i + per_batch] for i in range(0, len(chunks), per_batch)]
    job = partial(_run_batch, summarise, x0, params, horizon, threshold, master_seed, purpose, record)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly to import

        # the platform's default start method: a batch takes milliseconds,
        # and spawned workers would each start an interpreter and re-import
        # numpy and igw
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return [out for part in pool.map(job, batches) for out in part]
    return [out for batch in batches for out in job(batch)]


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
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    from statistics import NormalDist  # loaded on call: it imports decimal and random

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

    Horizon-undecided trajectories are reported separately.  With p_0 > 0
    any state dies next step with probability p_0 or more, so the chain dies
    almost surely: a threshold stop is undecided, and none is exploded.
    Replica r runs in chunk r // RNG_CHUNK, which draws from the stream
    derived from (master_seed, "mc-death:x", chunk), so the result is
    identical at any worker count.  A confidence outside (0, 1) is
    rejected before any replica runs.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    parts = map_chunks(
        _verdict_counts, x, params, horizon, threshold, master_seed, f"mc-death:{x}",
        replicas, workers=workers,
    )
    died, exploded, undecided = (int(c) for c in np.sum(parts, axis=0))
    if params.law.p0 > 0.0:
        exploded, undecided = 0, undecided + exploded
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
    if law.m <= 1.0:
        raise RegimeError("ratio experiments need a supercritical mean (m > 1)")
    return law.log_m


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
        ys = np.sort(np.concatenate([p[n] for p in parts if n < len(p)]))
        if not ys.size:
            continue
        errs = ys / log_m - 1.0  # sorted too: log_m > 0
        q10, q50, q90 = (_sorted_quantile(errs, q) for q in (0.1, 0.5, 0.9))
        rows.append(RatioTableRow(n, len(ys), _sorted_median(ys), q10, q50, q90))
    return rows


def _sorted_quantile(row: np.ndarray, q: float) -> float:
    """``np.quantile(row, q)`` of a sorted ``row`` (its default, linear
    method) bit for bit, without the import of ``numpy.ma`` that its
    first call makes: the same virtual index (n - 1) q, neighbours and
    weight, and the same interpolation, taken from the right end for a
    weight of at least 1/2."""
    last = len(row) - 1
    v = last * q
    i = math.floor(v) if v < last else -1  # at or past the end: the last value, twice
    a, b = float(row[i]), float(row[i + 1 if i >= 0 else -1])
    t, diff = v - i, b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _sorted_median(row: np.ndarray) -> float:
    """``np.median(row)`` of a sorted ``row`` bit for bit: the middle value,
    or the mean of the two middle ones as ``np.mean`` takes it."""
    h = len(row) // 2
    return float(row[h]) if len(row) % 2 else (float(row[h - 1]) + float(row[h])) / 2


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
