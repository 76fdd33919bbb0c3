"""Branching-layer simulation: generation counts, total progeny, binomial
thinning, harmonic moments, and counter-based random streams.

Population counts travel on a three-tier ladder:

* exact integers while the count stays at or below ``DEFAULT_EXACT_CAP``
  (2**48); one generation advances by summing one offspring draw per
  individual, aggregated per generation,
* floating point with Gaussian branching noise,
  ``Z' = m*Z + sqrt(v*Z) * N(0,1)``, once the count leaves the exact range,
  preserving the fluctuation scale of the almost-sure growth limit,
* deterministic growth ``log Z' = log Z + log m``, folded over all remaining
  generations at once, as soon as the standard deviation of all remaining
  branching noise relative to Z, sqrt(v / (m (m-1) Z)), is below 2**-60
  (and at the latest above 1e300).  Beyond that level no draw could move
  log Z by as much as one ulp.

Promotion between tiers never overflows; it is how growth is handled.
The per-law constants these tiers read (m, v, log m, the handover level)
are computed once per law by :func:`law_context`.  All randomness flows
through :class:`RngStream`, a counter-based (Philox) stream keyed by
(master_seed, stream_id) so that a path depends only on its key, never on
scheduling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Optional

import numpy as np

from .reproduction_laws import OffspringLaw, RegimeError, mean, variance

#: counts at or below this stay exact integers.
DEFAULT_EXACT_CAP = 2**48

LOG_EXACT_CAP = math.log(DEFAULT_EXACT_CAP)

#: upper clamp on the level at which the Gaussian tier hands over to
#: deterministic log-domain growth (counts above 1e300).
LOG_FLOAT_CAP = math.log(1e300)

#: the Gaussian tier hands over once the relative standard deviation of all
#: remaining branching noise is below this.  Counts there exceed the exact
#: cap, so log Z > 33 and its ulp is >= 2**-47: a 10-sd draw moves log Z by
#: under 1/800 of an ulp.
HANDOVER_REL_SD = 2.0**-60

#: log values are saturated here so they stay finite floats; any state this
#: large exceeds every usable explosion threshold.
LOG_VALUE_LIMIT = 1e308

#: binomial thinning is sampled exactly up to this count, by a rounded
#: normal approximation above it.
THIN_EXACT_LIMIT = 10**6

#: per-individual inverse-CDF sampling is used up to this generation size;
#: larger generations draw the per-value counts jointly (same distribution,
#: constant cost in the generation size).
INDIVIDUAL_DRAW_LIMIT = 1024

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

    def to_float(self) -> float:
        """Float value; may be ``inf`` when the log exceeds float range."""
        if self.exact_value is not None:
            return float(self.exact_value)
        try:
            return math.exp(self.log_value)  # type: ignore[arg-type]
        except OverflowError:
            return math.inf

    def is_zero(self) -> bool:
        return self.exact_value == 0

    def __lt__(self, other: "ExtendedCount") -> bool:
        if self.exact_value is not None and other.exact_value is not None:
            return self.exact_value < other.exact_value
        return self.log() < other.log()

    def __repr__(self) -> str:
        if self.exact_value is not None:
            return f"ExtendedCount({self.exact_value})"
        return f"ExtendedCount(log={self.log_value!r})"


ZERO_COUNT = ExtendedCount.exact(0)


# -- per-law constants ----------------------------------------------------------


@dataclass(frozen=True)
class LawContext:
    """The constants of one offspring law that every simulated step reads.

    ``log_fold`` is log(m/(m-1)), the offset in the deterministic step
    log S_x = x*log(m) + log(m/(m-1)) (nan unless m > 1).  ``handover_log``
    is the log count above which the Gaussian tier folds the remaining
    generations deterministically: -inf for a zero-variance supercritical
    law, +inf unless m > 1.
    """

    law: OffspringLaw
    m: float
    v: float
    log_m: float
    log_fold: float
    handover_log: float


@lru_cache(maxsize=64)
def law_context(law: OffspringLaw) -> LawContext:
    """The law's constants, computed once per law (bounded cache)."""
    m = mean(law)
    v = variance(law)
    log_m = math.log(m) if m > 0.0 else -math.inf
    if m > 1.0:
        log_fold = math.log(m / (m - 1.0))
        # relative sd of the remaining noise: sqrt(v / (m (m-1) Z))
        level = (
            math.log(v / (m * (m - 1.0))) - 2.0 * math.log(HANDOVER_REL_SD)
            if v > 0.0
            else -math.inf
        )
        handover_log = min(level, LOG_FLOAT_CAP)
    else:
        log_fold = math.nan
        handover_log = math.inf
    return LawContext(law, m, v, log_m, log_fold, handover_log)


# -- random streams -----------------------------------------------------------


@dataclass
class RngStream:
    """Counter-based random stream keyed by (master_seed, stream_id).

    Distinct stream_ids under one master seed give statistically
    independent, reproducible sequences; nothing about the sequence depends
    on scheduling or worker layout.
    """

    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        key = (self.master_seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator, for drawing whole arrays at once."""
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def normal(self) -> float:
        return float(self._gen.standard_normal())

    def normals(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def binomial(self, n: int, p: float) -> int:
        return int(self._gen.binomial(n, p))

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        return self._gen.multinomial(n, pvals)


def stream_for(master_seed: int, index: int, purpose: str) -> RngStream:
    """Derive the stream for one unit of one experiment: a chunk of replicas
    for the batched engine, a single path for the scalar reference.

    The stream id is a stable hash of (purpose, index), so a unit's draws
    are identical however units are spread over workers.
    """
    digest = hashlib.blake2s(
        f"{purpose}|{index}".encode("utf-8"), digest_size=8
    ).digest()
    return RngStream(master_seed, int.from_bytes(digest, "big"))


# -- generation advance --------------------------------------------------------


def _next_generation_exact(law: OffspringLaw, z: int, rng: RngStream) -> int:
    """One generation from z individuals, exact in distribution."""
    pm = law.point_mass
    if pm is not None:
        return z * pm
    two = law.two_atoms
    if two is not None:
        a, b, pb = two
        nb = rng.binomial(z, pb)
        return a * z + (b - a) * nb
    if z <= INDIVIDUAL_DRAW_LIMIT:
        counts = np.searchsorted(law.cum_probs, rng.uniforms(z), side="right")
        return int(counts.sum())
    draws = rng.multinomial(z, law.probs_array)
    return int(np.dot(draws, law.ks_array))


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _log_of_int(n: int) -> float:
    return math.log(n) if n > 0 else -math.inf


def simulate_total_progeny(
    law: OffspringLaw,
    x: int,
    rng: RngStream,
    *,
    record_generations: bool = True,
) -> tuple[list[ExtendedCount], ExtendedCount]:
    """Run the branching process for x generations from a single ancestor.

    Returns the per-generation populations Z_1..Z_x (empty when
    ``record_generations`` is off) and the accumulated total
    S_x = Z_1 + ... + Z_x.  x = 0 gives no generations and S_0 = 0.  The
    same draws are consumed whether or not generations are recorded.
    """
    if x < 0:
        raise ValueError("generation count must be nonnegative")
    ctx = law_context(law)
    m, v, log_m = ctx.m, ctx.v, ctx.log_m

    gens: list[ExtendedCount] = []
    z_int: Optional[int] = 1
    z_log = 0.0
    s_int: Optional[int] = 0
    s_log = -math.inf

    k = 0
    while k < x:
        if z_int is not None:
            if z_int == 0:
                # extinct: every later generation is zero and S stops growing
                if record_generations:
                    gens.extend([ZERO_COUNT] * (x - k))
                k = x
                break
            z_int = _next_generation_exact(law, z_int, rng)
            if z_int > DEFAULT_EXACT_CAP:
                z_log = _log_of_int(z_int)
                z_int = None
        else:
            if z_log > ctx.handover_log:
                # deterministic tier: fold every remaining generation at once
                # (the remaining noise cannot move a float)
                g = x - k
                geom = g * log_m + math.log1p(-math.exp(-g * log_m)) - math.log(m - 1.0)
                block_log = z_log + log_m + geom  # log sum_{j=1..g} Z * m^j
                s_cur = s_log if s_int is None else _log_of_int(s_int)
                s_log = _logaddexp(s_cur, block_log)
                s_int = None
                if record_generations:
                    for j in range(1, g + 1):
                        gens.append(ExtendedCount.from_log(min(z_log + j * log_m, LOG_VALUE_LIMIT)))
                z_log = min(z_log + g * log_m, LOG_VALUE_LIMIT)
                k = x
                break
            zf = math.exp(z_log)
            if v > 0.0:
                zf = m * zf + math.sqrt(v * zf) * rng.normal()
                if zf < 1.0:
                    zf = 1.0  # unreachable at this scale; guards the log
            else:
                zf = m * zf
            z_log = math.log(zf)

        if z_int is not None:
            if s_int is not None:
                s_int += z_int
                if s_int > DEFAULT_EXACT_CAP:
                    s_log = _log_of_int(s_int)
                    s_int = None
            else:
                s_log = _logaddexp(s_log, _log_of_int(z_int))
            if record_generations:
                gens.append(ExtendedCount.exact(z_int))
        else:
            if s_int is not None:
                s_log = _logaddexp(_log_of_int(s_int), z_log)
                s_int = None
            else:
                s_log = _logaddexp(s_log, z_log)
            if record_generations:
                gens.append(ExtendedCount.from_log(z_log))
        k += 1

    if s_int is not None:
        total = ExtendedCount.exact(s_int)
    else:
        total = ExtendedCount.from_log(min(s_log, LOG_VALUE_LIMIT))
    return gens, total


def thin(count: ExtendedCount, theta: float, rng: RngStream) -> ExtendedCount:
    """Binomial thinning: each of ``count`` individuals survives w.p. theta.

    Exact binomial sampling up to 10^6 individuals, a rounded-and-clamped
    normal approximation for larger exact counts, and a deterministic log
    shift by log(theta) in the log tier.  theta = 1 returns the count
    unchanged in every mode.
    """
    theta = float(theta)
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"thinning parameter {theta!r} outside (0, 1]")
    if theta == 1.0:
        return count
    if count.is_exact:
        n = count.exact_value
        if n == 0:
            return count
        if n <= THIN_EXACT_LIMIT:
            return ExtendedCount.exact(rng.binomial(n, theta))
        mu = n * theta
        sd = math.sqrt(n * theta * (1.0 - theta))
        drawn = int(round(mu + sd * rng.normal()))
        return ExtendedCount.exact(min(max(drawn, 0), n))
    return ExtendedCount.from_log(count.log() + math.log(theta))


# -- harmonic moments ----------------------------------------------------------

#: unit roundoff of a float64 operation rounded to nearest, and the
#: smallest normal float.
_U = 2.0**-53
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=1)
def _trapezoid_grid() -> tuple[np.ndarray, np.ndarray]:
    """The fixed grid of :func:`harmonic_moment` and its cell widths.

    The dyadic points k / 2**16 on [0, 1] together with 1 - 2**(-j/64) for
    j = 64..3392: 64 points per octave of 1 - s, from 1/2 down to 2**-53,
    the spacing of the floats just below 1, where g rises steeply; 68,523
    distinct floats in all.  Below 1/2 every point is a multiple of
    2**-16, and from 1/2 on neighbours lie within a factor two of each
    other, so every width and every 1 - s is exact.  Built on first use,
    not at import.
    """
    dyadic = np.arange(2**16 + 1) / 2.0**16
    geometric = 1.0 - np.exp2(-np.arange(64, 3393) / 64.0)
    s = np.unique(np.concatenate((dyadic, geometric)))
    return s, np.diff(s)


def _iterate_upper(law: OffspringLaw, x: int, s: np.ndarray) -> np.ndarray:
    """Upper bounds on f_x(s), the x-fold iterate of the generating function
    of a law on {1..K}, at points s in [0, 1] whose 1 - s is exact.

    Each point is bounded twice and the smaller bound kept:

    * in s, by Horner iterates rounded upward: f is increasing, and each
      step (at most 2K + 1 roundings) is inflated by 1 + 4K * 2**-53,
      raised by the smallest normal float to cover underflow and clamped
      at 1,
    * in u = 1 - s, by a lower bound on u_x = 1 - f_x(s), iterated
      downward through u -> 1 - f(1 - u) = u * sum_{i<K} T_{i+1} (1 - u)^i
      with the tail sums T_j = sum_{k>=j} p_k; every term is nonnegative,
      and each step (at most 4K - 2 roundings) is deflated by
      1 - 4K^2 * 2**-53.  This is the accurate one near s = 1, where
      f_x(s) is 1 up to a tiny u_x; 1 - u_x is rounded upward.
    """
    probs = law.probs
    k_max = len(probs) - 1

    up = 1.0 + 4 * k_max * _U
    t = s.copy()
    acc = np.empty_like(s)
    for _ in range(x):
        acc.fill(probs[-1])
        for p in reversed(probs[:-1]):
            acc *= t
            if p:
                acc += p
        acc *= up
        acc += _TINY
        np.minimum(acc, 1.0, out=t)

    tails = np.cumsum(probs[::-1])[::-1][1:]  # T_1..T_K
    down = 1.0 - 4 * k_max * k_max * _U
    u = 1.0 - s
    v = np.empty_like(s)
    for _ in range(x):
        np.subtract(1.0, u, out=v)
        acc.fill(tails[-1])
        for tail in tails[-2::-1]:
            acc *= v
            acc += tail
        acc *= u
        acc *= down
        np.minimum(acc, 1.0, out=u)

    return np.minimum(t, np.nextafter(1.0 - u, 2.0))


def harmonic_moment(law: OffspringLaw, x: int) -> float:
    """A certified upper bound on E(1/Z_x) for a law that cannot die out
    (p_0 = 0, so Z_x >= 1).

    E(1/Z_x) = integral_0^1 g(s) ds with g(s) = f_x(s)/s, f_x the x-fold
    iterate of the generating function.  With p_0 = 0,
    g(s) = sum_n P(Z_x = n) s^(n-1) has nonnegative coefficients, so g is
    nondecreasing and convex and every chord lies above it: the trapezoid
    rule on any grid is an upper bound, and no error estimate is needed.
    On the fixed grid of ``_trapezoid_grid`` (cells at most 2**-16 wide)
    it exceeds the integral by at most 2**-35 * (E(Z_x) - 1).

    Rounding cannot break the bound: f_x(s) is bounded above by
    ``_iterate_upper``, g(0) = p_1^x is inflated for rounding, and the
    final sum of nonnegative terms (at most N + 2 roundings on N grid
    points) by 1 + (N + 4) * 2**-53.
    """
    if law.p0 > 0.0:
        raise RegimeError("harmonic moments via the pgf identity need p_0 = 0")
    if x < 1:
        raise ValueError("generation index must be >= 1")
    s, width = _trapezoid_grid()
    g = np.empty_like(s)
    g[0] = law.p1**x * (1.0 + 4 * x * _U) + _TINY
    np.divide(_iterate_upper(law, x, s)[1:], s[1:], out=g[1:])
    total = 0.5 * float(np.sum(width * (g[:-1] + g[1:])))
    return total * (1.0 + (len(s) + 4) * _U)
