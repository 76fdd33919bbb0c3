"""Branching-layer building blocks: the count ladder, per-law constants,
counter-based random streams, and harmonic moments.

Population counts travel on a count ladder, which the batched simulator
in :mod:`igw.igw_process` advances:

* exact integers while the count stays at or below ``DEFAULT_EXACT_CAP``
  (2**48); one generation advances by one binomial or multinomial draw
  of the offspring counts of all its individuals,
* one Gaussian draw for the rest of the sum once a generation Z = z
  leaves the exact range with L generations to go: z i.i.d. L-generation
  totals, with the mean and variance that Gaussian branching noise
  ``Z' = m*Z + sqrt(v*Z) * N(0,1)`` gives them, which preserves the
  fluctuation scale of the almost-sure growth limit,
* logs beyond the exact range, where a state steps deterministically:
  ``log S_x = x*log m + log(m/(m-1))``.

Promotion between tiers never overflows; it is how growth is handled.
The per-law constants these tiers read (m, v, log m, log(m/(m-1))) are
computed once per law by :func:`law_context`.  All randomness flows
through :func:`stream_for`, a counter-based (Philox) stream keyed by
(master_seed, stream id) so that a path depends only on its key, never on
scheduling.

Harmonic moments come from one pass, :func:`harmonic_moments`: it advances
outward-rounded iterates of the generating function one generation per
value and yields certified upper bounds on E(1/Z_y) for y = 1, 2, ....
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .reproduction_laws import OffspringLaw, RegimeError, mean, variance

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


# -- per-law constants ----------------------------------------------------------


@dataclass(frozen=True)
class LawContext:
    """The constants of one offspring law that every simulated step reads.

    ``log_fold`` is log(m/(m-1)), the offset in the deterministic step
    log S_x = x*log(m) + log(m/(m-1)) (nan unless m > 1).
    """

    law: OffspringLaw
    m: float
    v: float
    log_m: float
    log_fold: float


@lru_cache(maxsize=64)
def law_context(law: OffspringLaw) -> LawContext:
    """The law's constants, computed once per law (bounded cache)."""
    m = mean(law)
    v = variance(law)
    log_m = math.log(m) if m > 0.0 else -math.inf
    log_fold = math.log(m / (m - 1.0)) if m > 1.0 else math.nan
    return LawContext(law, m, v, log_m, log_fold)


# -- random streams -----------------------------------------------------------


def stream_for(master_seed: int, index: int, purpose: str) -> np.random.Generator:
    """The random stream of chunk ``index`` of one experiment.

    A counter-based (Philox) generator keyed by (master_seed, stream id),
    with the stream id a stable hash of (purpose, index): distinct chunks
    draw statistically independent, reproducible sequences, identical
    however chunks are spread over workers.
    """
    digest = hashlib.blake2s(
        f"{purpose}|{index}".encode("utf-8"), digest_size=8
    ).digest()
    key = (master_seed & _MASK64) | (int.from_bytes(digest, "big") << 64)
    return np.random.Generator(np.random.Philox(key=key))


# -- harmonic moments ----------------------------------------------------------

#: unit roundoff of a float64 operation rounded to nearest, and the
#: smallest normal float.
_U = 2.0**-53
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=1)
def _trapezoid_grid() -> tuple[np.ndarray, np.ndarray]:
    """The fixed grid of :func:`harmonic_moments` and its cell widths.

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


def _iterates(law: OffspringLaw, s: np.ndarray) -> Iterator[np.ndarray]:
    """Upper bounds on f_y(s) for y = 1, 2, ..., the iterates of the
    generating function of a law on {1..K}, at points s in [0, 1] whose
    1 - s is exact; each value advances them by one generation.

    Each point is bounded twice and the smaller bound kept:

    * in s, by Horner iterates rounded upward: f is increasing, and each
      step (at most 2K + 1 roundings) is inflated by 1 + 4K * 2**-53,
      raised by the smallest normal float to cover underflow and clamped
      at 1,
    * in u = 1 - s, by a lower bound on u_y = 1 - f_y(s), iterated
      downward through u -> 1 - f(1 - u) = u * sum_{i<K} T_{i+1} (1 - u)^i
      with the tail sums T_j = sum_{k>=j} p_k; every term is nonnegative,
      and each step (at most 4K - 2 roundings) is deflated by
      1 - 4K^2 * 2**-53.  This is the accurate one near s = 1, where
      f_y(s) is 1 up to a tiny u_y.  (1 - u) + 2**-53 bounds 1 - u from
      above: the subtraction errs by at most 2**-54, and the addition
      then rounds to a value no smaller than 1 - u.
    """
    probs = law.probs
    k_max = len(probs) - 1
    tails = np.cumsum(probs[::-1])[::-1][1:]  # T_1..T_K
    up = 1.0 + 4 * k_max * _U
    down = 1.0 - 4 * k_max * k_max * _U
    t = s.copy()
    u = 1.0 - s
    v = s.copy()  # 1 - u, exact on the grid
    acc = np.empty_like(s)
    while True:
        acc.fill(probs[-1])
        for p in reversed(probs[:-1]):
            acc *= t
            if p:
                acc += p
        acc *= up
        acc += _TINY
        np.minimum(acc, 1.0, out=t)

        acc.fill(tails[-1])
        for tail in tails[-2::-1]:
            acc *= v
            acc += tail
        acc *= u
        acc *= down
        np.minimum(acc, 1.0, out=u)
        np.subtract(1.0, u, out=v)

        bound = v + _U
        np.minimum(t, bound, out=bound)
        yield bound


def harmonic_moments(law: OffspringLaw) -> Iterator[float]:
    """Certified upper bounds h(y) on E(1/Z_y) for y = 1, 2, ..., for a law
    that cannot die out (p_0 = 0, so Z_y >= 1), in one pass over the
    iterates of :func:`_iterates`.

    E(1/Z_y) = integral_0^1 g(s) ds with g(s) = f_y(s)/s, f_y the y-fold
    iterate of the generating function.  With p_0 = 0,
    g(s) = sum_n P(Z_y = n) s^(n-1) has nonnegative coefficients, so g is
    nondecreasing and convex and every chord lies above it: the trapezoid
    rule on any grid is an upper bound, and no error estimate is needed.
    On the fixed grid of ``_trapezoid_grid`` (cells at most 2**-16 wide)
    it exceeds the integral by at most 2**-35 * (E(Z_y) - 1).

    Rounding cannot break the bound: f_y(s) is bounded above by
    ``_iterates``, g(0) = p_1^y is inflated for rounding, and the final
    sum of nonnegative terms (at most N + 2 roundings on N grid points) by
    1 + (N + 4) * 2**-53.  The p_0 check runs when the first value is
    drawn.
    """
    if law.p0 > 0.0:
        raise RegimeError("harmonic moments via the pgf identity need p_0 = 0")
    s, width = _trapezoid_grid()
    inflate = 1.0 + (len(s) + 4) * _U
    g = np.empty_like(s)
    for y, f in enumerate(_iterates(law, s), start=1):
        g[0] = law.p1**y * (1.0 + 4 * y * _U) + _TINY
        np.divide(f[1:], s[1:], out=g[1:])
        yield 0.5 * float(np.sum(width * (g[:-1] + g[1:]))) * inflate


def harmonic_moment(law: OffspringLaw, x: int) -> float:
    """h(x), the x-th value of :func:`harmonic_moments`: a certified upper
    bound on E(1/Z_x) for a law with p_0 = 0."""
    if x < 1:
        raise ValueError("generation index must be >= 1")
    return next(islice(harmonic_moments(law), x - 1, None))
