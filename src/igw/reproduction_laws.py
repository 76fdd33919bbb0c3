"""Offspring laws and their generating-function machinery.

An offspring law is a finite pmf (p_0, ..., p_K) on {0..K}.  The binary
family ``binary(lam)`` puts mass ``1-lam`` on one child and ``lam`` on two,
the classic two-outcome replication model; it expands to an explicit pmf
and behaves identically to one in every operation.

Besides the law itself this module provides the probability generating
function f(s) = sum_k p_k s^k, the thinned generating function
g(s) = f(1 - theta + theta*s) of a count whose individuals each survive
independently with probability theta, its smallest fixed point q*, which
the death intervals read, and the law spec strings of the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

#: pmf entries must sum to 1 within this tolerance; anything farther is
#: rejected rather than renormalized so that downstream certificates stay
#: rigorous.
PMF_TOL = 1e-12

#: largest offspring count accepted by default.
DEFAULT_MAX_K = 64

#: mean values within this band of 1 are classified as critical (m = 1).
MEAN_CRITICAL_TOL = 1e-12


class LawSpecError(ValueError):
    """Malformed law specification or invalid pmf input."""


class RegimeError(ValueError):
    """An operation was asked to run outside its parameter regime."""


@dataclass(frozen=True)
class OffspringLaw:
    """Finite offspring distribution, stored as a dense pmf from k = 0.

    ``probs[k]`` is the probability of k children.  Trailing zeros are
    trimmed so equal laws compare equal regardless of construction route.
    ``binary_lambda`` remembers the binary-family parameter purely for
    round-tripping law spec strings; it does not affect equality.

    Views the engines read are computed on first use and cached on the
    law (a cached law still pickles): the moments ``m`` and ``v``, the
    log-tier constants ``log_m`` and ``log_fold``, the support shapes
    ``point_mass`` and ``two_atoms``, the ``tails``, and ``probs_array``
    and ``ks_array``.
    """

    probs: tuple[float, ...]
    binary_lambda: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        if not probs:
            raise LawSpecError("offspring pmf must have at least one entry")
        for k, p in enumerate(probs):
            if not math.isfinite(p) or p < 0.0:
                raise LawSpecError(f"offspring probability p_{k}={p!r} is not a probability")
        total = math.fsum(probs)
        if abs(total - 1.0) > PMF_TOL:
            raise LawSpecError(
                f"offspring pmf sums to {total!r}, more than {PMF_TOL} away from 1"
            )
        while len(probs) > 1 and probs[-1] == 0.0:
            probs = probs[:-1]
        object.__setattr__(self, "probs", probs)

    # -- construction ------------------------------------------------------

    @classmethod
    def explicit(
        cls,
        probs: Union[Mapping[int, float], Sequence[float]],
        max_k: int = DEFAULT_MAX_K,
    ) -> "OffspringLaw":
        """Build a law from a pmf given as {k: p_k} or as a dense sequence."""
        if isinstance(probs, Mapping):
            if not probs:
                raise LawSpecError("empty pmf")
            for k in probs:
                if not isinstance(k, (int, np.integer)) or k < 0:
                    raise LawSpecError(f"offspring count {k!r} is not a nonnegative integer")
            top = max(probs)
            dense = [0.0] * (top + 1)
            for k, p in probs.items():
                dense[k] = float(p)
        else:
            dense = [float(p) for p in probs]
        if len(dense) - 1 > max_k:
            raise LawSpecError(f"support extends to k={len(dense) - 1}, beyond max_k={max_k}")
        return cls(tuple(dense))

    @classmethod
    def binary(cls, lam: float) -> "OffspringLaw":
        """One child with probability 1-lam, two with probability lam."""
        lam = float(lam)
        if not 0.0 <= lam <= 1.0:
            raise LawSpecError(f"binary parameter {lam!r} outside [0, 1]")
        return cls((0.0, 1.0 - lam, lam), binary_lambda=lam)

    # -- cheap structural views -------------------------------------------

    @property
    def max_k(self) -> int:
        return len(self.probs) - 1

    @property
    def p0(self) -> float:
        return self.probs[0]

    @property
    def p1(self) -> float:
        return self.probs[1] if len(self.probs) > 1 else 0.0

    @cached_property
    def m(self) -> float:
        """The mean sum_k k * p_k."""
        return math.fsum(k * p for k, p in enumerate(self.probs))

    @cached_property
    def v(self) -> float:
        """The variance, clamped at 0."""
        second = math.fsum(k * k * p for k, p in enumerate(self.probs))
        return max(second - self.m * self.m, 0.0)

    @cached_property
    def log_m(self) -> float:
        """log m, -inf at m = 0."""
        return math.log(self.m) if self.m > 0.0 else -math.inf

    @cached_property
    def log_fold(self) -> float:
        """log(m/(m-1)): log E(S_x) - x*log(m), up to a relative m^-x in
        E(S_x), the offset of the log-tier step of
        :func:`igw.igw_process._chunk_step`.  nan unless m > 1."""
        return math.log(self.m / (self.m - 1.0)) if self.m > 1.0 else math.nan

    @cached_property
    def tails(self) -> tuple[float, ...]:
        """T_k = p_k + p_(k+1) + ... for k = 0..K, each correctly rounded."""
        return tuple(math.fsum(self.probs[k:]) for k in range(len(self.probs)))

    @cached_property
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    @cached_property
    def ks_array(self) -> np.ndarray:
        return np.arange(len(self.probs), dtype=np.int64)

    @cached_property
    def point_mass(self) -> Optional[int]:
        """The single supported value, if the law is deterministic."""
        nz = [k for k, p in enumerate(self.probs) if p > 0.0]
        return nz[0] if len(nz) == 1 else None

    @cached_property
    def two_atoms(self) -> Optional[tuple[int, int, float]]:
        """(a, b, p_b) when the support has exactly two points a < b."""
        nz = [k for k, p in enumerate(self.probs) if p > 0.0]
        if len(nz) != 2:
            return None
        a, b = nz
        return a, b, self.probs[b]

    def __repr__(self) -> str:  # compact, survives huge supports
        if self.binary_lambda is not None:
            return f"OffspringLaw.binary({self.binary_lambda!r})"
        entries = ", ".join(f"{k}: {p!r}" for k, p in enumerate(self.probs) if p != 0.0)
        return f"OffspringLaw({{{entries}}})"


@dataclass(frozen=True)
class IGWParams:
    """An offspring law paired with the thinning survival probability."""

    law: OffspringLaw
    theta: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not 0.0 < theta <= 1.0:
            raise LawSpecError(f"thinning parameter {theta!r} outside (0, 1]")
        object.__setattr__(self, "theta", theta)


# -- moments and generating functions ---------------------------------------


def _check_unit_interval(s: float) -> float:
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"generating functions are only evaluated on [0, 1], got {s!r}")
    return s


def pgf_eval(law: OffspringLaw, s: float) -> float:
    """f(s) = sum_k p_k s^k, evaluated by Horner's rule."""
    s = _check_unit_interval(s)
    acc = 0.0
    for p in reversed(law.probs):
        acc = acc * s + p
    return acc


def thinned_pgf(params: IGWParams, s: float) -> float:
    """g(s) = f(1 - theta + theta*s), the generating function of a
    theta-thinned count whose pre-thinning total is one generation's worth
    of progeny from a single ancestor."""
    s = _check_unit_interval(s)
    return pgf_eval(params.law, 1.0 - params.theta + params.theta * s)


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
    if not tol > 0.0:  # NaN too
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if params.law.m * params.theta <= 1.0:
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


# -- law spec strings --------------------------------------------------------

_SPEC_HELP = "expected 'binary:LAMBDA' or 'pmf:k1=p1,k2=p2,...'"


def parse_law_spec(text: str) -> OffspringLaw:
    """Parse the textual law format used by the CLI and config files."""
    text = text.strip()
    if ":" not in text:
        raise LawSpecError(f"law spec {text!r} has no ':' separator; {_SPEC_HELP}")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if kind == "binary":
        try:
            lam = float(body)
        except ValueError:
            raise LawSpecError(f"binary parameter {body!r} is not a number") from None
        return OffspringLaw.binary(lam)
    if kind == "pmf":
        entries: dict[int, float] = {}
        for token in body.split(","):
            token = token.strip()
            if not token:
                raise LawSpecError(f"empty pmf entry in {text!r}")
            if "=" not in token:
                raise LawSpecError(f"pmf entry {token!r} is not of the form k=p")
            k_text, _, p_text = token.partition("=")
            try:
                k = int(k_text)
            except ValueError:
                raise LawSpecError(
                    f"offspring count {k_text!r} in entry {token!r} is not an integer"
                ) from None
            try:
                p = float(p_text)
            except ValueError:
                raise LawSpecError(
                    f"probability {p_text!r} in entry {token!r} is not a number"
                ) from None
            if k in entries:
                raise LawSpecError(f"offspring count {k} appears twice")
            entries[k] = p
        return OffspringLaw.explicit(entries)
    raise LawSpecError(f"unknown law kind {kind!r}; {_SPEC_HELP}")


def format_law_spec(law: OffspringLaw) -> str:
    """Inverse of :func:`parse_law_spec`; round-trips to an identical law."""
    if law.binary_lambda is not None:
        return f"binary:{law.binary_lambda!r}"
    body = ",".join(f"{k}={p!r}" for k, p in enumerate(law.probs) if p != 0.0)
    return f"pmf:{body}"
