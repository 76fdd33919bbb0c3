"""Exact truncated distributions and certified probability intervals.

The law of the total progeny S_x = Z_1 + ... + Z_x of the auxiliary
branching process comes from its generating function.  With G_x the pgf of
S_x and f the offspring pgf, splitting on the first generation gives the
total-progeny functional equation (Harris 1963)

    G_0 = 1,    G_x(u) = f(u * G_{x-1}(u)),

so each G_x is composed from G_{x-1} by power series arithmetic.  The
coefficient of u^s on the right depends only on coefficients 0..s of
G_{x-1}, so truncating every series at ``s_cap`` is exact: atoms 0..s_cap
are the true probabilities up to float rounding, and the missing mass
1 - sum(atoms) lies provably beyond ``s_cap``.  Every downstream
probability is closed into a rigorous two-sided interval:

* lower envelope for death probabilities: untracked mass is routed to a
  phantom state whose only exit is the uniform per-step death floor p_0
  (never, when p_0 = 0),
* upper envelope: untracked mass is treated as death-prone as its
  provenance allows (totals beyond ``s_cap`` thin like a
  Binomial(s_cap + 1, theta); chain states beyond ``x_cap`` are clamped to
  ``x_cap``), valid because the chain is stochastically monotone in its
  start state and death probabilities are nonincreasing in it.

Both envelope chains absorb at 0, so P_x(X_n = 0) = (K^n e_0)[x] for either
kernel K.  One backward sweep u <- K u from u = e_0 therefore answers every
start state x at once.  The columns are kept per horizon asked for, and a
new horizon is swept on from the longest kept one below it.  The upper end
of the total death probability adds a second column swept on the upper
kernel, the closure K^n c with c_y = q*^y for y >= 1 and c_0 = 0.  It is
kept apart from the death column, not folded into one sweep of the vector
(1, q*, q*^2, ...): the death columns of the two kernels then round alike,
so an interval whose truncation is invisible at float precision still has
lo == hi.  The thinning itself is a table of binomial probabilities built
by Pascal's rule.

One quantity needs no truncation at all: P_x(X_1 = 0) = E((1-theta)^{S_x})
follows from the scalar recursion a_{j+1} = f(t * a_j) with t = 1 - theta,
exact to floating precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .reproduction_laws import IGWParams, OffspringLaw, RegimeError, pgf_eval

#: envelope-kernel entries below this are moved to the conservative column
#: (state 0 in the death-upper kernel, the phantom in the death-lower one),
#: which keeps the kernel powers out of the slow subnormal range.  Sound by
#: monotonicity; each step moves at most (x_cap + 1) * KERNEL_FLOOR of mass,
#: so an interval at horizon n moves outward by at most
#: n * (x_cap + 1) * KERNEL_FLOOR at either end.
KERNEL_FLOOR = 1e-200


@dataclass(frozen=True)
class Caps:
    """Truncation bounds: generation size, total progeny, chain state.

    ``z_cap`` is accepted for compatibility and affects no result: the
    law of S_x is exact below ``s_cap`` without a generation-size cap.
    """

    z_cap: int = 4096
    s_cap: int = 4096
    x_cap: int = 512

    def __post_init__(self) -> None:
        if min(self.z_cap, self.s_cap, self.x_cap) < 1:
            raise ValueError("all caps must be >= 1")


@dataclass(frozen=True, eq=False)
class TruncatedDist:
    """Probability vector on {0..cap} plus explicitly tracked leftover mass.

    ``overflow`` is the mass on values beyond the cap.
    atoms.sum() + overflow = 1 up to float accumulation.
    """

    atoms: np.ndarray
    overflow: float
    warning: Optional[str] = None

    @property
    def cap(self) -> int:
        return len(self.atoms) - 1

    def total(self) -> float:
        return float(self.atoms.sum()) + self.overflow


@dataclass(frozen=True)
class IntervalProb:
    """A certified enclosure [lo, hi] of a probability."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = min(max(float(self.lo), 0.0), 1.0)
        hi = min(max(float(self.hi), 0.0), 1.0)
        if lo > hi:
            if lo - hi > 1e-9:
                raise ValueError(f"interval [{self.lo!r}, {self.hi!r}] is inverted")
            lo = hi = 0.5 * (lo + hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


# -- the law of S_x by truncated pgf composition ---------------------------------


class _Progeny(NamedTuple):
    """P(S_x = offset + i) = coef[i] for offset + i <= s_cap; coef[0] and
    coef[-1] are nonzero.  ``overflow`` is the mass beyond s_cap."""

    coef: np.ndarray
    offset: int
    overflow: float


def _compose(law: OffspringLaw, prev: _Progeny, s_cap: int) -> _Progeny:
    """Coefficients 0..s_cap of f(w) with w(u) = u * G_{x-1}(u), as the sum
    of p_k * w^k.  The powers w^k start at k * (offset + 1), so each one
    only needs the coefficients of w below s_cap + 1 - k * (offset + 1).
    The arrays are rescaled by exact powers of two, so the convolutions run
    near 1 and products of small probabilities stay out of the slow
    subnormal range."""
    out = np.zeros(s_cap + 1)
    if len(prev.coef):
        _, w_exp = math.frexp(float(prev.coef.max()))
        w = np.ldexp(prev.coef, -w_exp)
        power, p_off, p_exp = np.ones(1), 0, 0  # w^0
        for k, p in enumerate(law.probs):
            if k > 0:
                p_off += prev.offset + 1
                if p_off > s_cap:
                    break
                n = s_cap + 1 - p_off
                power = np.convolve(power[:n], w[:n])[:n]
                _, e = math.frexp(float(power.max()))
                power = np.ldexp(power, -e)
                p_exp += w_exp + e
            if p > 0.0:
                out[p_off : p_off + len(power)] += np.ldexp(p * power, p_exp)
    else:
        out[0] = law.p0  # every total is beyond s_cap, unless Z_1 = 0
    nz = np.flatnonzero(out)
    if nz.size == 0:
        return _Progeny(out[:0], s_cap + 1, 1.0)
    coef = out[nz[0] : nz[-1] + 1].copy()
    return _Progeny(coef, int(nz[0]), max(0.0, 1.0 - float(coef.sum())))


@lru_cache(maxsize=8)
def _progeny_cache(law: OffspringLaw, s_cap: int) -> list[_Progeny]:
    """The laws of S_0, S_1, ... computed so far for one (law, s_cap), for
    the eight most recently used; one holds at most x_cap + 1 arrays of at
    most s_cap + 1 floats."""
    return [_Progeny(np.ones(1), 0, 0.0)]


def _progeny_laws(law: OffspringLaw, x_max: int, s_cap: int) -> list[_Progeny]:
    """The law of S_x for every x = 0..x_max, from one cached list per
    (law, s_cap) that grows by composition on demand."""
    laws = _progeny_cache(law, s_cap)
    while len(laws) <= x_max:
        laws.append(_compose(law, laws[-1], s_cap))
    return laws[: x_max + 1]


def total_progeny_dist(
    law: OffspringLaw, x: int, z_cap: int = 4096, s_cap: int = 4096
) -> TruncatedDist:
    """Exact (truncated) law of S_x = Z_1 + ... + Z_x; ``z_cap`` is accepted
    and ignored."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    coef, offset, overflow = _progeny_laws(law, x, s_cap)[x]
    atoms = np.zeros(s_cap + 1)
    atoms[offset : offset + len(coef)] = coef
    warning = "all-mass-in-overflow" if overflow > 1.0 - 1e-9 else None
    return TruncatedDist(atoms, overflow, warning)


# -- thinning mixtures ----------------------------------------------------------


def binomial_table(theta: float, s_max: int, j_max: int) -> np.ndarray:
    """B[s, j] = P(Binomial(s, theta) = j) for s = 0..s_max, j = 0..j_max.

    Built by Pascal's rule, one row from the last:
    B[s, j] = (1 - theta) * B[s-1, j] + theta * B[s-1, j-1].  Each entry is
    a convex combination of two entries of the row before, so its relative
    error grows by at most about one rounding per row.  Entries below the
    smallest normal float are set to 0 as each row is made: the binomial
    pmf there underflows anyway, and a subnormal left in would never decay
    ((1 - theta) * 5e-324 rounds back up to 5e-324) and would slow every
    product that reads the table.
    """
    keep, move = 1.0 - theta, theta
    tiny = np.finfo(float).tiny
    B = np.zeros((s_max + 1, j_max + 1))
    B[0, 0] = 1.0
    for s in range(1, s_max + 1):
        w = min(s, j_max) + 1  # B[s - 1, w - 1] = 0 while s <= j_max
        prev, row = B[s - 1, :w], B[s, :w]
        np.multiply(prev, keep, out=row)
        row[1:] += move * prev[:-1]
        row[row < tiny] = 0.0
    return B


def _thinned(prog: _Progeny, B: np.ndarray) -> np.ndarray:
    """Atoms of the theta-thinning of the tracked part of S_x, for the
    binomial table ``B`` of ``binomial_table``."""
    return prog.coef @ B[prog.offset : prog.offset + len(prog.coef)]


def one_step_dist(x: int, params: IGWParams, caps: Caps = Caps()) -> TruncatedDist:
    """Law of X_1 from state x: the theta-thinning of S_x.

    Total-progeny mass beyond ``s_cap`` cannot be resolved into atoms here
    and is reported as overflow; the envelope constructions used for bounds
    place it rigorously instead.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    prog = _progeny_laws(params.law, x, caps.s_cap)[x]
    # Pascal rows up to the largest tracked total of S_x only: each row depends
    # only on the rows before it, so the atoms equal those of the full table
    atoms = _thinned(prog, binomial_table(params.theta, prog.offset + len(prog.coef) - 1, caps.x_cap))
    x_over = max(0.0, (1.0 - prog.overflow) - float(atoms.sum()))
    overflow = prog.overflow + x_over
    warning = "all-mass-in-overflow" if overflow > 1.0 - 1e-9 else None
    return TruncatedDist(atoms, overflow, warning)


def one_step_death_prob(x: int, params: IGWParams) -> float:
    """P_x(X_1 = 0) = E((1-theta)^{S_x}), by the scalar recursion
    a_0 = 1, a_{j+1} = f(t * a_j) at t = 1 - theta; exact to float precision
    with no truncation of any kind."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    t = 1.0 - params.theta
    a = 1.0
    for _ in range(x):
        a = pgf_eval(params.law, t * a)
    return a


def transition_kernel(
    params: IGWParams, x_cap: int, caps: Caps = Caps()
) -> tuple[np.ndarray, list[str]]:
    """One-step kernel rows for states 0..x_cap plus an overflow column.

    Row x is ``one_step_dist(x)``; row 0 is the point mass at 0.  Returns
    the (x_cap+1) x (x_cap+2) matrix and any row warnings.
    """
    B = binomial_table(params.theta, caps.s_cap, x_cap)
    K = np.zeros((x_cap + 1, x_cap + 2))
    warnings: list[str] = []
    for x, prog in enumerate(_progeny_laws(params.law, x_cap, caps.s_cap)):
        row = _thinned(prog, B)
        K[x, : x_cap + 1] = row
        K[x, x_cap + 1] = max(0.0, 1.0 - float(row.sum()))
        if prog.overflow > 1.0 - 1e-9 and x > 0:
            warnings.append(f"row {x}: all-mass-in-overflow")
    return K, warnings


# -- envelope kernels and certified intervals -----------------------------------


def _envelope_kernels(params: IGWParams, caps: Caps) -> tuple[np.ndarray, np.ndarray]:
    """(death-upper, death-lower) kernels on states 0..x_cap.

    The upper kernel treats untracked mass as death-prone as its knowledge
    allows: totals provably beyond ``s_cap`` thin like the stochastically
    smallest consistent count, Binomial(s_cap + 1, theta); chain states
    beyond ``x_cap`` clamp to ``x_cap`` (valid by stochastic monotonicity).
    The lower kernel routes all untracked mass to a phantom state (the last
    column) that dies at the uniform per-step floor p_0: from any state the
    first auxiliary generation is empty with probability p_0, so every
    state dies next step at least that often.  With p_0 = 0 the phantom
    never dies.  Entries below ``KERNEL_FLOOR`` go to state 0 in the upper
    kernel and to the phantom in the lower one.
    """
    x_cap, s_cap = caps.x_cap, caps.s_cap
    B = binomial_table(params.theta, s_cap + 1, x_cap)
    K_hi = np.zeros((x_cap + 1, x_cap + 1))
    K_lo = np.zeros((x_cap + 2, x_cap + 2))
    for x, prog in enumerate(_progeny_laws(params.law, x_cap, s_cap)):
        base = _thinned(prog, B)
        row_hi = base + prog.overflow * B[s_cap + 1]
        row_hi[x_cap] += max(0.0, 1.0 - float(row_hi.sum()))
        K_hi[x] = row_hi
        K_lo[x, : x_cap + 1] = base
        K_lo[x, x_cap + 1] = max(0.0, 1.0 - float(base.sum()))
    K_lo[x_cap + 1, 0] = params.law.p0
    K_lo[x_cap + 1, x_cap + 1] = 1.0 - params.law.p0
    _floor_into(K_hi, 0)
    _floor_into(K_lo, x_cap + 1)
    return K_hi, K_lo


def _floor_into(K: np.ndarray, col: int) -> None:
    """Move every entry below ``KERNEL_FLOOR`` into column ``col`` of its row."""
    small = K < KERNEL_FLOOR
    small[:, col] = False
    K[:, col] += np.where(small, K, 0.0).sum(axis=1)
    K[small] = 0.0


class _Envelope:
    """The envelope kernels of one (law, theta, s_cap, x_cap) and the
    columns swept backward from them, for every start state at once.

    ``death[n]`` is (K_lo^n e_0, K_hi^n e_0): entry x is the lower and the
    upper end of P_x(X_n = 0).  ``closure[n]`` is (K_hi^n c,) with
    c_y = q*^y for y >= 1 and c_0 = 0: entry x closes the mass still alive
    at horizon n by the fixed-point certificate.  Only the horizons asked
    for are kept; a new one is swept on from the longest kept horizon below
    it, so asking for n = 1, 2, ..., N costs N matvecs per column in all.
    """

    def __init__(self, params: IGWParams, caps: Caps) -> None:
        self.params = params
        self.K_hi, self.K_lo = _envelope_kernels(params, caps)
        lo, hi = np.zeros(len(self.K_lo)), np.zeros(len(self.K_hi))
        lo[0] = hi[0] = 1.0
        self.death = {0: (lo, hi)}
        self.closure: dict[int, tuple[np.ndarray]] = {}

    def death_columns(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return _sweep(self.death, (self.K_lo, self.K_hi), n)

    def closure_column(self, n: int) -> np.ndarray:
        if not self.closure:
            from .analysis import fixed_point_q  # deferred: analysis builds on this module

            c = fixed_point_q(self.params, 1e-13) ** np.arange(len(self.K_hi), dtype=float)
            c[0] = 0.0
            self.closure[0] = (c,)
        return _sweep(self.closure, (self.K_hi,), n)[0]


def _sweep(kept: dict[int, tuple], kernels: tuple[np.ndarray, ...], n: int) -> tuple:
    """The columns at step n of u <- K u, one per kernel, swept on from the
    longest horizon below n in ``kept`` (which holds step 0) and kept."""
    cols = kept.get(n)
    if cols is None:
        m = max(k for k in kept if k < n)
        cols = kept[m]
        for _ in range(n - m):
            cols = tuple(K @ u for K, u in zip(kernels, cols))
        kept[n] = cols
    return cols


@lru_cache(maxsize=8)
def _envelope(params: IGWParams, caps: Caps) -> _Envelope:
    """The envelopes of the eight most recently used (params, caps); one
    holds 2 x 8 (x_cap + 2)^2 bytes of kernels plus its columns."""
    return _Envelope(params, caps)


def finite_horizon_death(
    x: int, params: IGWParams, n: int, caps: Caps = Caps()
) -> IntervalProb:
    """Certified enclosure of P_x(X_n = 0)."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= x <= caps.x_cap:
        raise ValueError(f"start state {x} outside the tracked range 0..{caps.x_cap}")
    lo, hi = _envelope(params, caps).death_columns(n)
    lo_x, hi_x = float(lo[x]), float(hi[x])
    return IntervalProb(min(lo_x, hi_x), max(lo_x, hi_x))


def death_prob_interval(
    x: int, params: IGWParams, caps: Caps = Caps(), horizon: int = 256
) -> IntervalProb:
    """Certified enclosure of the total death probability P_x(D).

    Defined in the mixed regime (p_0 = 0, p_1 != 1).  Without thinning the
    chain cannot die, so theta = 1 returns [0, 0].  The lower end is the
    never-dying-overflow envelope at the horizon (finite-horizon death
    increases to P_x(D)); the upper end closes the still-alive mass with
    the fixed-point certificate q*^y, using q*^{x_cap} for clamped mass,
    which degenerates to 1 when m*theta <= 1.
    """
    law = params.law
    if law.p0 > 0.0:
        raise RegimeError("death intervals target the p_0 = 0 regime (use the absorption check)")
    if law.p1 == 1.0:
        raise RegimeError("single-child laws form a pure thinning chain; no mixed regime")
    if not 1 <= x <= caps.x_cap:
        raise ValueError(f"start state {x} outside the tracked range 1..{caps.x_cap}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if params.theta == 1.0:
        return IntervalProb(0.0, 0.0)
    env = _envelope(params, caps)
    lo, hi = env.death_columns(horizon)
    lo_x = float(lo[x])
    hi_x = min(1.0, float(hi[x] + env.closure_column(horizon)[x]))
    return IntervalProb(lo_x, max(lo_x, hi_x))
