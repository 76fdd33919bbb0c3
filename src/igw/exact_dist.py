"""Exact truncated distributions and certified probability intervals.

The law of the total progeny S_x = Z_1 + ... + Z_x of the auxiliary
branching process comes from its generating function.  With G_x the pgf of
S_x and f the offspring pgf, splitting on the first generation gives the
total-progeny functional equation (Harris 1963)

    G_0 = 1,    G_x(u) = f(u * G_{x-1}(u)).

Thinning commutes with it.  The law of X_1 from state x, the theta-thinning
of S_x, has the pgf H_x(u) = G_x(1 - theta + theta*u), and

    H_0 = 1,    H_x(u) = f((1 - theta + theta*u) * H_{x-1}(u)).

Each series is composed from the one before by power series arithmetic.
The coefficient of u^j on the right depends only on coefficients 0..j of
the series before, so truncation is exact: atoms below the cap are the true
probabilities up to float rounding, and the missing mass lies provably
beyond the cap.  Each product computes only the coefficients below the cap
(a short product, Brent and Kung 1978), and the square w^2 uses symmetry;
both sum the same nonnegative terms as the full product, with no
subtraction and no FFT.  The law of S_x is cut at ``s_cap``, and only
:func:`total_progeny_dist` reads it.  The law of X_1, and with it every
kernel row, death interval and one-step law, is cut at ``x_cap`` alone.
The explosion certificate reads the same rows of H_x, cut just above the
largest state of its exact region (:func:`thinned_rows`).

Every death probability is closed into a rigorous two-sided interval:

* lower envelope: mass beyond ``x_cap`` is routed to a phantom state whose
  only exit is the uniform per-step death floor p_0 (never, when p_0 = 0),
* upper envelope: mass beyond ``x_cap`` is clamped to ``x_cap``, valid
  because the chain is stochastically monotone in its start state and
  death probabilities are nonincreasing in it.

S_x is pathwise nondecreasing in x, so the tracked mass P_x(X_1 <= x_cap)
of a row is nonincreasing in x.  Rows are composed up to the first one, r,
whose tracked mass is below ``KERNEL_FLOOR``; every later state shares one
conservative row.  After one step a swept column is therefore constant on
s..x_cap, s = min(r, x_cap), so each kernel is stored on its s + 1 distinct
states (and the phantom) only, with the columns of states s..x_cap summed
into column s, and a sweep costs (s + 1)^2 per step instead of
(s + 1)(x_cap + 1).  This pays off for laws with a small one-child atom,
whose rows die early: at the default caps pmf:2=0.5,3=0.5 steps 10 to 11
states at every theta, and binary:0.9 at theta = 0.9 steps 209.  Nothing
is saved when r is near x_cap: binary:0.6 has r = 509 of 512 at
theta = 0.92.

Both envelope chains absorb at 0, so P_x(X_n = 0) = (K^n e_0)[x] for either
kernel K.  One backward sweep u <- K u from u = e_0 therefore answers every
start state x at once.  The columns are kept per horizon asked for, and a
new horizon is swept on from the longest kept one below it.  The upper end
of the total death probability adds a second column swept on the upper
kernel, the closure K^n c with c_y = q*^y for y >= 1 and c_0 = 0.  It is
kept apart from the death column, not folded into one sweep of the vector
(1, q*, q*^2, ...): the death columns of the two kernels then round alike,
so an interval whose truncation is invisible at float precision still has
lo == hi.

One quantity needs no truncation at all: P_x(X_1 = 0) = E((1-theta)^{S_x})
follows from the scalar recursion a_{j+1} = f(t * a_j) with t = 1 - theta,
exact to floating precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .reproduction_laws import IGWParams, OffspringLaw, RegimeError, pgf_eval

#: envelope-kernel entries below this are moved to the conservative column
#: (state 0 in the death-upper kernel, the phantom in the death-lower one),
#: which keeps the kernel powers out of the slow subnormal range, and a row
#: whose whole tracked mass is below it ends the live rows.  Sound by
#: monotonicity; each step moves at most (x_cap + 1) * KERNEL_FLOOR of mass,
#: so an interval at horizon n moves outward by at most
#: n * (x_cap + 1) * KERNEL_FLOOR at either end.
KERNEL_FLOOR = 1e-200

#: products keeping at most this many coefficients go to np.convolve whole:
#: every kernel row at x_cap <= 1024 and every row of the explosion
#: certificate (cut at its switch point, at most 1024) is rounded exactly as
#: the direct product rounds it; longer ones split (:func:`_mul_low`).
_DIRECT_MAX = 1025


@dataclass(frozen=True)
class Caps:
    """Truncation bounds: generation size, total progeny, chain state.

    ``x_cap`` truncates the chain: one-step laws, kernel rows and every
    death interval are exact below it and read nothing else.  ``s_cap``
    truncates the law of S_x, which only :func:`total_progeny_dist` reads.
    ``z_cap`` is accepted for compatibility and affects no result.
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
            raise ValueError(f"interval [{self.lo!r}, {self.hi!r}] is inverted")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


# -- the law of S_x by truncated pgf composition ---------------------------------


class _Progeny(NamedTuple):
    """A truncated law: P(V = offset + i) = coef[i] for offset + i <= cap,
    where V is S_x (cap s_cap) or its thinning X_1 (cap x_cap); coef[0] and
    coef[-1] are nonzero.  ``overflow`` is the mass beyond the cap."""

    coef: np.ndarray
    offset: int
    overflow: float


def _atoms(row: _Progeny, cap: int) -> np.ndarray:
    """The truncated law as a dense vector on 0..cap."""
    atoms = np.zeros(cap + 1)
    atoms[row.offset : row.offset + len(row.coef)] = row.coef
    return atoms


def _mul_low(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of a*b, as many as ``np.convolve(a[:n], b[:n])[:n]``
    returns, at about half its cost once the product is truncated.

    Split at h = ceil(n/2): a*b = a0*b0 + u^h (a1*b0 + a0*b1) mod u^n.  The
    low halves take one full convolution, the cross terms two recursive
    short products of length n - h.  Every coefficient sums the same
    nonnegative products a_i*b_j as the direct route, grouped differently,
    so it keeps the direct route's bound of gamma_n relative error."""
    a, b = a[:n], b[:n]
    if n <= _DIRECT_MAX or len(a) + len(b) - 1 <= n:
        return np.convolve(a, b)[:n]
    h = (n + 1) // 2
    out = np.zeros(n)
    low = np.convolve(a[:h], b[:h])
    out[: len(low)] = low
    for high, other in ((a[h:], b), (b[h:], a)):
        if len(high):
            cross = _mul_low(high, other, n - h)
            out[h : h + len(cross)] += cross
    return out


def _sqr_low(a: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of a*a, as :func:`_mul_low` returns them, at
    about half its cost again: with h = ceil(len(a)/2),
    a*a = a0*a0 + 2 u^h (a0*a1) + u^(2h) a1*a1, so the cross term is taken
    once and doubled (exactly), and the squares split the same way."""
    a = a[:n]
    if len(a) <= _DIRECT_MAX:
        return np.convolve(a, a)[:n]
    h = (len(a) + 1) // 2
    out = np.zeros(min(n, 2 * len(a) - 1))
    low = _sqr_low(a[:h], n)
    out[: len(low)] = low
    cross = _mul_low(a[:h], a[h:], n - h)
    out[h : h + len(cross)] += 2.0 * cross
    if n > 2 * h:
        high = _sqr_low(a[h:], n - 2 * h)
        out[2 * h : 2 * h + len(high)] += high
    return out


def _compose(law: OffspringLaw, prev: _Progeny, cap: int, theta: float = 1.0) -> _Progeny:
    """Coefficients 0..cap of f(w) with w(u) = (1 - theta + theta*u) * prev(u),
    as the sum of p_k * w^k: G_x from G_{x-1} at theta = 1 (w = u * G_{x-1}),
    and H_x from H_{x-1} below it.  The powers w^k start at k times the
    offset of w, so each one only needs the coefficients of w below
    cap + 1 - k * offset, and each product computes only the coefficients
    it keeps (:func:`_mul_low`); w^2 is a square (:func:`_sqr_low`).  The
    arrays are rescaled by exact powers of two, so the convolutions run
    near 1 and products of small probabilities stay out of the slow
    subnormal range."""
    out = np.zeros(cap + 1)
    if len(prev.coef):
        if theta == 1.0:
            w, w_off = prev.coef, prev.offset + 1
        else:
            w, w_off = np.zeros(len(prev.coef) + 1), prev.offset
            w[:-1] = (1.0 - theta) * prev.coef
            w[1:] += theta * prev.coef
        _, w_exp = math.frexp(float(w.max()))
        w = np.ldexp(w, -w_exp)
        power, p_off, p_exp = np.ones(1), 0, 0  # w^0
        for k, p in enumerate(law.probs):
            if k > 0:
                p_off += w_off
                if p_off > cap:
                    break
                n = cap + 1 - p_off
                if k == 2:  # power is w rescaled by 2^(p_exp - w_exp)
                    power, e_mul = _sqr_low(power, n), p_exp
                else:
                    power, e_mul = _mul_low(power, w, n), w_exp
                _, e = math.frexp(float(power.max()))
                power = np.ldexp(power, -e)
                p_exp += e_mul + e
            if p > 0.0:
                out[p_off : p_off + len(power)] += np.ldexp(p * power, p_exp)
    else:
        out[0] = law.p0  # all of prev lies beyond the cap, so only Z_1 = 0 stays below it
    nz = np.flatnonzero(out)
    if nz.size == 0:
        return _Progeny(out[:0], cap + 1, 1.0)
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
    prog = _progeny_laws(law, x, s_cap)[x]
    warning = "all-mass-in-overflow" if prog.overflow > 1.0 - 1e-9 else None
    return TruncatedDist(_atoms(prog, s_cap), prog.overflow, warning)


# -- the law of X_1 by thinned pgf composition -----------------------------------


def thinned_rows(law: OffspringLaw, theta: float, x_cap: int) -> Iterator[_Progeny]:
    """The laws of X_1 from x = 0, 1, 2, ... on 0..x_cap, by the thinned
    total-progeny equation H_x(u) = f((1 - theta + theta*u) * H_{x-1}(u));
    each row is composed only when it is asked for.  Row x holds
    P_x(X_1 = offset + i) = coef[i] exactly (up to rounding) for every
    offset + i <= x_cap, and its overflow is P_x(X_1 > x_cap)."""
    row = _Progeny(np.ones(1), 0, 0.0)
    while True:
        yield row
        row = _compose(law, row, x_cap, theta)


def one_step_dist(x: int, params: IGWParams, caps: Caps = Caps()) -> TruncatedDist:
    """Law of X_1 from state x, the theta-thinning of S_x, on 0..x_cap.

    The atoms are exact up to float rounding whatever the law of S_x does
    beyond ``s_cap``; the overflow is the mass of X_1 beyond ``x_cap``.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    row = next(islice(thinned_rows(params.law, params.theta, caps.x_cap), x, None))
    warning = "all-mass-in-overflow" if row.overflow > 1.0 - 1e-9 else None
    return TruncatedDist(_atoms(row, caps.x_cap), row.overflow, warning)


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


# -- envelope kernels and certified intervals -----------------------------------


def _kernels(params: IGWParams, x_cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R_hi, R_lo, tail): the death-upper and the death-lower kernel on
    their distinct states, and the upper kernel's columns s..x_cap.

    Row x holds the atoms of X_1 from x on 0..x_cap.  The only untracked
    mass is X_1 > x_cap: the upper kernel clamps it to ``x_cap`` (valid by
    stochastic monotonicity: death probabilities are nonincreasing in the
    state), and the lower kernel routes it to a phantom state, which dies at
    the uniform per-step floor p_0: from any state the first auxiliary
    generation is empty with probability p_0, so every state dies next step
    at least that often.  With p_0 = 0 the phantom never dies.

    S_x is pathwise nondecreasing in x, so the tracked mass
    d_x = P_x(X_1 <= x_cap) is nonincreasing in x.  Rows are composed up to
    the first r with d_r < ``KERNEL_FLOOR`` only; states r..x_cap share one
    conservative row, d_r at state 0 and 1 - d_r at ``x_cap`` in the upper
    kernel, everything to the phantom in the lower one.  Entries of the live
    rows below ``KERNEL_FLOOR`` go to state 0 in the upper kernel and to the
    phantom in the lower one.

    With s = min(r, x_cap) the states s..x_cap step alike, so each kernel is
    kept on the rows of states 0..s (and the phantom) with the columns of
    states s..x_cap summed into column s (:func:`_merge`): R_hi is
    (s + 1)^2 and R_lo, with the phantom last, (s + 2)^2.  ``tail`` holds
    the upper kernel's full-width columns s..x_cap of rows 0..s.  The
    full-width rows are built, floored and merged one kernel at a time.
    """
    live, shared = [], 0.0  # the shared row is unused when no row is dead
    for row in islice(thinned_rows(params.law, params.theta, x_cap), x_cap + 1):
        mass = float(row.coef.sum())
        if mass < KERNEL_FLOOR:
            shared = mass
            break
        live.append(row)
    r = len(live)
    s = min(r, x_cap)  # row s is the shared row when r = s
    hi = _dense(live, (s + 1, x_cap + 1))
    lost = np.maximum(0.0, 1.0 - hi[:r].sum(axis=1))
    hi[:r, x_cap] += lost
    if r == s:
        hi[s, 0], hi[s, x_cap] = shared, 1.0 - shared
    _floor_into(hi, 0)
    R_hi, tail = _merge(hi, s, x_cap), hi[:, s:].copy()
    del hi  # freed before the lower kernel is built
    lo = _dense(live, (s + 2, x_cap + 2))
    lo[:r, x_cap + 1] = lost
    if r == s:
        lo[s, x_cap + 1] = 1.0
    lo[s + 1, 0], lo[s + 1, x_cap + 1] = params.law.p0, 1.0 - params.law.p0
    _floor_into(lo, x_cap + 1)
    return R_hi, _merge(lo, s, x_cap), tail


def _dense(rows: list[_Progeny], shape: tuple[int, int]) -> np.ndarray:
    """A zero matrix of ``shape`` with the atoms of ``rows`` as its first rows."""
    K = np.zeros(shape)
    for x, row in enumerate(rows):
        K[x, row.offset : row.offset + len(row.coef)] = row.coef
    return K


def _floor_into(K: np.ndarray, col: int) -> None:
    """Move every entry below ``KERNEL_FLOOR`` into column ``col`` of its row."""
    small = K < KERNEL_FLOOR
    small[:, col] = False
    K[:, col] += np.where(small, K, 0.0).sum(axis=1)
    K[small] = 0.0


def _merge(K: np.ndarray, s: int, x_cap: int) -> np.ndarray:
    """K with the columns of states s..x_cap summed into column s, smallest
    term first; the phantom column past x_cap, if any, stays last."""
    merged = np.cumsum(np.sort(K[:, s : x_cap + 1], axis=1), axis=1)[:, -1]
    return np.column_stack((K[:, :s], merged, K[:, x_cap + 1 :]))


class _Envelope:
    """The envelope kernels of one (law, theta, x_cap) and the columns
    swept backward from them, for every start state at once.

    The sweep steps only the s + 1 distinct states of :func:`_kernels`, on
    ``R_hi`` and ``R_lo``; state x reads entry min(x, s).  In real
    arithmetic this is the full-width sweep; only the rounding of the
    merged column differs.  No full-width kernel is kept.

    ``death[n]`` is (K_lo^n e_0, K_hi^n e_0) on the distinct states: the
    lower and the upper end of P_x(X_n = 0).  ``closure[n]`` is (K_hi^n c,)
    with c_y = q*^y for y >= 1 and c_0 = 0: it closes the mass still alive
    at horizon n by the fixed-point certificate.  c is not constant past s,
    so its first step takes the full-width rows: the first s columns of
    ``R_hi`` plus ``tail``.  Only the horizons asked for are kept; a new one
    is swept on from the longest kept horizon below it, so asking for
    n = 1, 2, ..., N costs N matvecs per column in all.
    """

    def __init__(self, params: IGWParams, x_cap: int) -> None:
        self.params, self.x_cap = params, x_cap
        self.R_hi, self.R_lo, self.tail = _kernels(params, x_cap)
        self.last = s = len(self.R_hi) - 1
        lo, hi = np.zeros(s + 2), np.zeros(s + 1)
        lo[0] = hi[0] = 1.0
        self.death = {0: (lo, hi)}
        self.closure: dict[int, tuple[np.ndarray]] = {}

    def death_at(self, n: int, x: int) -> tuple[float, float]:
        """The lower and the upper end of P_x(X_n = 0)."""
        lo, hi = self.death.get(n) or _sweep(self.death, (self.R_lo, self.R_hi), n)
        j = min(x, self.last)
        return float(lo[j]), float(hi[j])

    def closure_at(self, n: int, x: int) -> float:
        """(K_hi^n c)[x]."""
        if n == 0:
            return float(self._powers()[x])
        if not self.closure:
            c, s = self._powers(), self.last
            self.closure[1] = (self.R_hi[:, :s] @ c[:s] + self.tail @ c[s:],)
        (col,) = self.closure.get(n) or _sweep(self.closure, (self.R_hi,), n)
        return float(col[min(x, self.last)])

    def _powers(self) -> np.ndarray:
        from .analysis import fixed_point_q  # deferred: analysis builds on this module

        c = fixed_point_q(self.params, 1e-13) ** np.arange(self.x_cap + 1, dtype=float)
        c[0] = 0.0
        return c


def _sweep(kept: dict[int, tuple], kernels: tuple[np.ndarray, ...], n: int) -> tuple:
    """The columns at step n, not yet in ``kept``, of v <- R v, one per
    kernel, swept on from the longest horizon below n in ``kept`` and kept."""
    m = max(k for k in kept if k < n)
    cols = kept[m]
    for _ in range(n - m):
        cols = tuple(R @ v for R, v in zip(kernels, cols))
    kept[n] = cols
    return cols


@lru_cache(maxsize=8)
def _envelope(params: IGWParams, x_cap: int) -> _Envelope:
    """The envelopes of the eight most recently used (params, x_cap); one
    holds at most 2 x 8 (x_cap + 2)^2 bytes of kernels plus its columns."""
    return _Envelope(params, x_cap)


def swept_states(params: IGWParams, caps: Caps = Caps()) -> int:
    """The number of distinct states the envelope sweeps of (params,
    caps.x_cap) step: s + 1 with s = min(r, x_cap), r the first dead row."""
    return _envelope(params, caps.x_cap).last + 1


def finite_horizon_death(
    x: int, params: IGWParams, n: int, caps: Caps = Caps()
) -> IntervalProb:
    """Certified enclosure of P_x(X_n = 0)."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= x <= caps.x_cap:
        raise ValueError(f"start state {x} outside the tracked range 0..{caps.x_cap}")
    lo, hi = _envelope(params, caps.x_cap).death_at(n, x)
    return IntervalProb(min(lo, hi), max(lo, hi))


class DeathIntervalDetail(NamedTuple):
    """A death interval and where its width comes from.

    ``truncation`` is the upper minus the lower death column at x, the mass
    whose fate the truncation at x_cap leaves open at the horizon (a few
    ulps below 0 where that is invisible at float precision); ``closure``
    is the closure column at x, the mass still alive at the horizon, closed
    by q*^y; ``swept_states`` is :func:`swept_states`, 0 when nothing is
    swept (theta = 1)."""

    interval: IntervalProb
    truncation: float
    closure: float
    swept_states: int


def death_interval_detail(
    x: int, params: IGWParams, caps: Caps = Caps(), horizon: int = 256
) -> DeathIntervalDetail:
    """Certified enclosure of the total death probability P_x(D), with the
    parts of its width.

    Defined in the mixed regime (p_0 = 0, p_1 != 1).  Without thinning the
    chain cannot die, so theta = 1 gives [0, 0].  The lower end is the
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
        return DeathIntervalDetail(IntervalProb(0.0, 0.0), 0.0, 0.0, 0)
    env = _envelope(params, caps.x_cap)
    lo, hi = env.death_at(horizon, x)
    closure = env.closure_at(horizon, x)
    iv = IntervalProb(lo, max(lo, min(1.0, hi + closure)))
    return DeathIntervalDetail(iv, hi - lo, closure, env.last + 1)


def death_prob_interval(
    x: int, params: IGWParams, caps: Caps = Caps(), horizon: int = 256
) -> IntervalProb:
    """Certified enclosure of the total death probability P_x(D): the
    interval of :func:`death_interval_detail`."""
    return death_interval_detail(x, params, caps, horizon).interval
