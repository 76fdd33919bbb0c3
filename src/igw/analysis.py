"""Analytic certificates and the verification checks.

Certificates
    * the closed form of q* for the binary family (q*, the smallest fixed
      point of the thinned generating function, bounds the death
      probability from state 1 when m * theta > 1; the general bisection is
      :func:`igw.reproduction_laws.fixed_point_q`),
    * the geometric chain bound q1^x for higher start states,
    * a product lower bound on the explosion probability: with
      phi(y) = y + 1 and psi(y) = y^2, the chance that the chain ever fails
      to gain a unit is controlled by gamma(y) >= P_y(X_1 <= y + 1), and
      P_y(always gaining) >= prod_k (1 - gamma(y + k)).  States below a
      switch point y0 use exact one-step tail probabilities, read off the
      thinned composition H_y of :mod:`igw.exact_dist` (exact, so no
      truncation cap enters); from y0 on, a Markov bound on 1/Z_y, with
      E(1/Z_y) bounded above by a certified trapezoid sum h(y0) taken at
      y0 and carried as h(y0) c^(y - y0), plus an exponential-moment bound
      on the thinning.  y0 is read off the law: it is where that analytic
      bound stops decreasing; y^2 p_1^y + Chernoff(y) >= 1 proves a stall
      at y without it.  The infinite tail is closed in closed form once
      the terms provably decay geometrically, and all arithmetic after the
      trapezoid sum is rounded outward.

Checks
    Submultiplicativity of death in the start state and the geometric
    absorption bound, each decided exactly on certified death intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exact_dist import Caps, IntervalProb, finite_horizon_death, one_step_dist
from .gw_engine import harmonic_moments
from .reproduction_laws import IGWParams, OffspringLaw, RegimeError

#: every product factor is kept at least this large so certificates stay
#: strictly inside (0, 1) even when the underlying tails underflow floats;
#: inflating a gamma only weakens (never invalidates) the lower bound.
GAMMA_FLOOR = 1e-16

#: the analytic region ends at the first state whose stall bound is at most
#: STOP_EPS once both tail terms provably decay geometrically; a certificate
#: that needs more than MAX_TERMS analytic states is reported invalid.
STOP_EPS = 1e-12
MAX_TERMS = 100_000

#: the largest start state a certificate takes: the stall bounds form y^2
#: as a float, and past about 2**512 it overflows.
MAX_START = 2**511

#: the search for the switch point between the exact and the analytic
#: region stops here at the latest (about a second for laws with a heavy
#: one-child atom, whose harmonic bounds decay slowest).
MAX_SWITCH = 1024


# -- closed forms ---------------------------------------------------------------


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
    try:
        return q1_hi**x
    except OverflowError:  # no float holds x: pow's limit, 1 at q1 = 1 and 0 below
        return 1.0 if q1_hi == 1.0 else 0.0


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
    contraction E(1/Z_{y+1}) <= c * E(1/Z_y); c lies in [1/2, 1 + 2^-52],
    and c >= 1 for p_1 >= 1 - 3 2^-53 (1 + 2^-52 at p_1 = 1 - 2^-53)."""
    return _up(1.0 - _down(1.0 - p1) / 2.0)


def _carry(h: float, contraction: float, k: int) -> float:
    """h c^k rounded upward, a bound on E(1/Z_{y+k}) when h bounds E(1/Z_y)
    and c < 1 bounds the one-step contraction: h itself at k = 0, else one
    libm power and one product, each raised by :func:`_up`.  A k past 2^53
    is rounded down to a float, which only raises c^k."""
    if k == 0:
        return h
    e = float(k)
    e = _down(e) if e > k else e
    return _up(h * _up(contraction**e))


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


def _certain_stall(law: OffspringLaw, theta: float, y: int) -> bool:
    """True when gamma(y) >= 1 is certain for any bound h on E(1/Z_y): h
    >= p_1^y (Z_y = 1 with probability p_1^y, and a carried h(y0) c^k too,
    as c >= p_1), so gamma(y) >= y^2 p_1^y + Chernoff(y), a lower bound
    summed here rounded downward."""
    return _down(_down((y * y) * _down(law.p1**y)) + _chernoff_thinning(y, theta)) >= 1.0


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

    Requires p_0 = 0, p_1 != 1 and 1 <= x <= ``MAX_START``.  The switch
    point y0 is found from the law by :func:`_switch_point`.  Exact
    one-step tail probabilities are used at the states x_k = x + k below
    y0: the law of X_1 from y by the thinned composition H_y, cut at y0, is
    exact on 0..y + 1, so P_y(X_1 <= y + 1) is the sum of those atoms and
    no cap enters.  ``caps`` is therefore ignored; it stays in the
    signature for callers that pass it positionally.  From max(x, y0) on,
    gamma(y) <= y^2 * E(1/Z_y) + Chernoff(thinning), with E(1/Z_y) bounded
    once, at y0, by the certified trapezoid bound of
    :func:`harmonic_moments`, and carried to every later state by the
    provable one-step contraction
    E(1/Z_{y+1}) <= (1 - (1-p_1)/2) * E(1/Z_y), in closed form
    (:func:`_carry`).  Every step after that bound is rounded outward: the
    contraction, the carry, the stall bounds and the tail sums upward, the
    final product downward.  Returns bound 0 with ``valid=False`` if any
    stall probability reaches 1.  Where :func:`_certain_stall` proves that
    at once, or the contraction is not below 1, the certificate has no
    steps, ``tail_sum`` inf and ``tail_sup`` 1, as when more than
    ``MAX_TERMS`` analytic states would be needed; if every y <=
    ``MAX_SWITCH`` stalls, no harmonic bound is walked (``harmonic_y`` =
    ``MAX_SWITCH``, ``harmonic_bound`` 1, the trivial bound on E(1/Z_y)).
    """
    law = params.law
    theta = params.theta
    if law.p0 > 0.0:
        raise RegimeError("explosion certificates need p_0 = 0")
    if law.p1 == 1.0:
        raise RegimeError("single-child laws never explode; no certificate exists")
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > MAX_START:
        raise ValueError("x must be at most 2**511 (MAX_START)")

    if x <= MAX_SWITCH and all(_certain_stall(law, theta, y) for y in range(1, MAX_SWITCH + 1)):
        return ExplosionCertificate(x, (), math.inf, 1.0, 0.0, False, MAX_SWITCH, 1.0)
    r = _contraction(law.p1)
    harmonic_y, harmonic_bound = _switch_point(law, theta)
    start = max(x, harmonic_y)
    # r >= 1 fails ratio_a at every state, so the loop would end at MAX_TERMS
    if r >= 1.0 or _certain_stall(law, theta, start):
        return ExplosionCertificate(x, (), math.inf, 1.0, 0.0, False, harmonic_y, harmonic_bound)
    raw: list[tuple[int, float, str]] = []

    # exact region, y = x..y0 - 1 (none when x >= y0): the law of X_1 from
    # y cut at y0 holds P_y(X_1 = offset + i) = coef[i]
    for y in range(x, harmonic_y):
        row = one_step_dist(y, params, Caps(x_cap=harmonic_y))
        p = float(row.coef[: max(0, y + 2 - row.offset)].sum())
        raw.append((y, min(p, 1.0), "exact"))

    # analytic region from max(x, y0), extended until the terms are provably
    # in geometric decay
    for y in range(start, start + MAX_TERMS):
        h_used = _carry(harmonic_bound, r, y - harmonic_y)
        g = min(_stall_bound(y, h_used, theta), 1.0)
        raw.append((y, g, "tail-bound"))
        ratio_a_ok = _up(r * (y + 1) ** 2) < y * y
        ratio_b_ok = theta == 1.0 or _up(1.0 + _up((2.0 * y + 1.0) * _log_beta(theta))) < 0.0
        if g <= STOP_EPS and ratio_a_ok and ratio_b_ok:
            break
    else:
        return ExplosionCertificate(x, (), math.inf, 1.0, 0.0, False, harmonic_y, harmonic_bound)

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


# -- inequality verification --------------------------------------------------------


@dataclass(frozen=True)
class SubmultReport:
    x: int
    y: int
    n: int
    interval_xy: IntervalProb
    interval_x: IntervalProb
    interval_y: IntervalProb
    status: str  # "certified" | "indeterminate"


def submultiplicativity_check(
    params: IGWParams, x: int, y: int, n: int, caps: Caps = Caps()
) -> SubmultReport:
    """Check P_{x+y}(X_n = 0) <= P_x(X_n = 0) * P_y(X_n = 0) on certified
    intervals.

    "certified" means hi(x+y) <= lo(x)*lo(y), compared exactly on the
    float endpoints, which proves the inequality for the true values;
    anything else is reported indeterminate, not failed, since the
    inequality holds for the true probabilities and certified intervals
    can only be too wide, never wrong.
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
    from fractions import Fraction  # loaded on call: it imports decimal

    proved = Fraction(ixy.hi) <= Fraction(ix.lo) * Fraction(iy.lo)
    return SubmultReport(x, y, n, ixy, ix, iy, "certified" if proved else "indeterminate")


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

    Survival comes from the certified death intervals, and each row is
    decided by exact comparisons of 1 - hi and 1 - lo with (1 - p_0)^n;
    rows whose interval straddles the bound are flagged indeterminate
    rather than failed.
    """
    p0 = params.law.p0
    if p0 <= 0.0:
        raise RegimeError("the absorption bound needs p_0 > 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    from fractions import Fraction  # loaded on call: it imports decimal

    rows, rate, bound = [], 1 - Fraction(p0), Fraction(1)
    for n in range(1, n_max + 1):
        death = finite_horizon_death(x, params, n, caps)
        bound *= rate  # (1 - p_0)^n, exactly
        if 1 - Fraction(death.lo) <= bound:
            status = "certified"
        elif 1 - Fraction(death.hi) <= bound:
            status = "indeterminate"
        else:
            status = "violated"
        rows.append(AbsorptionRow(n, 1.0 - death.hi, 1.0 - death.lo, (1.0 - p0) ** n, status))
    return AbsorptionReport(x, p0, tuple(rows))
