"""Test oracles the package is compared against.

* The progeny route to the envelope kernels.  Row x is the theta-thinning
  of the tracked law of S_x, read through a binomial table built by
  Pascal's rule (``binomial_table``, checked against scipy.stats).
  Totals beyond ``s_cap`` thin like the stochastically smallest count
  consistent with them, Binomial(s_cap + 1, theta), in the upper kernel and
  go to the phantom in the lower one.  It shares the law of S_x with the
  package, but not the thinned composition of the kernel rows.
* The full-width envelope kernels, assembled row by row from
  ``thinned_rows``: every state keeps its own row, lost mass goes to x_cap
  or to the phantom, every state from the first dead row on takes the
  shared row, and ``_floor_into`` runs last.  It shares the rows and the
  floor with the package, not its kernels on the distinct states.
* The direct composition of the law of S_x and of the thinned rows H_x:
  every power w^k by one full ``np.convolve`` cut at the cap, without the
  package's short products and symmetric square.
* A scalar simulator of the chain, one path at a time on a numpy
  generator: one multinomial draw per generation while Z is exact,
  Gaussian branching noise one generation at a time beyond it, folded
  deterministically once the relative sd of the noise still to come is
  below 2^-60 (or Z above 1e300), and exact binomial thinning.  It shares
  the exact cap with the batched engine, not its array code, its
  sampling of two-atom laws or its one-draw remainder of the sum.
* The one-step mean map chi(x) = E_x(X_1) in closed form.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

import numpy as np

from igw import Caps, ExtendedCount, IGWParams, IntervalProb, OffspringLaw, TerminationKind, mean
from igw.analysis import fixed_point_q
from igw.exact_dist import KERNEL_FLOOR, _atoms, _floor_into, _Progeny, _progeny_laws, thinned_rows
from igw.gw_engine import DEFAULT_EXACT_CAP, LOG_VALUE_LIMIT, law_context
from igw.reproduction_laws import MEAN_CRITICAL_TOL


def binomial_table(theta: float, s_max: int, j_max: int) -> np.ndarray:
    """B[s, j] = P(Binomial(s, theta) = j) for s = 0..s_max, j = 0..j_max.

    Built by Pascal's rule, one row from the last:
    B[s, j] = (1 - theta) * B[s-1, j] + theta * B[s-1, j-1].  Each entry is
    a convex combination of two entries of the row before, so its relative
    error grows by at most about one rounding per row.  Entries below the
    smallest normal float are set to 0 as each row is made: the pmf there
    underflows anyway, and a subnormal left in would never decay
    ((1 - theta) * 5e-324 rounds back up to 5e-324).
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


def progeny_rows(params: IGWParams, caps: Caps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, overflow, spill): rows[x] is the thinning of the tracked part
    of S_x on 0..x_cap, overflow[x] the mass of S_x beyond s_cap, and spill
    the law of Binomial(s_cap + 1, theta) on 0..x_cap."""
    B = binomial_table(params.theta, caps.s_cap + 1, caps.x_cap)
    laws = _progeny_laws(params.law, caps.x_cap, caps.s_cap)
    rows = np.array([p.coef @ B[p.offset : p.offset + len(p.coef)] for p in laws])
    return rows, np.array([p.overflow for p in laws]), B[caps.s_cap + 1]


def envelope_kernels(params: IGWParams, caps: Caps) -> tuple[np.ndarray, np.ndarray]:
    """Dense (death-upper, death-lower) kernels on 0..x_cap (+ phantom)."""
    x_cap = caps.x_cap
    base, overflow, spill = progeny_rows(params, caps)
    K_hi = base + overflow[:, None] * spill
    K_hi[:, x_cap] += np.maximum(0.0, 1.0 - K_hi.sum(axis=1))
    K_lo = np.zeros((x_cap + 2, x_cap + 2))
    K_lo[: x_cap + 1, : x_cap + 1] = base
    K_lo[: x_cap + 1, x_cap + 1] = np.maximum(0.0, 1.0 - base.sum(axis=1))
    K_lo[x_cap + 1, 0] = params.law.p0
    K_lo[x_cap + 1, x_cap + 1] = 1.0 - params.law.p0
    _floor_into(K_hi, 0)
    _floor_into(K_lo, x_cap + 1)
    return K_hi, K_lo


def death_intervals(params: IGWParams, caps: Caps, horizon: int) -> list[IntervalProb]:
    """``death_prob_interval`` for x = 1..x_cap on the progeny-route kernels,
    by backward sweeps (p_0 = 0 and theta < 1 assumed)."""
    K_hi, K_lo = envelope_kernels(params, caps)
    lo, hi = np.zeros(len(K_lo)), np.zeros(len(K_hi))
    lo[0] = hi[0] = 1.0
    close = fixed_point_q(params, 1e-13) ** np.arange(len(K_hi), dtype=float)
    close[0] = 0.0
    for _ in range(horizon):
        lo, hi, close = K_lo @ lo, K_hi @ hi, K_hi @ close
    out = []
    for x in range(1, caps.x_cap + 1):
        lo_x = float(lo[x])
        out.append(IntervalProb(lo_x, max(lo_x, min(1.0, float(hi[x] + close[x])))))
    return out


def dead_row(params: IGWParams, x_cap: int) -> int:
    """r, the first state whose tracked mass P_r(X_1 <= x_cap) is below
    ``KERNEL_FLOOR`` (x_cap + 1 when there is none)."""
    rows = islice(thinned_rows(params.law, params.theta, x_cap), x_cap + 1)
    return next((x for x, row in enumerate(rows) if row.coef.sum() < KERNEL_FLOOR), x_cap + 1)


def thinned_kernels(params: IGWParams, x_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-width (death-upper, death-lower) envelope kernels, (x_cap + 1)^2
    and (x_cap + 2)^2 with the phantom last, one row per state: row x holds
    the atoms of X_1 from x, with the mass beyond x_cap added at x_cap (upper)
    or sent to the phantom (lower); from the first dead row r on, every row
    is the shared one, d_r at 0 and 1 - d_r at x_cap (upper) or all to the
    phantom (lower); the phantom dies at p_0; then ``_floor_into``."""
    n = x_cap + 1
    K_hi, K_lo = np.zeros((n, n)), np.zeros((n + 1, n + 1))
    for x, row in enumerate(islice(thinned_rows(params.law, params.theta, x_cap), n)):
        mass = float(row.coef.sum())
        if mass < KERNEL_FLOOR:
            K_hi[x:, 0], K_hi[x:, x_cap] = mass, 1.0 - mass
            K_lo[x:n, n] = 1.0
            break
        atoms = _atoms(row, x_cap)
        lost = max(0.0, 1.0 - float(atoms.sum()))
        K_hi[x], K_lo[x, :n] = atoms, atoms
        K_hi[x, x_cap] += lost
        K_lo[x, n] = lost
    K_lo[n, 0], K_lo[n, n] = params.law.p0, 1.0 - params.law.p0
    _floor_into(K_hi, 0)
    _floor_into(K_lo, n)
    return K_hi, K_lo


def dense_sweep(
    params: IGWParams, x_cap: int, horizons: tuple[int, ...], closure: bool = True
) -> dict[int, list[np.ndarray]]:
    """The envelope sweeps on the full-width kernels of
    :func:`thinned_kernels`, with no columns merged: every step is
    u <- (rows @ u)[index], where ``rows`` are the full-width rows of states
    0..s, s = min(r, x_cap), and the phantom, and state x reads entry
    index[x] = min(x, s).  A BLAS matrix-vector product rounds a row's dot
    product differently with the number of rows in the product, so stepping
    all x_cap + 1 rows would not round as the package's (s + 1)-row sweep
    does.  For each horizon asked for, the lower and the upper death column
    and, with ``closure``, the closure column (c_y = q*^y for y >= 1,
    c_0 = 0, swept on the upper kernel)."""
    K_hi, K_lo = thinned_kernels(params, x_cap)
    s = min(dead_row(params, x_cap), x_cap)
    index = np.minimum(np.arange(x_cap + 1), s)
    upper = (K_hi[: s + 1], index)
    kernels = [(K_lo[[*range(s + 1), x_cap + 1]], np.append(index, s + 1)), upper]
    cols = [np.zeros(x_cap + 2), np.zeros(x_cap + 1)]
    cols[0][0] = cols[1][0] = 1.0
    if closure:
        c = fixed_point_q(params, 1e-13) ** np.arange(x_cap + 1, dtype=float)
        c[0] = 0.0
        kernels.append(upper)
        cols.append(c)
    out = {}
    for n in range(1, max(horizons) + 1):
        cols = [(rows @ u)[idx] for (rows, idx), u in zip(kernels, cols)]
        if n in horizons:
            out[n] = cols
    return out


# -- the direct composition --------------------------------------------------------


def direct_compose(law: OffspringLaw, prev: _Progeny, cap: int, theta: float = 1.0) -> _Progeny:
    """The package's composition step (``exact_dist._compose``) with every
    power w^k taken by ``np.convolve`` in full and cut at the cap: the same
    offsets and power-of-two rescaling, so kernel rows, whose products the
    package also takes whole, agree bit for bit."""
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
        power, p_off, p_exp = np.ones(1), 0, 0
        for k, p in enumerate(law.probs):
            if k > 0:
                p_off += w_off
                if p_off > cap:
                    break
                n = cap + 1 - p_off
                power = np.convolve(power[:n], w[:n])[:n]
                _, e = math.frexp(float(power.max()))
                power = np.ldexp(power, -e)
                p_exp += w_exp + e
            if p > 0.0:
                out[p_off : p_off + len(power)] += np.ldexp(p * power, p_exp)
    else:
        out[0] = law.p0
    nz = np.flatnonzero(out)
    if nz.size == 0:
        return _Progeny(out[:0], cap + 1, 1.0)
    coef = out[nz[0] : nz[-1] + 1].copy()
    return _Progeny(coef, int(nz[0]), max(0.0, 1.0 - float(coef.sum())))


def direct_rows(law: OffspringLaw, theta: float, cap: int) -> Iterator[_Progeny]:
    """The laws of S_x (theta = 1) or of X_1 from x (theta < 1), cut at the
    cap, for x = 0, 1, 2, ... by :func:`direct_compose`; a stand-in for
    ``exact_dist.thinned_rows``."""
    row = _Progeny(np.ones(1), 0, 0.0)
    while True:
        yield row
        row = direct_compose(law, row, cap, theta)


# -- the scalar simulator ----------------------------------------------------------


def _count(n: int) -> ExtendedCount:
    return ExtendedCount.exact(n) if n <= DEFAULT_EXACT_CAP else ExtendedCount.from_log(math.log(n))


#: the per-generation Gaussian chain folds once the relative sd of all the
#: noise still to come is below this, and at the latest above 1e300
HANDOVER_REL_SD = 2.0**-60
LOG_FLOAT_CAP = math.log(1e300)


def handover_log(law: OffspringLaw) -> float:
    """The log count above which :func:`total_progeny` folds: where
    sqrt(v / (m (m-1) Z)) = HANDOVER_REL_SD, clamped at LOG_FLOAT_CAP; -inf
    for a zero-variance supercritical law, +inf unless m > 1."""
    ctx = law_context(law)
    if ctx.m <= 1.0:
        return math.inf
    if ctx.v == 0.0:
        return -math.inf
    level = math.log(ctx.v / (ctx.m * (ctx.m - 1.0))) - 2.0 * math.log(HANDOVER_REL_SD)
    return min(level, LOG_FLOAT_CAP)


def total_progeny(law: OffspringLaw, x: int, gen: np.random.Generator) -> tuple[ExtendedCount, ExtendedCount]:
    """(Z_x, S_x) of the branching process run x generations from one
    ancestor: exact generations up to the cap, then Gaussian noise
    Z' = max(m Z + sqrt(v Z) N, 1) one generation at a time up to
    :func:`handover_log`, then the remaining generations folded as
    sum_j Z m^j."""
    ctx = law_context(law)
    handover = handover_log(law)
    z, s, k = 1, 0, 0
    while k < x and 0 < z <= DEFAULT_EXACT_CAP:
        z = int(gen.multinomial(z, law.probs_array) @ law.ks_array)
        s += z
        k += 1
    if k == x or z == 0:
        return _count(z), _count(s)
    z_log, s_log = math.log(z), math.log(s)
    while k < x and z_log <= handover:
        zf = math.exp(z_log)
        z_log = math.log(max(ctx.m * zf + math.sqrt(ctx.v * zf) * gen.standard_normal(), 1.0))
        s_log = float(np.logaddexp(s_log, z_log))
        k += 1
    if k < x:
        # the remaining noise cannot move a float: add sum_j Z m^j at once
        g = (x - k) * ctx.log_m
        fold = z_log + ctx.log_m + g + math.log1p(-math.exp(-g)) - math.log(ctx.m - 1.0)
        s_log = float(np.logaddexp(s_log, fold))
        z_log += g
    return (
        ExtendedCount.from_log(min(z_log, LOG_VALUE_LIMIT)),
        ExtendedCount.from_log(min(s_log, LOG_VALUE_LIMIT)),
    )


def thin(count: ExtendedCount, theta: float, gen: np.random.Generator) -> ExtendedCount:
    """Each of ``count`` individuals survives with probability theta."""
    if theta == 1.0:
        return count
    if not count.is_exact:
        return ExtendedCount.from_log(count.log() + math.log(theta))
    return ExtendedCount.exact(gen.binomial(count.exact_value, theta))


def step(x: ExtendedCount, params: IGWParams, gen: np.random.Generator) -> ExtendedCount:
    """One transition of the chain from a nonzero state x; from the log tier
    log X' = X log m + log(m/(m-1)) + log(theta)."""
    if x.is_exact:
        return thin(total_progeny(params.law, x.exact_value, gen)[1], params.theta, gen)
    ctx = law_context(params.law)
    xf = math.exp(x.log()) if x.log() < 709.0 else math.inf
    log_next = xf * ctx.log_m + ctx.log_fold + math.log(params.theta)
    return ExtendedCount.from_log(min(log_next, LOG_VALUE_LIMIT))


def trajectory(
    x0: int, params: IGWParams, horizon: int, threshold: ExtendedCount, gen: np.random.Generator
) -> tuple[TerminationKind, int]:
    """The verdict of one path from x0 and the step it was reached at."""
    state = ExtendedCount.exact(x0)
    for n in range(1, horizon + 1):
        state = step(state, params, gen)
        if state.is_zero():
            return TerminationKind.DIED, n
        if not state < threshold:
            return TerminationKind.EXPLODED, n
    return TerminationKind.HORIZON, horizon


# -- the mean map --------------------------------------------------------------------


def chi(params: IGWParams, x: int) -> float:
    """E_x(X_1) = theta * (m + m^2 + ... + m^x); ``inf`` once that
    overflows."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0.0
    m = mean(params.law)
    if abs(m - 1.0) <= MEAN_CRITICAL_TOL:
        return params.theta * x
    if m > 1.0 and x * math.log(m) > 700.0:
        lv = log_chi(params, x)
        return math.inf if lv > 709.0 else math.exp(lv)
    return params.theta * m * (m**x - 1.0) / (m - 1.0)


def log_chi(params: IGWParams, x: int) -> float:
    """log of chi(params, x), stable for x up to at least 10^4."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return -math.inf
    m = mean(params.law)
    theta = params.theta
    if m <= 0.0:
        return -math.inf
    if abs(m - 1.0) <= MEAN_CRITICAL_TOL:
        return math.log(theta) + math.log(x)
    log_m = math.log(m)
    if m > 1.0:
        # m (m^x - 1)/(m - 1): pull x log m out, keep the rest in log1p
        body = x * log_m + math.log1p(-math.exp(-x * log_m)) - math.log(m - 1.0)
    else:
        mx = math.exp(x * log_m) if x * log_m > -745.0 else 0.0
        body = math.log1p(-mx) - math.log(1.0 - m)
    return math.log(theta) + log_m + body
