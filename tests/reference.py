"""Test oracles the package is compared against.

* The progeny route to the envelope kernels.  Row x is the theta-thinning
  of the tracked law of S_x, read through a binomial table built by
  Pascal's rule (``binomial_table``, checked against scipy.stats).
  Totals beyond ``s_cap`` thin like the stochastically smallest count
  consistent with them, Binomial(s_cap + 1, theta), in the upper kernel and
  go to the phantom in the lower one.  It shares the law of S_x with the
  package, but not the thinned composition of the kernel rows.
* The full-width envelope kernels, assembled row by row from the
  package's composition table (``_row``): every state keeps its own row,
  lost mass goes to x_cap or to the phantom, every state from the first
  dead row on takes the shared row, and ``_floor_into`` runs last.  It shares the rows
  with the package, not its kernels on the distinct states.
* The envelope kernels on the distinct states as the package assembled them
  before its row blocks (``distinct_kernels``): whole full-width matrices
  of the rows read from the table, floored at once (``_floor_into``) and
  merged at once (``_merge``).  The blocked assembly must give its bytes.
* The direct composition of the law of S_x and of the thinned rows H_x:
  every power w^k by one full ``np.convolve`` cut at the cap, without the
  package's short products and symmetric square.
* The composition step as it stood before it stopped at the terms that
  round away (``uncut_compose``): every power w^k up to the cap, by the
  package's own short products and square.  The package must give its
  rows, overflows and offsets byte for byte.
* The composition step as it stood before it tested those terms once per
  gap of the support (``per_term_compose``): the test before every power,
  by the prefix sums alone (``prefix_rounds_away``).  The package must
  form none of the products it skips.
* The law of the whole total progeny S_inf = Z_1 + Z_2 + ... of a
  two-atom law {0: a, k: b} by the hitting-time formula (``otter_row``),
  in exact integer arithmetic on the floats' own values.  It shares
  nothing with the package but the law.
* A scalar simulator of the chain, one path at a time on a numpy
  generator: one multinomial draw per generation while Z is exact,
  Gaussian branching noise one generation at a time beyond it, folded
  deterministically once the relative sd of the noise still to come is
  below 2^-60 (or Z above 1e300), and exact binomial thinning.  It shares
  the exact cap with the batched engine, not its array code, its
  sampling of two-atom laws or its one-draw remainder of the sum.
* The batched engine as it stood before its generation loop went lean:
  one chunk, one generator, every running array compacted every
  generation (``chunk_totals``, ``chunk_step``, ``simulate_chunk``).  The
  package must reproduce its paths byte for byte; it shares only the
  law's constants, the point-mass table and the remainder moments.
* The harmonic walk as it stood before its buffers were made once per
  walk: the trapezoid grid deduplicated by ``np.unique``
  (``trapezoid_grid``), and the iterates and trapezoid sums on fresh
  arrays every draw (``harmonic_walk``).  The package must give the same
  bytes: it shares only the law.
* The one-step mean map chi(x) = E_x(X_1) in closed form.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import Iterator

import numpy as np

from igw import (
    Caps, ExtendedCount, RegimeError, IGWParams, IntervalProb, OffspringLaw, TerminationKind, fixed_point_q,
    harmonic_moments,
)
from igw import exact_dist
from igw.exact_dist import (
    KERNEL_FLOOR,
    _SHIFT,
    _SHIFT_STATES,
    TruncatedDist,
    _mul_low,
    _row,
    _sqr_low,
)
from igw.igw_process import (
    DEFAULT_EXACT_CAP, DIED, EXPLODED, LOG_EXACT_CAP, LOG_VALUE_LIMIT, UNDECIDED, ChunkPaths,
    _point_mass_table, _remainder_moments,
)
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
    laws = [_row(params.law, 1.0, caps.s_cap, x) for x in range(caps.x_cap + 1)]
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
    close = fixed_point_q(params) ** np.arange(len(K_hi), dtype=float)
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
    rows = (_row(params.law, params.theta, x_cap, x) for x in range(x_cap + 1))
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
    for x in range(n):
        row = _row(params.law, params.theta, x_cap, x)
        mass = float(row.coef.sum())
        if mass < KERNEL_FLOOR:
            K_hi[x:, 0], K_hi[x:, x_cap] = mass, 1.0 - mass
            K_lo[x:n, n] = 1.0
            break
        atoms = row.atoms
        lost = max(0.0, 1.0 - float(atoms.sum()))
        K_hi[x], K_lo[x, :n] = atoms, atoms
        K_hi[x, x_cap] += lost
        K_lo[x, n] = lost
    K_lo[n, 0], K_lo[n, n] = params.law.p0, 1.0 - params.law.p0
    _floor_into(K_hi, 0)
    _floor_into(K_lo, n)
    return K_hi, K_lo


def _floor_into(K: np.ndarray, col: int) -> None:
    """Move every entry below ``KERNEL_FLOOR`` into column ``col`` of its row."""
    small = K < KERNEL_FLOOR
    small[:, col] = False
    K[:, col] += np.where(small, K, 0.0).sum(axis=1)
    K[small] = 0.0


def _dense(rows: list[TruncatedDist], shape: tuple[int, int]) -> np.ndarray:
    """A zero matrix of ``shape`` with the atoms of ``rows`` as its first rows."""
    K = np.zeros(shape)
    for x, row in enumerate(rows):
        K[x, row.offset : row.offset + len(row.coef)] = row.coef
    return K


def _merge(K: np.ndarray, s: int, x_cap: int) -> np.ndarray:
    """K with the columns of states s..x_cap summed into column s, smallest
    term first; the phantom column past x_cap, if any, stays last."""
    merged = np.cumsum(np.sort(K[:, s : x_cap + 1], axis=1), axis=1)[:, -1]
    return np.column_stack((K[:, :s], merged, K[:, x_cap + 1 :]))


def distinct_kernels(params: IGWParams, x_cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R_hi, R_lo, tail) of ``exact_dist._kernels`` by whole full-width
    matrices: the live rows 0..r-1 read from the table, the shared row s = r
    when r <= x_cap, the phantom last in the lower kernel, each kernel
    floored and merged at once."""
    live, shared = [], 0.0
    for x in range(x_cap + 1):
        row = _row(params.law, params.theta, x_cap, x)
        mass = float(row.coef.sum())
        if mass < KERNEL_FLOOR:
            shared = mass
            break
        live.append(row)
    r = len(live)
    s = min(r, x_cap)
    hi = _dense(live, (s + 1, x_cap + 1))
    lost = np.maximum(0.0, 1.0 - hi[:r].sum(axis=1))
    hi[:r, x_cap] += lost
    if r == s:
        hi[s, 0], hi[s, x_cap] = shared, 1.0 - shared
    _floor_into(hi, 0)
    lo = _dense(live, (s + 2, x_cap + 2))
    lo[:r, x_cap + 1] = lost
    if r == s:
        lo[s, x_cap + 1] = 1.0
    lo[s + 1, 0], lo[s + 1, x_cap + 1] = params.law.p0, 1.0 - params.law.p0
    _floor_into(lo, x_cap + 1)
    return _merge(hi, s, x_cap), _merge(lo, s, x_cap), hi[:, s:].copy()


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
    does.  Where the package shifts (s + 1 >= ``_SHIFT_STATES``), the rows
    are scaled by 2^k, k = ``_SHIFT``, and each product scaled back by 2^-k:
    the package lifts the column instead, which takes the same exact
    products.  For each horizon asked for, the lower and the upper death
    column and, with ``closure``, the closure column (c_y = q*^y for
    y >= 1, c_0 = 0, swept on the upper kernel)."""
    K_hi, K_lo = thinned_kernels(params, x_cap)
    s = min(dead_row(params, x_cap), x_cap)
    k = _SHIFT if s + 1 >= _SHIFT_STATES else 0
    K_hi, K_lo = np.ldexp(K_hi, k), np.ldexp(K_lo, k)
    index = np.minimum(np.arange(x_cap + 1), s)
    upper = (K_hi[: s + 1], index)
    kernels = [(K_lo[[*range(s + 1), x_cap + 1]], np.append(index, s + 1)), upper]
    cols = [np.zeros(x_cap + 2), np.zeros(x_cap + 1)]
    cols[0][0] = cols[1][0] = 1.0
    if closure:
        c = fixed_point_q(params) ** np.arange(x_cap + 1, dtype=float)
        c[0] = 0.0
        kernels.append(upper)
        cols.append(c)
    out = {}
    for n in range(1, max(horizons) + 1):
        cols = [np.ldexp(rows @ u, -k)[idx] for (rows, idx), u in zip(kernels, cols)]
        if n in horizons:
            out[n] = cols
    return out


# -- the direct composition --------------------------------------------------------


def direct_compose(law: OffspringLaw, prev: TruncatedDist, theta: float = 1.0) -> TruncatedDist:
    """The package's composition step (``exact_dist._compose``) with every
    power w^k taken by ``np.convolve`` in full and cut at the cap: the same
    offsets and power-of-two rescaling, so kernel rows, whose products the
    package also takes whole, agree bit for bit."""
    cap = prev.cap
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
        return TruncatedDist(out, 1.0, cap + 1, out[cap + 1 :])
    offset = int(nz[0])
    coef = out[offset : nz[-1] + 1]
    return TruncatedDist(out, max(0.0, 1.0 - float(coef.sum())), offset, coef)


def direct_rows(law: OffspringLaw, theta: float, cap: int) -> Iterator[TruncatedDist]:
    """The laws of S_x (theta = 1) or of X_1 from x (theta < 1), cut at the
    cap, for x = 0, 1, 2, ... by :func:`direct_compose`, with no stop at a
    fixed point."""
    atoms = np.zeros(cap + 1)
    atoms[0] = 1.0
    row = TruncatedDist(atoms, 0.0, 0, atoms[:1])
    while True:
        yield row
        row = direct_compose(law, row, theta)


def uncut_compose(law: OffspringLaw, prev: TruncatedDist, theta: float = 1.0) -> TruncatedDist:
    """The package's composition step (``exact_dist._compose``) summing
    every term p_k w^k that starts below the cap, with no test of whether
    it can change a byte."""
    return _compose_terms(law, prev, theta, cut=False)


def per_term_compose(law: OffspringLaw, prev: TruncatedDist, theta: float = 1.0) -> TruncatedDist:
    """The package's composition step as it stood before it tested the
    terms that round away once per gap of the support: before every power
    w^k from k = 2 on, the pre-test T_k mass^(k-1) < 2^-54 where term k
    reaches ``_CUT_MIN`` or more coefficients, then the prefix-sum test
    alone (``prefix_rounds_away``)."""
    return _compose_terms(law, prev, theta, cut=True)


def prefix_rounds_away(law: OffspringLaw, k: int, w: np.ndarray, w_exp: int, reach: np.ndarray) -> bool:
    """``exact_dist._rounds_away`` as it stood before its screen: the bound
    at every coefficient from the running maxima and sums of w."""
    n, K = len(reach), law.max_k
    if (3 * K + 10) * n > 2**50 or not reach.min() > math.ldexp((K + 1) * (n + 1), -1014):
        return False
    w = w[:n]
    total = np.add.accumulate(w)
    with np.errstate(over="ignore"):
        bound = np.maximum.accumulate(w)
        bound *= total if k == 2 else total ** (k - 1)
        bound *= 2.0 * law.tails[k] * max(1.0, math.ldexp(float(total[-1]), w_exp)) ** (K - k)
        np.maximum(bound, 2.0**-1019, out=bound)
        np.ldexp(bound, k * w_exp + 55, out=bound)
    return bool((bound <= reach[: len(w)]).all() and bound[-1] <= reach[len(w) :].min(initial=math.inf))


def _compose_terms(law: OffspringLaw, prev: TruncatedDist, theta: float, cut: bool) -> TruncatedDist:
    """The sum of the terms p_k w^k of a composition step, every power by
    the package's short products and square (w^1 = 1 * w among them), up to
    the cap or, with ``cut``, up to the first k the prefix-sum test cuts."""
    if not len(prev.coef):
        return prev
    cap = prev.cap
    out = np.zeros(cap + 1)
    if theta == 1.0:
        w, w_off = prev.coef, prev.offset + 1
    else:
        w, w_off = np.zeros(len(prev.coef) + 1), prev.offset
        w[:-1] = (1.0 - theta) * prev.coef
        w[1:] += theta * prev.coef
    _, w_exp = math.frexp(float(w.max()))
    w = np.ldexp(w, -w_exp)
    mass = 1.0 - prev.overflow
    power, p_off, p_exp = np.ones(1), 0, 0  # w^0
    for k, p in enumerate(law.probs):
        if k > 0:
            p_off += w_off
            if p_off > cap:
                break
            n = cap + 1 - p_off
            if (cut and k > 1 and n >= exact_dist._CUT_MIN and law.tails[k] * mass ** (k - 1) < 2.0**-54
                    and prefix_rounds_away(law, k, w, w_exp, out[p_off:])):
                break
            if k == 2:  # power is w rescaled by 2^(p_exp - w_exp)
                power, e_mul = _sqr_low(power, n), p_exp
            else:
                power, e_mul = _mul_low(power, w, n), w_exp
            _, e = math.frexp(float(power.max()))
            power = np.ldexp(power, -e)
            p_exp += e_mul + e
        if p > 0.0:
            out[p_off : p_off + len(power)] += np.ldexp(p * power, p_exp)
    if out.tobytes() == prev.atoms.tobytes():
        return prev
    nz = np.flatnonzero(out)
    out.flags.writeable = False
    if nz.size == 0:
        return TruncatedDist(out, 1.0, cap + 1, out[cap + 1 :])
    offset = int(nz[0])
    coef = out[offset : nz[-1] + 1]
    return TruncatedDist(out, max(0.0, 1.0 - float(coef.sum())), offset, coef)


def otter_row(law: OffspringLaw, cap: int) -> np.ndarray:
    """P(S_inf = n) for n = 0..cap, where S_inf = Z_1 + Z_2 + ... is the
    total progeny without the ancestor: P(S_inf = n) = [w^n] f(w)^(n+1) /
    (n+1) (Otter 1949; Dwass 1969).

    For a law on {0, k} with p_0 = a and p_k = b, the atom at n is
    C(n+1, n/k) a^(n+1-n/k) b^(n/k) / (n+1) where k divides n, and 0
    otherwise.  a and b enter as the exact values of the floats, integer
    mantissas over powers of two, so each atom is the exact probability
    for the law the package sees, rounded once."""
    support = law.two_atoms
    if support is None or support[0] != 0:
        raise ValueError(f"otter_row needs a law on {{0, k}}, got {law!r}")
    k = support[1]
    (na, da), (nb, db) = law.probs[0].as_integer_ratio(), law.probs[k].as_integer_ratio()
    ea, eb = da.bit_length() - 1, db.bit_length() - 1  # da = 2^ea, db = 2^eb
    out = np.zeros(cap + 1)
    mantissa, step = na, na ** (k - 1) * nb  # na^(n+1-j) nb^j at n = k j
    for j in range(cap // k + 1):
        n = k * j
        # int / int rounds correctly, subnormals included
        out[n] = math.comb(n + 1, j) * mantissa / ((n + 1) << (ea * (n + 1 - j) + eb * j))
        mantissa *= step
    return out


# -- the harmonic walk -------------------------------------------------------------


def harmonic_moment(law: OffspringLaw, y: int) -> float:
    """h(y), the y-th value of ``harmonic_moments``."""
    return next(islice(harmonic_moments(law), y - 1, None))


_U = 2.0**-53
_TINY = np.finfo(float).tiny


def trapezoid_grid() -> tuple[np.ndarray, np.ndarray]:
    """The grid of ``harmonic_moments`` and its widths, deduplicated by
    ``np.unique``."""
    dyadic = np.arange(2**16 + 1) / 2.0**16
    geometric = 1.0 - np.exp2(-np.arange(64, 3393) / 64.0)
    s = np.unique(np.concatenate((dyadic, geometric)))
    return s, np.diff(s)


def harmonic_walk(law: OffspringLaw) -> Iterator[float]:
    """h(y) for y = 1, 2, ..., with fresh arrays for every yielded bound and
    every trapezoid sum."""
    s, width = trapezoid_grid()
    probs = law.probs
    k_max = len(probs) - 1
    tails = np.cumsum(probs[::-1])[::-1][1:]
    up = 1.0 + 4 * k_max * _U
    down = 1.0 - 4 * k_max * k_max * _U
    inflate = 1.0 + (len(s) + 4) * _U
    t, u, v = s.copy(), 1.0 - s, s.copy()
    acc = np.empty_like(s)
    g = np.empty_like(s)
    for y in count(1):
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
        g[0] = law.p1**y * (1.0 + 4 * y * _U) + _TINY
        np.divide(bound[1:], s[1:], out=g[1:])
        yield 0.5 * float(np.sum(width * (g[:-1] + g[1:]))) * inflate


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
    if law.m <= 1.0:
        return math.inf
    if law.v == 0.0:
        return -math.inf
    level = math.log(law.v / (law.m * (law.m - 1.0))) - 2.0 * math.log(HANDOVER_REL_SD)
    return min(level, LOG_FLOAT_CAP)


def total_progeny(law: OffspringLaw, x: int, gen: np.random.Generator) -> tuple[ExtendedCount, ExtendedCount]:
    """(Z_x, S_x) of the branching process run x generations from one
    ancestor: exact generations up to the cap, then Gaussian noise
    Z' = max(m Z + sqrt(v Z) N, 1) one generation at a time up to
    :func:`handover_log`, then the remaining generations folded as
    sum_j Z m^j."""
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
        z_log = math.log(max(law.m * zf + math.sqrt(law.v * zf) * gen.standard_normal(), 1.0))
        s_log = float(np.logaddexp(s_log, z_log))
        k += 1
    if k < x:
        # the remaining noise cannot move a float: add sum_j Z m^j at once
        g = (x - k) * law.log_m
        fold = z_log + law.log_m + g + math.log1p(-math.exp(-g)) - math.log(law.m - 1.0)
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
    law = params.law
    xf = math.exp(x.log()) if x.log() < 709.0 else math.inf
    log_next = xf * law.log_m + law.log_fold + math.log(params.theta)
    return ExtendedCount.from_log(min(log_next, LOG_VALUE_LIMIT))


def trajectory(
    x0: int, params: IGWParams, horizon: int, threshold: ExtendedCount, gen: np.random.Generator
) -> tuple[TerminationKind, int]:
    """The verdict of one path from x0 and the step it was reached at."""
    state = ExtendedCount.exact(x0)
    for n in range(1, horizon + 1):
        state = step(state, params, gen)
        if state.exact_value == 0:
            return TerminationKind.DIED, n
        if not state < threshold:
            return TerminationKind.EXPLODED, n
    return TerminationKind.HORIZON, horizon


# -- the batched engine, one chunk at a time -----------------------------------------

_INT64_MAX = 2**63 - 1


def _log_of(exact: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(exact.astype(np.float64))


def _from_log(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logs = np.minimum(logs, LOG_VALUE_LIMIT)
    demote = logs <= LOG_EXACT_CAP
    exact = np.full(logs.shape, -1, np.int64)
    exact[demote] = np.rint(np.exp(logs[demote]))
    logs[demote] = _log_of(exact[demote])
    return exact, logs


def _states_below(exact: np.ndarray, logs: np.ndarray, count: ExtendedCount) -> np.ndarray:
    if count.is_exact and count.exact_value <= _INT64_MAX:
        return np.where(exact >= 0, exact < count.exact_value, logs < count.log())
    return logs < count.log()


def _next_generations(law: OffspringLaw, z: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    two = law.two_atoms
    if two is not None:
        a, b, pb = two
        return a * z + (b - a) * gen.binomial(z, pb)
    rows = max(1, 2**20 // law.probs_array.size)
    return np.concatenate([
        gen.multinomial(z[i:i + rows], law.probs_array) @ law.ks_array
        for i in range(0, z.size, rows)
    ])


def _point_mass_totals(law, pm: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    g = x[~exact_x].astype(np.float64) * law.log_m
    logs[~exact_x] = np.minimum(g + law.log_fold + np.log1p(-np.exp(-g)), LOG_VALUE_LIMIT)
    return s, logs


def _remainder_log(law, z_log: np.ndarray, left: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    log_mu, rho = _remainder_moments(law, left)
    noise = np.sqrt(rho * np.exp(-z_log)) * gen.standard_normal(left.size)
    with np.errstate(divide="ignore"):
        return z_log + log_mu + np.log1p(np.maximum(noise, -1.0))


def chunk_totals(law, x: np.ndarray, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """S_x for each entry of x: (exact values, -1 past the cap; logs).  The
    running arrays are compacted every generation; one Gaussian draw per
    replica for the rest of a sum that left the exact range."""
    if law.point_mass is not None:
        return _point_mass_totals(law, law.point_mass, x)
    s = np.zeros(x.size, np.int64)
    s_log = np.full(x.size, -np.inf)
    run, z = np.arange(x.size), np.ones(x.size, np.int64)
    rs, rl, left = s.copy(), s_log.copy(), x.copy()
    gauss = []
    while run.size:
        z = _next_generations(law, z, gen)
        left -= 1
        small = z <= DEFAULT_EXACT_CAP
        add = small & (rs >= 0)
        np.add(rs, z, out=rs, where=add)
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
        s_log[g] = np.logaddexp(s_log[g], _remainder_log(law, z_log, left, gen))
    exact = s >= 0
    s_log[exact] = _log_of(s[exact])
    s[~exact], s_log[~exact] = _from_log(s_log[~exact])
    return s, s_log


def chunk_step(law, theta: float, xi: np.ndarray, xl: np.ndarray, gen: np.random.Generator):
    """One transition for every replica of one chunk (all states nonzero)."""
    ni = np.empty_like(xi)
    nl = np.empty_like(xl)
    big = xi < 0
    if big.any():
        if law.m <= 1.0:
            raise RegimeError("log-tier states only arise from supercritical growth (m > 1)")
        with np.errstate(over="ignore"):
            log_next = np.exp(xl[big]) * law.log_m + (law.log_fold + math.log(theta))
        ni[big], nl[big] = _from_log(log_next)
    small = ~big
    if not small.any():
        return ni, nl
    si, sl = chunk_totals(law, xi[small], gen)
    if theta < 1.0:
        exact = si >= 0
        out = gen.binomial(si[exact], theta)
        si[exact] = out
        sl[exact] = _log_of(out)
        si[~exact], sl[~exact] = _from_log(sl[~exact] + math.log(theta))
    ni[small], nl[small] = si, sl
    return ni, nl


def simulate_chunk(
    x0: int, params: IGWParams, horizon: int, threshold: ExtendedCount, gen: np.random.Generator,
    size: int, *, record: bool = False,
) -> ChunkPaths:
    """``size`` paths of the chain from x0, all drawing from ``gen``, each
    until it dies, crosses ``threshold`` or reaches the horizon."""
    law = params.law
    theta = params.theta
    shift = law.log_fold + math.log(theta)
    start = ExtendedCount.exact(x0)
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
        ni, nl = chunk_step(law, theta, xi, xl, gen)
        died = ni == 0
        if record:
            with np.errstate(over="ignore"):
                y = np.where(xi >= 0, nl / xi, law.log_m + shift / np.exp(xl))
            y[died] = np.nan
            for rows, values, fill in (
                (rows_exact, ni, -1),
                (rows_log, nl, np.nan),
                (rows_ratio, y, np.nan),
            ):
                row = np.full(size, fill, values.dtype)
                row[live] = values
                rows.append(row)
        exploded = ~died & ~_states_below(ni, nl, threshold)
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


# -- the mean map --------------------------------------------------------------------


def chi(params: IGWParams, x: int) -> float:
    """E_x(X_1) = theta * (m + m^2 + ... + m^x); ``inf`` once that
    overflows."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 0.0
    m = params.law.m
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
    m = params.law.m
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
