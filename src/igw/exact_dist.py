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
subtraction and no FFT.  A product of at most ``_DIRECT_MAX``
coefficients is one direct convolution, so kernel and certificate rows at
x_cap <= 1024 never split.

A row is summed term by term, p_0 + p_1 w + p_2 w^2 + ..., and for
y >= 0, x + y rounds to x where y < x 2^-54, less than half an ulp
(Higham, Accuracy and Stability of Numerical Algorithms, section 2.1).
With p_0 = 0 the mass of w below the cap falls like p_1^x and the terms
from w^2 on like its powers, so :func:`_compose` stops before w^k once no
term from k on can change a byte where it lands (:func:`_rounds_away`
bounds them, rounding included): the same row without the products, the
fixed-point stop of whole rows carried over to single terms.  binary:0.6
at cap 4096 takes 58 squares to x = 512, not 512.  A row cut before w^2
costs about one pass over its coefficients: w^1 is w itself, and one sum
of w screens the bound at every coefficient at once, so the prefix sums
of the full test are taken only where the screen fails, as in most kernel
rows.  Where the support has a gap, p_k = 0 between two support points,
the terms are tested once per gap, from the next support point on.

One successor loop composes every row from the one before
(:func:`_successors`) and stops at the float fixed point: a step reads
nothing but the bytes of the row before, so once :func:`_compose` returns
a row bit for bit, every later row is that row.  For pmf:0=0.2,2=0.8 at
theta = 1 and cap 4096 that is row 863 (measured, not a proven bound);
with p_0 = 0 the rows empty out.  Rows that are read again live in the
table of the last (law, theta, cap) asked for, which one reader grows on
demand (:func:`_row`): the law of S_x is the theta = 1 row at cap
``s_cap``, a one-step law the (theta, ``x_cap``) row, and the explosion
certificate reads the rows cut just above its exact region.  Each row is
one :class:`TruncatedDist`, stored once, so the table holds
min(x, fixed point) + 1 rows of cap + 1 floats.  The envelope kernels read
each row once, so they take the rows as a stream from the same loop and no
table is made for them.

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
theta = 0.92.  An envelope is built whole and then holds its two kernels
and its swept columns, nothing more: the kernels take
8 ((s + 1)^2 + (s + 2)^2) bytes, 4.17 MB for binary:0.6 at theta = 0.92
and x_cap = 512.  Building them holds the r live rows of x_cap + 1 floats
besides (2.1 MB there), one block of ``_BLOCK`` full-width rows and the
upper kernel's full-width columns s..x_cap, which the closure's first step
reads, never a full-width kernel.

Both envelope chains absorb at 0, so P_x(X_n = 0) = (K^n e_0)[x] for either
kernel K.  One backward sweep u <- K u from u = e_0 therefore answers every
start state x at once, at every horizon n >= 1.  Each column is swept alone
on from a cursor at the last step it reached, or again from its start for
an earlier horizon, so a loop over horizons holds two vectors per column.  A
column stops at its float fixed point, the first step that leaves it
bitwise unchanged: every later step returns the same vector, so every
longer horizon reads it, bit for bit as a sweep that never stops.  On
binary:0.6 at theta = 0.92 the lower death column freezes about 60 steps
into 256.  The upper end of the total death probability (p_0 = 0) adds a
third column swept on the upper kernel, the closure K^n c with c_y = q*^y for
y >= 1 and c_0 = 0.  It is kept apart from the upper death column, not
folded into one sweep of the vector (1, q*, q*^2, ...), so that the width
splits into the truncation (upper minus lower death column) and the
closure.  The two death columns need not round alike where the truncation
is invisible at float precision: ``R_lo`` has one row more than ``R_hi``,
and the matrix-vector product may round a row's dot product differently
with the shape, so the ends can differ by an ulp either way (at
pmf:2=0.5,3=0.5, theta = 0.45, x = 8 they do).  Neither end is rounded
outward yet; :func:`finite_horizon_death` orders the two ends, and the
total death interval takes its upper end at least at its lower one.

Kernel entries go down to ``KERNEL_FLOOR`` and column entries of deep states
to about 1e-198 or into the subnormal range, so many products R[i, j] v[j]
of a plain step would be subnormal, which the processor computes on a slow
path.  A sweep of at least ``_SHIFT_STATES`` states therefore takes each
step as w = 2^-k (R (2^k v)), k = ``_SHIFT`` = 1000.  Scaling by a power of
two is exact, so this is the plain step up to the rounding of w itself
where w is subnormal, and the column stays in the true frame.  Nothing
overflows: kernel and column entries are at most 1 and row sums at most
1 + 2.2e-14, so every scaled sum stays below 2^1001.  No product is
subnormal: an entry at least ``KERNEL_FLOOR`` (about 2^-664) times a
nonzero lifted column entry (at least 2^-74) is at least 2^-738, and the
smaller entries, all in the conservative column, meet the entry of state 0
(1, or 0 in the closure) or of the phantom (0 when p_0 = 0).  Smaller
sweeps step plainly: there a step is about 1 us of call overhead, which
the two scalings would more than double.  A step multiplies with
``ndarray.dot``, not ``@``: on a C-contiguous kernel and column both call
the same BLAS matrix-vector product, so the bytes are the same on every
BLAS kernel, and ``dot`` skips the ufunc dispatch of ``@``, about a third
of an 11-state step.  The closure's first step keeps ``@``: it reads a
column slice of ``R_hi``, which ``dot`` would first copy whole.

One quantity needs no truncation at all: P_x(X_1 = 0) = E((1-theta)^{S_x})
follows from the scalar recursion a_{j+1} = f(t * a_j) with t = 1 - theta,
exact to floating precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .reproduction_laws import IGWParams, OffspringLaw, RegimeError, fixed_point_q, pgf_eval

#: envelope-kernel entries below this are moved to the conservative column
#: (state 0 in the death-upper kernel, the phantom in the death-lower one),
#: which bounds the shift that keeps every product of a sweep step out of
#: the slow subnormal range (``_SHIFT``), and a row whose whole tracked mass
#: is below it ends the live rows.  Sound by monotonicity; each step moves
#: at most (x_cap + 1) * KERNEL_FLOOR of mass, so an interval at horizon n
#: moves outward by at most n * (x_cap + 1) * KERNEL_FLOOR at either end.
KERNEL_FLOOR = 1e-200

#: products keeping at most this many coefficients go to np.convolve whole:
#: every kernel row at x_cap <= 1024 and every row of the explosion
#: certificate (cut at its switch point, at most 1024) is rounded exactly as
#: the direct product rounds it; longer ones split (:func:`_mul_low`).
_DIRECT_MAX = 1025

#: :func:`_compose` tests whether the terms from w^k on round away
#: (:func:`_rounds_away`) only where they reach at least this many
#: coefficients: the test costs 15 to 25 us, about what a square of 256
#: coefficients and its sum cost, and a shorter product is cheaper than it.
_CUT_MIN = 256

#: envelope sweeps of at least _SHIFT_STATES states step on the column
#: scaled by 2^_SHIFT and scale the product back (:class:`_Column`).  Below
#: that a step is mostly call overhead: with no subnormal product, the two
#: scalings double a step of 65 states (1.5 to 3 us), and where products
#: are subnormal they already win at 60 states (binary:0.9999, theta = 0.9).
_SHIFT, _SHIFT_STATES = 1000, 64

#: the envelope kernels are assembled this many full-width rows at a time
#: (:func:`_assemble`), so no full-width matrix of all the states is built.
_BLOCK = 64


@dataclass(frozen=True)
class Caps:
    """Truncation bounds: generation size, total progeny, chain state.

    ``x_cap`` truncates the chain: one-step laws, kernel rows and every
    death interval are exact below it and read nothing else.  ``s_cap``
    caps the theta = 1 table, the law of S_x (:func:`total_progeny_dist`).
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
    """One row of a composition table: the law of X_1 from x (of S_x at
    theta = 1) on {0..cap}, plus ``overflow``, the mass beyond the cap;
    atoms.sum() + overflow = 1 up to float accumulation.  ``atoms`` is the
    read-only cap + 1 buffer the law was summed in (:func:`_compose`),
    shared with the table, so a caller copies it before mutating.  The
    support is ``coef`` = atoms[offset : offset + len(coef)] from the first
    to the last nonzero atom (empty, offset cap + 1, for an empty law).
    Only this module constructs the type."""

    atoms: np.ndarray
    overflow: float
    offset: int
    coef: np.ndarray

    @property
    def warning(self) -> Optional[str]:
        """Set to ``all-mass-in-overflow`` when no mass is left below the cap."""
        return "all-mass-in-overflow" if self.overflow > 1.0 - 1e-9 else None

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


# -- the composition table: the laws of S_x and of X_1 ---------------------------


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
    low = np.convolve(a[:h], b[:h])
    crosses = [_mul_low(high, other, n - h) for high, other in ((a[h:], b), (b[h:], a)) if len(high)]
    out = np.zeros(n)
    out[: len(low)] = low
    for cross in crosses:
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
    low = _sqr_low(a[:h], n)
    cross = _mul_low(a[:h], a[h:], n - h)
    high = _sqr_low(a[h:], n - 2 * h) if n > 2 * h else None
    out = np.zeros(min(n, 2 * len(a) - 1))
    out[: len(low)] = low
    out[h : h + len(cross)] += 2.0 * cross
    if high is not None:
        out[2 * h : 2 * h + len(high)] += high
    return out


def _rounds_away(law: OffspringLaw, k: int, w: np.ndarray, w_exp: int, reach: np.ndarray) -> bool:
    """Whether adding the terms p_j w^j, j >= k, of :func:`_compose`
    leaves ``reach`` bit for bit as it is: ``reach`` is the sum of the
    terms before them from u^(k w_off) on, where term k starts, and ``w``
    is w scaled by 2^-w_exp.  A screen from one sum of w bounds every
    coefficient at once; the running maxima and sums bound each one where
    it fails.  The proof is in :func:`_compose`."""
    n, K = len(reach), law.max_k
    floor = reach.min()
    if (3 * K + 10) * n > 2**50 or not floor > math.ldexp((K + 1) * (n + 1), -1014):
        return False
    w = w[:n]
    tail = 2.0 * law.tails[k]
    S = float(w.sum()) * (1.0 + n * 2.0**-52)  # the screen: M_r < 1 and S_r <= S for every r
    try:
        screen = S ** (k - 1) * tail * max(1.0, math.ldexp(S, w_exp)) ** (K - k)
        if math.ldexp(max(screen, 2.0**-1019), k * w_exp + 55) <= floor:
            return True
    except OverflowError:  # left to the prefix test
        pass
    total = np.add.accumulate(w)
    with np.errstate(over="ignore"):  # an infinite bound is no cut
        bound = np.maximum.accumulate(w)
        bound *= total if k == 2 else total ** (k - 1)
        bound *= tail * max(1.0, math.ldexp(float(total[-1]), w_exp)) ** (K - k)
        np.maximum(bound, 2.0**-1019, out=bound)
        np.ldexp(bound, k * w_exp + 55, out=bound)
    # past the end of w the largest entry and the sum stay as they are
    return bool((bound <= reach[: len(w)]).all()) and (
        len(w) == n or bool(bound[-1] <= reach[len(w) :].min())
    )


def _compose(law: OffspringLaw, prev: TruncatedDist, theta: float = 1.0) -> TruncatedDist:
    """Coefficients 0..cap of f(w) with w(u) = (1 - theta + theta*u) * prev(u)
    and cap = ``prev.cap``, as the sum of p_k * w^k: G_x from G_{x-1} at theta = 1 (w = u * G_{x-1}),
    and H_x from H_{x-1} below it.  The powers w^k start at k times the
    offset of w, so each one only needs the coefficients of w below
    cap + 1 - k * offset, and each product computes only the coefficients
    it keeps (:func:`_mul_low`); w^2 is a square (:func:`_sqr_low`) and
    w^1 is w itself.  The arrays are rescaled by exact powers of two, so
    the convolutions run near 1 and products of small probabilities stay
    out of the slow subnormal range: w has its largest entry in [1/2, 1),
    and w^1 is rescaled only where the cap cuts that entry off.

    From k = 2 on, the terms from w^k are left out once none of them can
    change a byte of the sum (:func:`_rounds_away`): the row is the same
    bytes without their products.  Each term is nonnegative, and for
    y >= 0, x + y rounds to x where y < x 2^-54, less than half an ulp of
    x, normal or subnormal; so it suffices that every term is below 2^-54
    of each entry it meets.

    * The bound.  At index r from where term k starts,
      (w^j)_r <= M_r S_r^(j-1), with M_r and S_r the largest entry and the
      sum of w_0..w_r: fix every factor but the last, which is at most M_r.
      Term j starts no earlier than term k, so every term j >= k is at
      most T_k M_r S_r^(k-1) max(1, S)^(K-k) there, with S the sum of
      w_0..w_(n-1), n the length of term k, and T_k = p_k + ... + p_K
      (``law.tails``).
    * Gaps.  Where p_k = ... = p_(j-1) = 0 < p_j, the terms from w^k are
      those from w^j and T_k = T_j, so the test at k is the test at j,
      from where term j starts.  At each coefficient its bound is at most
      that of the test at any k' in k..j: term k' meets the coefficient at
      an index r' >= r, and S_r^(j-1) <= S_r'^(k'-1) max(1, S)^(j-k').  So
      the test runs once per gap, at the first k after a support point, and
      where term j would start past the cap no term from k on lands.
    * Rounding.  A computed term exceeds its exact value by the relative
      error of at most K products of at most n coefficients (gamma_n
      each), of the multiply by p_j and of the bound's own arithmetic, a
      factor (1 + gamma_n)^(3K + 10) < 2 while (3K + 10) n <= 2^50; and by
      less than A = (K + 1)(n + 1) 2^-1069, which covers the products that
      underflow and the rescalings by powers of two into the subnormal
      range.
    * The test.  Twice the bound is at most 2^-55 of each entry, and A
      below 2^-55 of it, so every entry must exceed (K + 1)(n + 1) 2^-1014:
      a zero where term k reaches means no cut.  The bound is clamped
      below at 2^-1019 before its rescaling by 2^(k w_exp + 55), which
      only an underflow within it reaches; where the rescaled bound is
      subnormal, the true one is below 2^-1021, under every entry.
    * The screen.  Before the test, the bound at M_r = 1 and S_r = S' is
      compared with the least entry term k meets, for every r at once.  In
      w scaled below 1, M_r < 1, and S' = fl(s (1 + n 2^-52)), s the float
      sum of w_0..w_(n-1), is at least S: s >= S (1 - (n - 1) 2^-53) for n
      nonnegative terms, the product rounds down by less than a factor
      1 - 2^-53 where it is normal, and (1 - n 2^-53)(1 + n 2^-52) >= 1
      for n <= 2^52.  The screen's bound, taken by the same operations
      after the sum, is thus at least the test's at every r, and a passing
      screen passes the test.  Where S' is subnormal, S < 2^-1021 and
      every term is below 2^-2000, under the clamp.  The screen decides
      449 of the 454 cut rows of the law of S_x of binary:0.6 to x = 512;
      in a kernel row, where term k meets the row's whole lower tail, it
      mostly fails and the test runs.

    The test runs where term k reaches at least ``_CUT_MIN`` coefficients
    and T_k mass^(j-1) < 2^-54, j the next support point and
    mass = 1 - ``prev.overflow``: about what it needs at the last
    coefficient, so elsewhere it could rarely pass.

    The sum is taken in a zeroed cap + 1 buffer, which is marked read-only
    and kept as the law's ``atoms``, with its support found once here; a
    law with no mass below the cap keeps the zeros.  A row whose successor
    is itself, the empty law (the k = 0 term puts p_0 at 0, so only
    p_0 = 0 reaches one) or a row whose composed bytes equal
    ``prev.atoms``, is returned as ``prev``: the step reads only those
    bytes, so every later row is that float fixed point."""
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
    mass = 1.0 - prev.overflow  # that of w, for the pre-test
    power, p_off, p_exp, bounded = np.ones(1), 0, 0, 1  # w^0; no term from w^2 on bounded yet
    for k, p in enumerate(law.probs):
        if k > 0:
            p_off += w_off
            if p_off > cap:
                break
            n = cap + 1 - p_off
            if k > bounded:  # bound the terms from the next support point j on
                j = k
                while law.probs[j] == 0.0:
                    j += 1
                bounded, j_off = j, j * w_off
                if j_off > cap:
                    break
                tested = n >= _CUT_MIN and law.tails[j] * mass ** (j - 1) < 2.0**-54
                if tested and _rounds_away(law, j, w, w_exp, out[j_off:]):
                    break
            if k == 1:  # power is w, its largest entry in [1/2, 1) unless the cap cuts it off
                power, e_mul = w[:n], w_exp
            elif k == 2:  # power is w rescaled by 2^(p_exp - w_exp)
                power, e_mul = _sqr_low(power, n), p_exp
            else:
                power, e_mul = _mul_low(power, w, n), w_exp
            if k > 1 or n < len(w):
                _, e = math.frexp(float(power.max()))
                power, e_mul = np.ldexp(power, -e), e_mul + e
            p_exp += e_mul
        if p > 0.0:
            out[p_off : p_off + len(power)] += np.ldexp(p * power, p_exp)
    if out.tobytes() == prev.atoms.tobytes():
        return prev
    support = out != 0.0
    offset = int(support.argmax())
    if not support[offset]:  # the empty law: no coefficient, all mass beyond the cap
        offset = cap + 1
    out.flags.writeable = False
    coef = out[offset : cap + 1 - int(support[::-1].argmax())]
    return TruncatedDist(out, max(0.0, 1.0 - float(coef.sum())), offset, coef)


def _origin(cap: int) -> TruncatedDist:
    """H_0, the law of X_1 = 0 from x = 0, in a read-only cap + 1 buffer."""
    atoms = np.zeros(cap + 1)
    atoms[0] = 1.0
    atoms.flags.writeable = False
    return TruncatedDist(atoms, 0.0, 0, atoms[:1])


def _successors(law: OffspringLaw, theta: float, row: TruncatedDist) -> Iterator[TruncatedDist]:
    """The rows after ``row``, each composed from the one before
    (:func:`_compose`), ending with the first row returned as its own
    successor: that repeat is the float fixed point, every later row."""
    while True:
        prev, row = row, _compose(law, row, theta)
        yield row
        if row is prev:
            return


@lru_cache(maxsize=1)
def _table(law: OffspringLaw, theta: float, cap: int) -> list[TruncatedDist]:
    """The rows H_0, H_1, ... of (law, theta, cap) composed so far, for the
    last one asked for, seeded with :func:`_origin`.  The repeat that ends
    :func:`_successors` ends the table."""
    return [_origin(cap)]


def _row(law: OffspringLaw, theta: float, cap: int, x: int) -> TruncatedDist:
    """Row x of :func:`_table`, composed on demand; past the fixed point
    every x reads the fixed row itself."""
    rows = _table(law, theta, cap)
    if len(rows) <= x and (len(rows) == 1 or rows[-1] is not rows[-2]):
        rows.extend(islice(_successors(law, theta, rows[-1]), x + 1 - len(rows)))
    return rows[min(x, len(rows) - 1)]


def total_progeny_dist(
    law: OffspringLaw, x: int, z_cap: int = 4096, s_cap: int = 4096
) -> TruncatedDist:
    """Exact (truncated) law of S_x = Z_1 + ... + Z_x on 0..s_cap; ``z_cap``
    is accepted and ignored.

    This is the theta = 1 row of the composition table at cap ``s_cap``
    (:func:`_row`), returned itself with no copy: the same object as
    ``one_step_dist(x, IGWParams(law, 1.0), Caps(x_cap=s_cap))``."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if s_cap < 1:
        raise ValueError("s_cap must be >= 1")
    return _row(law, 1.0, s_cap, x)


def one_step_dist(x: int, params: IGWParams, caps: Caps = Caps()) -> TruncatedDist:
    """Law of X_1 from state x, the theta-thinning of S_x, on 0..x_cap.

    The atoms are exact up to float rounding and the overflow is the mass of
    X_1 beyond ``x_cap``.  The law is row x of the (law, theta, x_cap) table
    (:func:`_row`), read-only atoms and all, with no copy: a second call
    composes nothing, and past the table's fixed point no x composes more.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return _row(params.law, params.theta, caps.x_cap, x)


def one_step_death_prob(x: int, params: IGWParams) -> float:
    """P_x(X_1 = 0) = E((1-theta)^{S_x}), by the scalar recursion
    a_0 = 1, a_{j+1} = f(t * a_j) at t = 1 - theta; exact to float precision
    with no truncation of any kind.  Once a step returns a_j bit for bit,
    every later step does too, so the recursion stops there."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    t = 1.0 - params.theta
    a = 1.0
    for _ in range(x):
        a, previous = pgf_eval(params.law, t * a), a
        if a == previous:
            break
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
    states s..x_cap summed into column s, smallest term first: R_hi is
    (s + 1)^2 and R_lo, with the phantom last, (s + 2)^2.  ``tail`` holds
    the upper kernel's full-width columns s..x_cap of rows 0..s.

    The live rows come as a stream from :func:`_successors`, stopped at the
    float fixed point as the table stops, and no table row is read or
    kept: while the kernels are built this holds the r live rows, and
    after it only the three arrays it returns.  :func:`_assemble` fills the
    live rows of both kernels from one block of ``_BLOCK`` full-width rows
    at a time; every reduction is along a row, so the bytes are those of
    the whole full-width matrix floored and merged at once.  The shared and the
    phantom row are written here as flooring and merging leaves them, with
    p_0 taken as 0 below ``KERNEL_FLOOR``.
    """
    row = _origin(x_cap)
    rows = chain([row], _successors(params.law, params.theta, row))
    live, shared = [], 0.0  # the shared row is unused when no row is dead
    for _ in range(x_cap + 1):
        row = next(rows, row)  # past the fixed point every row is the fixed one
        mass = float(row.coef.sum())
        if mass < KERNEL_FLOOR:
            shared = mass
            break
        live.append(row)
    s = min(len(live), x_cap)  # row s is the shared row when r = s
    R_hi, R_lo = np.zeros((s + 1, s + 1)), np.zeros((s + 2, s + 2))
    tail = np.zeros((s + 1, x_cap + 1 - s))
    _assemble(R_hi, R_lo, tail, live, x_cap)
    if len(live) == s:
        R_hi[s, 0], R_hi[s, s], tail[s, -1], R_lo[s, -1] = shared, 1.0 - shared, 1.0 - shared, 1.0
    p0 = params.law.p0 if params.law.p0 >= KERNEL_FLOOR else 0.0
    R_lo[-1, 0], R_lo[-1, -1] = p0, 1.0 - p0
    return R_hi, R_lo, tail


def _assemble(
    R_hi: np.ndarray, R_lo: np.ndarray, tail: np.ndarray, live: list[TruncatedDist], x_cap: int
) -> None:
    """Fill the rows of the ``live`` states in both kernels on their
    distinct states 0..s, ``_BLOCK`` rows at a time.

    A block starts as the full-width rows of its states with a phantom
    column last: the atoms, and in the phantom column their lost mass,
    max(0, 1 - sum of the atoms), each worked out once for both kernels.
    The lower kernel reads the block as it is; the upper one then clamps
    the lost mass to x_cap, added to the atom there, and reads the block
    without its phantom column (:func:`_floor_merge`).  ``tail`` takes the
    upper kernel's columns s..x_cap."""
    s = len(R_hi) - 1
    for start in range(0, len(live), _BLOCK):
        block_rows = live[start : start + _BLOCK]
        K = np.zeros((len(block_rows), x_cap + 2))
        for k, row in enumerate(block_rows):
            K[k, row.offset : row.offset + len(row.coef)] = row.coef
            K[k, -1] = max(0.0, 1.0 - float(row.atoms.sum()))
        rows = slice(start, start + len(K))
        _floor_merge(R_lo[rows], K, x_cap + 1, s, x_cap)
        K[:, x_cap] += K[:, -1]
        _floor_merge(R_hi[rows], K[:, :-1], 0, s, x_cap, tail[rows])


def _floor_merge(
    block: np.ndarray, K: np.ndarray, col: int, s: int, x_cap: int, tail: Optional[np.ndarray] = None
) -> None:
    """Write the full-width rows ``K`` into ``block``, their rows of a
    kernel on the distinct states 0..s, leaving ``K`` as it is.

    Every entry below ``KERNEL_FLOOR`` moves into column ``col`` of its
    row, the columns of states s..x_cap are summed into column s, smallest
    term first, and a phantom column stays last; ``tail``, if given, takes
    columns s..x_cap before they are summed.  The floored rows are K minus
    its small entries, which is exact, taken in the buffer that held those
    entries; the sum sorts and accumulates in place, so this holds no more
    than one block beside ``K``."""
    small = K < KERNEL_FLOOR
    small[:, col] = False
    floored = np.where(small, K, 0.0)
    moved = floored.sum(axis=1)
    np.subtract(K, floored, out=floored)
    floored[:, col] += moved
    block[:, :s] = floored[:, :s]
    block[:, s + 1 :] = floored[:, x_cap + 1 :]
    merged = floored[:, s : x_cap + 1]
    if tail is not None:
        tail[:] = merged
    merged.sort(axis=1)
    np.cumsum(merged, axis=1, out=merged)
    block[:, s] = merged[:, -1]


class _Column:
    """R^n v for the horizons n asked for, swept backward by v <- R v.

    Two (step, vector) pairs are held, ``start`` and ``cursor``, the last
    step reached: a horizon at or past the cursor is swept on from it, an
    earlier one again from the start.  The sweep stops at ``frozen``, the
    first step that leaves the column bitwise unchanged (compared as bytes,
    so that -0.0 and NaN cannot pass for a fixed point): every later step
    returns the same vector, so every horizon from ``frozen`` on reads it.

    With ``shift`` = k > 0 a step is w = 2^-k (R (2^k v)): exact scalings
    that keep every product out of the subnormal range (see the module
    docstring) and round only a subnormal w.  Held vectors stay in the true
    frame, so the bytewise stop and every horizon mean the same as for the
    plain step.
    """

    def __init__(self, R: np.ndarray, v: np.ndarray, n: int = 0, shift: int = 0) -> None:
        self.R, self.shift = R, shift
        self.start = self.cursor = (n, v)
        self.frozen: Optional[int] = None

    def at(self, n: int) -> np.ndarray:
        if self.frozen is not None:
            n = min(n, self.frozen)
        m, v = self.cursor if n >= self.cursor[0] else self.start
        R, k = self.R, self.shift
        bits = v.tobytes()
        while m < n:
            m += 1
            if k:
                w = R.dot(np.ldexp(v, k))
                np.ldexp(w, -k, out=w)
            else:
                w = R.dot(v)
            w_bits = w.tobytes()
            if w_bits == bits:
                self.frozen = m
                break
            v, bits = w, w_bits
        self.cursor = (m, v)
        return v

    def frozen_by(self, n: int) -> Optional[int]:
        """The step <= n at which the column froze, or None; it is read
        after sweeping to n, so it does not depend on the cursor."""
        self.at(n)
        return self.frozen if self.frozen is not None and self.frozen <= n else None


class _Envelope:
    """The envelope kernels of one (law, theta, x_cap) and the columns
    swept backward from them, for every start state at once.

    The sweep steps only the s + 1 distinct states of :func:`_kernels`, on
    ``R_hi`` and ``R_lo``; state x reads entry min(x, s).  In real
    arithmetic this is the full-width sweep; only the rounding of the
    merged column differs.  No full-width kernel is kept.

    Each column is a :class:`_Column`, swept alone from its cursor to a
    horizon n >= 1 and stopped at its float fixed point.  ``lo`` and ``hi``
    sweep K_lo^n e_0 and K_hi^n e_0 on the distinct states: the lower and
    the upper end of P_x(X_n = 0).  Once the
    lower one freezes, no longer horizon can raise a lower end.  ``closure``
    sweeps K_hi^n c with c_y = q*^y for y >= 1 and c_0 = 0: it closes the
    mass still alive at horizon n by the fixed-point certificate.  c is not
    constant past s, so its first step, taken when the envelope is built,
    reads the full-width rows: the first s columns of ``R_hi`` and the
    ``tail`` of :func:`_kernels`, which is then dropped.  q* needs p_0 = 0;
    for p_0 > 0 there is no closure and ``closure`` is None.

    ``shift`` is ``_SHIFT`` when s + 1 >= ``_SHIFT_STATES`` and 0 below:
    every column, the closure's first step too, steps on its column scaled
    by 2^shift and scales the product back.  The kernels are not scaled.
    """

    def __init__(self, params: IGWParams, x_cap: int) -> None:
        self.R_hi, self.R_lo, tail = _kernels(params, x_cap)
        self.last = s = len(self.R_hi) - 1
        k = self.shift = _SHIFT if s + 1 >= _SHIFT_STATES else 0
        lo, hi = np.zeros(s + 2), np.zeros(s + 1)
        lo[0] = hi[0] = 1.0
        self.lo, self.hi = _Column(self.R_lo, lo, 0, k), _Column(self.R_hi, hi, 0, k)
        self.closure: Optional[_Column] = None
        if params.law.p0 == 0.0:
            c = np.ldexp(fixed_point_q(params) ** np.arange(x_cap + 1, dtype=float), k)
            c[0] = 0.0
            first = np.ldexp(self.R_hi[:, :s] @ c[:s] + tail @ c[s:], -k)
            self.closure = _Column(self.R_hi, first, 1, k)

    def read(self, n: int, x: int, *columns: _Column) -> tuple[tuple[float, ...], tuple[Optional[int], ...]]:
        """Entry x of each column at horizon n >= 1, and its frozen_by(n)."""
        j = min(x, self.last)
        return tuple(float(c.at(n)[j]) for c in columns), tuple(c.frozen_by(n) for c in columns)


#: the one envelope kept, keyed by its (params, x_cap)
_slot: dict[tuple[IGWParams, int], _Envelope] = {}


def _envelope(params: IGWParams, x_cap: int) -> _Envelope:
    """The envelope of the last (params, x_cap) asked for: every caller
    reads one at a time and never goes back to an earlier one.  It holds
    its two kernels, at most 2 x 8 (x_cap + 2)^2 bytes, and its columns,
    and no composed row: the (law, theta, x_cap) table is not made for it.
    The slot is emptied before the next envelope is built, so a theta
    sweep never holds two."""
    key = (params, x_cap)
    if key not in _slot:
        _slot.clear()
        _slot[key] = _Envelope(params, x_cap)
    return _slot[key]


class DeathIntervalDetail(NamedTuple):
    """A death interval and where its width comes from.

    ``truncation`` is the upper minus the lower death column at x, the mass
    whose fate the truncation at x_cap leaves open at the horizon (a few
    ulps below 0 where that is invisible at float precision); ``closure``
    is the closure column at x, the mass still alive at the horizon, closed
    by q*^y (0.0 for a finite horizon); ``swept_states`` is the number s + 1
    of distinct states the envelope steps, s = min(r, x_cap) with r the
    first dead row, 0 when nothing is swept (theta = 1); ``frozen`` holds
    the steps <= horizon at which the lower death, the upper death and the
    closure column stopped changing, None for a column that did not (or is
    not swept)."""

    interval: IntervalProb
    truncation: float
    closure: float
    swept_states: int
    frozen: tuple[Optional[int], Optional[int], Optional[int]]


def finite_horizon_detail(
    x: int, params: IGWParams, n: int, caps: Caps = Caps()
) -> DeathIntervalDetail:
    """Certified enclosure of P_x(X_n = 0), with the parts of its width:
    no closure, so ``closure`` is 0.0 and the closure's frozen step None."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if not 0 <= x <= caps.x_cap:
        raise ValueError(f"start state {x} outside the tracked range 0..{caps.x_cap}")
    env = _envelope(params, caps.x_cap)
    (lo, hi), (lo_frozen, hi_frozen) = env.read(n, x, env.lo, env.hi)
    iv = IntervalProb(min(lo, hi), max(lo, hi))
    return DeathIntervalDetail(iv, hi - lo, 0.0, env.last + 1, (lo_frozen, hi_frozen, None))


def finite_horizon_death(
    x: int, params: IGWParams, n: int, caps: Caps = Caps()
) -> IntervalProb:
    """Certified enclosure of P_x(X_n = 0): the interval of
    :func:`finite_horizon_detail`."""
    return finite_horizon_detail(x, params, n, caps).interval


def death_interval_detail(
    x: int, params: IGWParams, caps: Caps = Caps(), horizon: int = 256
) -> DeathIntervalDetail:
    """Certified enclosure of the total death probability P_x(D), with the
    parts of its width.

    Defined in the mixed regime (p_0 = 0, p_1 != 1) at horizons >= 1 (at 0
    it is [0, q*^x], the bound of ``geometric_death_bound``).  Without
    thinning the chain cannot die, so theta = 1 gives [0, 0].  The lower end
    is the never-dying-overflow envelope at the horizon (finite-horizon
    death increases to P_x(D)); the upper end closes the still-alive mass
    with the fixed-point certificate q*^y, using q*^{x_cap} for clamped
    mass, which degenerates to 1 when m*theta <= 1.
    """
    law = params.law
    if law.p0 > 0.0:
        raise RegimeError("death intervals target the p_0 = 0 regime (use the absorption check)")
    if law.p1 == 1.0:
        raise RegimeError("single-child laws form a pure thinning chain; no mixed regime")
    if not 1 <= x <= caps.x_cap:
        raise ValueError(f"start state {x} outside the tracked range 1..{caps.x_cap}")
    if horizon < 1:
        raise ValueError(f"horizon {horizon} must be >= 1")
    if params.theta == 1.0:
        return DeathIntervalDetail(IntervalProb(0.0, 0.0), 0.0, 0.0, 0, (None, None, None))
    env = _envelope(params, caps.x_cap)
    (lo, hi, closure), frozen = env.read(horizon, x, env.lo, env.hi, env.closure)
    iv = IntervalProb(lo, max(lo, min(1.0, hi + closure)))
    return DeathIntervalDetail(iv, hi - lo, closure, env.last + 1, frozen)


def death_prob_interval(
    x: int, params: IGWParams, caps: Caps = Caps(), horizon: int = 256
) -> IntervalProb:
    """Certified enclosure of the total death probability P_x(D): the
    interval of :func:`death_interval_detail`."""
    return death_interval_detail(x, params, caps, horizon).interval
