"""The certified harmonic walk of the branching layer.

Harmonic moments come from one pass, :func:`harmonic_moments`: it advances
outward-rounded iterates of the generating function one generation per
value (:func:`_iterates`) and yields certified upper bounds on E(1/Z_y)
for y = 1, 2, ..., which the explosion certificate of :mod:`igw.analysis`
reads.  The pass starts on the fine grid of :func:`_trapezoid_grid`, where
a bound exceeds E(1/Z_y) by at most 2**-35 * (E(Z_y) - 1).  Once the fine
cells below s* = 1 - 2**-10 provably add at most 2**-36 * (E(Z_y) - 1) more
if dropped, at this and at every later value, it keeps only the coarse
subset of :func:`_coarse_grid`.  Every value up to that switch keeps the
bytes of the fine grid, and the excess of every later one is at most
2**-35 * (E(Z_y) - 1) plus 2**-36 * (E(Z_y) - 1).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count
from typing import Generator, Iterator, Optional

import numpy as np

from .reproduction_laws import OffspringLaw, RegimeError

#: unit roundoff of a float64 operation rounded to nearest, and the
#: smallest normal float.
_U = 2.0**-53
_TINY = np.finfo(float).tiny

#: s*: the coarse grid keeps every fine point from here to 1
_S_STAR = 1.0 - 2.0**-10


def _merged_points(dyadic: np.ndarray, geometric: np.ndarray) -> np.ndarray:
    """The distinct points of both arrays, ascending: by a sort and a
    neighbour mask, the steps ``np.unique`` takes, since ``np.unique``
    itself imports ``numpy.ma`` on its first call."""
    s = np.sort(np.concatenate((dyadic, geometric)))
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


@lru_cache(maxsize=1)
def _trapezoid_grid() -> tuple[np.ndarray, np.ndarray]:
    """The fine grid of :func:`harmonic_moments` and its cell widths.

    The dyadic points k / 2**16 on [0, 1] together with 1 - 2**(-j/64) for
    j = 64..3392: 64 points per octave of 1 - s, from 1/2 down to 2**-53,
    the spacing of the floats just below 1, where g rises steeply; 68,523
    distinct floats in all.  Below 1/2 every point is a multiple of
    2**-16, and from 1/2 on neighbours lie within a factor two of each
    other, so every width and every 1 - s is exact.  Cells are at most
    2**-16 wide, which bounds the excess of the trapezoid sum by
    2**-35 * (E(Z_y) - 1) (:func:`harmonic_moments`).  Built on first
    use, not at import.
    """
    s = _merged_points(np.arange(2**16 + 1) / 2.0**16, 1.0 - np.exp2(-np.arange(64, 3393) / 64.0))
    return s, np.diff(s)


def _coarse_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coarse subset C of the fine grid that :func:`harmonic_moments`
    keeps after its switch: its indices into the fine grid, its points and
    its cell widths.

    C holds the fine points at or above s* = 1 - 2**-10, and below s* the
    geometric points 1 - 2**(-j/64) and the multiples of 2**-10: 4,074 of
    the 68,523.  The points below s*, made as the fine grid makes them,
    are found in it by ``searchsorted``, so that no grid-sized temporary
    is made beside the walk's fine buffers, and by the numpy kernels the
    fine grid and the walk already ran, so that the switch loads no code
    that raises the peak resident size.  Cells below s* are at most
    2**-10 wide.  Every width and every 1 - s stays exact: below 1/2 both
    ends are multiples of 2**-16, and from 1/2 on neighbours lie within a
    factor two of each other (Sterbenz).  Built at each switch, in tens
    of microseconds, and dropped with the walk.
    """
    s, _ = _trapezoid_grid()
    below = _merged_points(np.arange(2**10 - 1) / 2.0**10, 1.0 - np.exp2(-np.arange(64, 640) / 64.0))
    keep = np.concatenate((np.searchsorted(s, below), np.arange(np.searchsorted(s, _S_STAR), len(s))))
    coarse = s[keep]
    return keep, coarse, np.diff(coarse)


def _upper_step(probs: tuple[float, ...], up: float, t: np.ndarray, acc: np.ndarray) -> None:
    """One upward-rounded step t <- phi(t) of :func:`_iterates`, in place,
    with ``acc`` as scratch: the Horner sum of f at t, inflated by ``up``,
    raised by the smallest normal float and clamped at 1."""
    acc.fill(probs[-1])
    for p in reversed(probs[:-1]):
        acc *= t
        if p:
            acc += p
    acc *= up
    acc += _TINY
    np.minimum(acc, 1.0, out=t)


def _iterates(law: OffspringLaw, s: np.ndarray) -> Generator[np.ndarray, Optional[np.ndarray], None]:
    """Upper bounds on f_y(s) for y = 1, 2, ..., the iterates of the
    generating function of a law on {1..K}, at ascending points s in
    [0, 1] whose 1 - s is exact; each value advances them by one
    generation.  Sending an ascending index array ``keep`` instead of
    drawing the next value keeps only the points s[keep] from then on:
    each point's iterate advances alone, so their values keep their
    bytes.

    Each point is bounded twice and the smaller bound kept:

    * in s, by Horner iterates rounded upward (:func:`_upper_step`): f is
      increasing, and each step (at most 2K + 1 roundings) is inflated by
      1 + 4K * 2**-53, raised by the smallest normal float to cover
      underflow and clamped at 1,
    * in u = 1 - s, by a lower bound on u_y = 1 - f_y(s), iterated
      downward through u -> 1 - f(1 - u) = u * sum_{i<K} T_{i+1} (1 - u)^i
      with the tail sums T_j = sum_{k>=j} p_k; every term is nonnegative,
      and each step (at most 4K - 2 roundings) is deflated by
      1 - 4K^2 * 2**-53.  This is the accurate one near s = 1, where
      f_y(s) is 1 up to a tiny u_y.  (1 - u) + 2**-53 bounds 1 - u from
      above: the subtraction errs by at most 2**-54, and the addition
      then rounds to a value no smaller than 1 - u.

    The second bound is left off the prefix of points whose upper iterate
    t is at most 2**-53, where it cannot win, with the same bytes:

    * The upper step phi is monotone: its coefficients are nonnegative
      and rounding is monotone.  So t stays nondecreasing along the
      ascending s, and one ``searchsorted`` finds the prefix.
    * If phi(2**-53) <= 2**-53, no point ever leaves the prefix.  That is
      checked once per walk, by :func:`_upper_step` itself on a one-entry
      array holding 2**-53: the same operations in the same order.  Where
      it fails (p_1 so near 1 that phi inflates 2**-53), no prefix is
      taken.
    * On the prefix, fl(v + 2**-53) >= 2**-53 >= t for any v = 1 - u >= 0,
      so the bound there is t itself, and u and v are never read again.
      The scratch ``acc`` already holds it there: the upper step leaves
      in it t before the clamp at 1, and t < 1 on the prefix.

    The upper step itself is left off the shorter prefix where t is the
    smallest normal float 2**-1022, when phi maps 2**-1022 to itself (a
    check made once per walk, as for 2**-53: it holds where p_1 = 0).
    t >= 2**-1022 everywhere, so with t nondecreasing those points form a
    prefix, and each stays at 2**-1022 for good; stepping them would only
    repeat Horner products of subnormal floats.  ``acc`` is refilled with
    2**-1022 there every step, since the caller may have overwritten it.

    Every step writes into the four arrays made once per walk (t, u,
    v = 1 - u and ``acc``), or once more at a ``keep``, which replaces
    them.  The yielded bound is ``acc``: it holds until the next value is
    drawn, and the caller may overwrite it, as the next step reads nothing
    of it.
    """
    probs = law.probs
    k_max = len(probs) - 1
    tails = np.cumsum(probs[::-1])[::-1][1:]  # T_1..T_K
    up = 1.0 + 4 * k_max * _U
    down = 1.0 - 4 * k_max * k_max * _U
    probe = np.full(1, _U)
    _upper_step(probs, up, probe, np.empty(1))
    closed = bool(probe[0] <= _U)  # phi(2**-53) <= 2**-53: the prefix never shrinks
    probe.fill(_TINY)
    _upper_step(probs, up, probe, np.empty(1))
    fixed = bool(probe[0] == _TINY)  # phi(2**-1022) = 2**-1022
    t = s.copy()
    u = 1.0 - s
    v = s.copy()  # 1 - u, exact on the grid
    acc = np.empty_like(s)
    p = 0  # the prefix where t <= 2**-53
    while True:
        q = int(np.searchsorted(t, _TINY, side="right")) if fixed else 0  # where t = 2**-1022
        _upper_step(probs, up, t[q:], acc[q:])
        acc[:q] = _TINY
        if closed:
            p = int(np.searchsorted(t, _U, side="right"))
        u_s, v_s, acc_s = u[p:], v[p:], acc[p:]  # past the prefix
        acc_s.fill(tails[-1])
        for tail in tails[-2::-1]:
            acc_s *= v_s
            acc_s += tail
        acc_s *= u_s
        acc_s *= down
        np.minimum(acc_s, 1.0, out=u_s)
        np.subtract(1.0, u_s, out=v_s)

        np.add(v_s, _U, out=acc_s)
        np.minimum(t[p:], acc_s, out=acc_s)
        keep = yield acc
        if keep is not None:
            t, u, v = t[keep], u[keep], v[keep]
            acc = np.empty_like(t)


def harmonic_moments(law: OffspringLaw) -> Iterator[float]:
    """Certified upper bounds h(y) on E(1/Z_y) for y = 1, 2, ..., for a law
    that cannot die out (p_0 = 0, so Z_y >= 1), in one pass over the
    iterates of :func:`_iterates`.

    E(1/Z_y) = integral_0^1 g(s) ds with g(s) = f_y(s)/s, f_y the y-fold
    iterate of the generating function.  With p_0 = 0,
    g(s) = sum_n P(Z_y = n) s^(n-1) has nonnegative coefficients, so g is
    nondecreasing and convex and every chord lies above it: the trapezoid
    rule on any grid is an upper bound, and no error estimate is needed.
    On a cell [a, b] the chord exceeds the integral of g by at most
    (b - a)(g(b) - g(a))/2, and by at most (b - a)^2/12 times the rise of
    g' over the cell.  On the fine grid of ``_trapezoid_grid`` (cells at
    most 2**-16 wide) the sum thus exceeds the integral by at most
    2**-35 * (E(Z_y) - 1), as g'(1) - g'(0) <= E(Z_y) - 1.

    The switch.  After value Y the walk keeps only the coarse grid of
    ``_coarse_grid`` if 2**-11 * g_Y(s*) <= 2**-36 * (E(Z_Y) - 1), tested
    with both sides rounded against the switch: g_Y(s*) by the next float
    above the computed g at s*, E(Z_Y) = m^Y by a product rounded down
    from below the mean m.  Then:

    * The values on the coarse points keep their bytes (``_iterates``).
    * Below s* each coarse cell merges fine cells; its chord, at most
      2**-10 wide, exceeds the integral of g over it by at most
      2**-11 * (g(b) - g(a)), and these rises add up to at most g(s*).
      From s* on the cells are the fine ones.  So dropping the fine cells
      adds at most 2**-11 * g_y(s*).
    * With p_0 = 0, f(s) <= s, so f_{y+1}(s) = f_y(f(s)) <= f_y(s) and
      g_y(s*) is nonincreasing in y, while 2**-36 * (E(Z_y) - 1) grows
      (m >= 1).  Once the test holds it holds at every later value, and
      the switch never has to be undone.

    So a value after the switch exceeds E(1/Z_y) by at most
    2**-35 * (E(Z_y) - 1) + 2**-36 * (E(Z_y) - 1).  On laws with m - 1
    near 1e-16 the right side stays below the left, and the walk never
    switches.

    Rounding cannot break the bound: f_y(s) is bounded above by
    ``_iterates``, g(0) = p_1^y is inflated for rounding, and the final
    sum of nonnegative terms (at most N + 2 roundings on N grid points) by
    1 + (N + 4) * 2**-53.  The p_0 check runs when the first value is
    drawn.  g is taken in place in the yielded bound, and the trapezoid
    cells live in one buffer made once per grid: with the four of
    ``_iterates`` and the grid's two, a walk holds seven grid-sized arrays.
    After the switch its own five are coarse, beside the coarse grid's
    three; the fine grid stays cached for the next walk.
    """
    if law.p0 > 0.0:
        raise RegimeError("harmonic moments via the pgf identity need p_0 = 0")
    s, width = _trapezoid_grid()
    star = int(np.searchsorted(s, _S_STAR))  # 0 once switched
    # below the mean: fsum of the products k * p_k, each rounded, errs by
    # at most a factor (1 + 2**-53)**2, and the product here rounds down
    mean = law.m * (1.0 - 4 * _U)
    mean_y = 1.0  # at most E(Z_y)
    walk = _iterates(law, s)
    cells = np.empty_like(width)
    keep = None
    for y in count(1):
        g = walk.send(keep)
        keep = None
        g[0] = law.p1**y * (1.0 + 4 * y * _U) + _TINY
        np.divide(g[1:], s[1:], out=g[1:])
        np.add(g[:-1], g[1:], out=cells)
        np.multiply(width, cells, out=cells)
        yield 0.5 * float(np.sum(cells)) * (1.0 + (len(s) + 4) * _U)
        if star:
            mean_y = math.nextafter(mean_y * mean, -math.inf)
            # 2**-11 g <= 2**-36 (E(Z_y) - 1), both sides scaled by 2**11,
            # exactly: a positive E(Z_y) - 1 rounded down is at least 2**-53
            g_star = math.nextafter(float(g[star]), math.inf)
            if g_star <= 2.0**-25 * math.nextafter(mean_y - 1.0, -math.inf):
                del g, cells  # no fine buffer held here past the send that replaces them
                keep, s, width = _coarse_grid()
                cells = np.empty_like(width)
                star = 0
