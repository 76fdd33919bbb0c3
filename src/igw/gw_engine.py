"""The certified harmonic walk of the branching layer.

Harmonic moments come from one pass, :func:`harmonic_moments`: it advances
outward-rounded iterates of the generating function one generation per
value (:func:`_iterates`, on the fixed grid of :func:`_trapezoid_grid`)
and yields certified upper bounds on E(1/Z_y) for y = 1, 2, ..., which the
explosion certificate of :mod:`igw.analysis` reads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .reproduction_laws import OffspringLaw, RegimeError

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
    not at import.  Repeated points go by a sort and a neighbour mask, the
    steps ``np.unique`` takes, since ``np.unique`` itself imports
    ``numpy.ma`` on its first call.
    """
    dyadic = np.arange(2**16 + 1) / 2.0**16
    geometric = 1.0 - np.exp2(-np.arange(64, 3393) / 64.0)
    s = np.sort(np.concatenate((dyadic, geometric)))
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return s, np.diff(s)


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


def _iterates(law: OffspringLaw, s: np.ndarray) -> Iterator[np.ndarray]:
    """Upper bounds on f_y(s) for y = 1, 2, ..., the iterates of the
    generating function of a law on {1..K}, at ascending points s in
    [0, 1] whose 1 - s is exact; each value advances them by one
    generation.

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

    Every step writes into the four arrays made once per walk (t, u,
    v = 1 - u and ``acc``).  The yielded bound is ``acc``: it holds until
    the next value is drawn, and the caller may overwrite it, as the next
    step reads nothing of it.
    """
    probs = law.probs
    k_max = len(probs) - 1
    tails = np.cumsum(probs[::-1])[::-1][1:]  # T_1..T_K
    up = 1.0 + 4 * k_max * _U
    down = 1.0 - 4 * k_max * k_max * _U
    probe = np.full(1, _U)
    _upper_step(probs, up, probe, np.empty(1))
    closed = bool(probe[0] <= _U)  # phi(2**-53) <= 2**-53: the prefix never shrinks
    t = s.copy()
    u = 1.0 - s
    v = s.copy()  # 1 - u, exact on the grid
    acc = np.empty_like(s)
    p = 0  # the prefix where t <= 2**-53
    while True:
        _upper_step(probs, up, t, acc)
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
        yield acc


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
    drawn.  g is taken in place in the yielded bound, and the trapezoid
    cells live in one buffer made once per walk: with the four of
    ``_iterates`` and the grid's two, a walk holds seven grid-sized arrays.
    """
    if law.p0 > 0.0:
        raise RegimeError("harmonic moments via the pgf identity need p_0 = 0")
    s, width = _trapezoid_grid()
    inflate = 1.0 + (len(s) + 4) * _U
    cells = np.empty_like(width)
    for y, g in enumerate(_iterates(law, s), start=1):
        g[0] = law.p1**y * (1.0 + 4 * y * _U) + _TINY
        np.divide(g[1:], s[1:], out=g[1:])
        np.add(g[:-1], g[1:], out=cells)
        np.multiply(width, cells, out=cells)
        yield 0.5 * float(np.sum(cells)) * inflate
