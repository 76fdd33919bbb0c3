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

    Every step writes into arrays made once per walk, the yielded one
    included: a yielded bound holds until the next value is drawn.
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
    bound = np.empty_like(s)
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

        np.add(v, _U, out=bound)
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
    drawn.  g and the trapezoid cells live in buffers made once per walk.
    """
    if law.p0 > 0.0:
        raise RegimeError("harmonic moments via the pgf identity need p_0 = 0")
    s, width = _trapezoid_grid()
    inflate = 1.0 + (len(s) + 4) * _U
    g = np.empty_like(s)
    cells = np.empty_like(width)
    for y, f in enumerate(_iterates(law, s), start=1):
        g[0] = law.p1**y * (1.0 + 4 * y * _U) + _TINY
        np.divide(f[1:], s[1:], out=g[1:])
        np.add(g[:-1], g[1:], out=cells)
        np.multiply(width, cells, out=cells)
        yield 0.5 * float(np.sum(cells)) * inflate

