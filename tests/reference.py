"""The progeny route to the envelope kernels, kept as a test oracle.

Row x is the theta-thinning of the tracked law of S_x, read through the
Pascal binomial table.  Totals beyond ``s_cap`` thin like the stochastically
smallest count consistent with them, Binomial(s_cap + 1, theta), in the
upper kernel and go to the phantom in the lower one.  It shares the law of
S_x and the binomial table with the package, but not the thinned
composition of the kernel rows.
"""

from __future__ import annotations

import numpy as np

from igw import Caps, IGWParams, IntervalProb
from igw.analysis import fixed_point_q
from igw.exact_dist import _floor_into, _progeny_laws, binomial_table


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
