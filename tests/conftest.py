"""Shared test helpers: an exact rational enumeration oracle for small
branching systems, independent of the production pgf composition; the
first step of the batched simulator; and one generator as the streams of
a batch of one chunk."""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest

from igw import ExtendedCount, IGWParams, OffspringLaw, simulate_chunks
from igw.igw_process import _Streams


def law_fractions(law: OffspringLaw) -> dict[int, Fraction]:
    """The pmf as exact fractions; only sensible for dyadic-ish test laws."""
    return {
        k: Fraction(p).limit_denominator(10**9)
        for k, p in enumerate(law.probs)
        if p > 0.0
    }


def enumerate_joint(
    probs: dict[int, Fraction], x: int, cap: int | None = None
) -> dict[tuple[int, int], Fraction]:
    """Exact joint law of (Z_x, S_x), by per-parent composition.

    Deliberately naive: the offspring total of z parents is folded in one
    parent at a time with rational arithmetic, so it shares nothing with the
    generating-function composition it oracles.  With ``cap``, states whose
    total exceeds ``cap`` are dropped (totals never decrease), which keeps
    the law of S_x exact on 0..cap.
    """
    folds: list[dict[int, Fraction]] = [{0: Fraction(1)}]  # folds[z]: total of z parents

    def offspring_total(z: int) -> dict[int, Fraction]:
        while len(folds) <= z:
            nxt: dict[int, Fraction] = defaultdict(Fraction)
            for tot, q in folds[-1].items():
                for k, pk in probs.items():
                    if cap is None or tot + k <= cap:
                        nxt[tot + k] += q * pk
            folds.append(dict(nxt))
        return folds[z]

    states: dict[tuple[int, int], Fraction] = {(1, 0): Fraction(1)}
    for _ in range(x):
        new: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        for (z, s), p in states.items():
            for zp, q in offspring_total(z).items():
                if cap is None or s + zp <= cap:
                    new[(zp, s + zp)] += p * q
        states = new
    return dict(states)


def enumerate_total_progeny(
    probs: dict[int, Fraction], x: int, cap: int | None = None
) -> dict[int, Fraction]:
    out: dict[int, Fraction] = defaultdict(Fraction)
    for (_z, s), p in enumerate_joint(probs, x, cap).items():
        out[s] += p
    return dict(out)


def first_states(
    x: int, params: IGWParams, n: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(exact, log) of X_1 from x for n replicas, as one chunk of the
    batched engine; exact is -1 for a log-tier state.  At theta = 1,
    X_1 = S_x, and from x = 1 it is one offspring draw."""
    paths = simulate_chunks(x, params, 1, ExtendedCount.from_log(1e20), [gen], [n], record=True)[0]
    return paths.exact[1], paths.log[1]


def streams_of(gen: np.random.Generator, n: int) -> _Streams:
    """The streams of n entries that all belong to one chunk drawing from
    ``gen``, as the engine's inner steps take them."""
    return _Streams((gen,), np.zeros(n, np.intp))


@st.composite
def small_laws(draw, max_k: int = 4, allow_p0: bool = True):
    """Random laws on {0..max_k} with eighths-grid probabilities."""
    low = 0 if allow_p0 else 1
    weights = draw(
        st.lists(st.integers(0, 8), min_size=max_k + 1, max_size=max_k + 1)
    )
    weights = [0] * low + weights[low:]
    if sum(weights) == 0:
        weights[low + 1] = 1
    total = sum(weights)
    return OffspringLaw(tuple(w / total for w in weights))


@pytest.fixture(scope="session")
def binary_half() -> OffspringLaw:
    return OffspringLaw.binary(0.5)
