import math
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from igw import (
    Caps,
    IGWParams,
    IntervalProb,
    OffspringLaw,
    RegimeError,
    death_prob_interval,
    finite_horizon_death,
    one_step_death_prob,
    one_step_dist,
    parse_law_spec,
    pgf_eval,
    total_progeny_dist,
)
from igw import explosion_lower_bound, fixed_point_q
import igw.exact_dist as exact_dist
from igw.cli import main
from igw.exact_dist import KERNEL_FLOOR, _envelope, _kernels, _row, _slot, _table

import reference
from conftest import enumerate_total_progeny, law_fractions, small_laws

SMALL_CAPS = Caps(256, 256, 64)


def _numpy_bytes(snapshot: tracemalloc.Snapshot) -> int:
    """Bytes the snapshot traces in numpy's domain, its array buffers: the
    interpreter's own blocks, which free lists keep after a loop, are left
    out, so a held-memory bound needs no slack for them."""
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    return sum(trace.size for trace in snapshot.filter_traces(numpy_only).traces)


class TestTotalProgenyDist:
    def test_binary_half_two_generations(self, binary_half):
        dist = total_progeny_dist(binary_half, 2)
        expected = {2: 0.25, 3: 0.25, 4: 0.125, 5: 0.25, 6: 0.125}
        assert dist.overflow == 0.0
        for s, p in expected.items():
            assert abs(dist.atoms[s] - p) <= 1e-12
        assert abs(dist.atoms.sum() - 1.0) <= 1e-12

    def test_unit_law_point_mass(self):
        dist = total_progeny_dist(OffspringLaw.explicit({1: 1.0}), 7)
        assert dist.atoms[7] == pytest.approx(1.0, abs=1e-15)
        assert dist.overflow == 0.0

    def test_zero_generations(self, binary_half):
        dist = total_progeny_dist(binary_half, 0)
        assert dist.atoms[0] == 1.0

    def test_deterministic_beyond_cap(self):
        dist = total_progeny_dist(OffspringLaw.explicit({2: 1.0}), 3, 4096, 10)
        assert dist.overflow == pytest.approx(1.0, abs=1e-12)
        assert dist.warning == "all-mass-in-overflow"

    @settings(max_examples=25, deadline=None)
    @given(small_laws(max_k=2))
    def test_matches_enumeration_oracle(self, law):
        for x in (1, 2, 3):
            expected = enumerate_total_progeny(law_fractions(law), x)
            dist = total_progeny_dist(law, x, 64, 64)
            for s in range(65):
                want = float(expected.get(s, Fraction(0)))
                assert abs(dist.atoms[s] - want) <= 1e-12

    def test_total_conservation(self, binary_half):
        for x in (1, 5, 9):
            dist = total_progeny_dist(binary_half, x, 128, 128)
            assert dist.total() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spec", ["binary:0.5", "pmf:0=0.2,2=0.8", "pmf:1=0.3,2=0.3,5=0.4"])
    def test_matches_tree_enumeration(self, spec):
        # atoms and overflow at s_cap = 64 against exact rational enumeration
        law = parse_law_spec(spec)
        for x in range(1, 6):
            expected = enumerate_total_progeny(law_fractions(law), x, cap=64)
            dist = total_progeny_dist(law, x, s_cap=64)
            want = np.array([float(expected.get(s, Fraction(0))) for s in range(65)])
            assert np.abs(dist.atoms - want).max() <= 1e-12, (spec, x)
            beyond = float(1 - sum(expected.values(), Fraction(0)))
            assert abs(dist.overflow - beyond) <= 1e-12, (spec, x)

    @pytest.mark.parametrize("spec", ["binary:0.6", "pmf:0=0.2,2=0.8", "pmf:1=0.3,2=0.3,5=0.4"])
    def test_truncation_is_exact(self, spec):
        # coefficients up to the cap never depend on the cap
        law = parse_law_spec(spec)
        for x in (1, 3, 8, 20):
            small = total_progeny_dist(law, x, s_cap=64)
            big = total_progeny_dist(law, x, s_cap=512)
            np.testing.assert_allclose(small.atoms, big.atoms[:65], rtol=1e-14, atol=0.0)
            beyond = float(big.atoms[65:].sum()) + big.overflow
            # the two sides sum different numbers of terms
            assert small.overflow == pytest.approx(beyond, abs=1e-13)

    def test_mass_accounting_to_x_cap(self):
        # each atom is a sum of at most s_cap + 1 nonnegative rounded terms;
        # the budget allows s_cap + 1 ulps of 1 in the total mass
        law = parse_law_spec("binary:0.6")
        budget = 4097 * np.finfo(float).eps
        for x in range(513):
            dist = total_progeny_dist(law, x)
            assert dist.atoms.min() >= 0.0 and dist.overflow >= 0.0, x
            assert abs(dist.atoms.sum() + dist.overflow - 1.0) <= budget, x

    def test_composition_table_is_bounded(self):
        # S_x of binary:lambda for 8 lambda to x = 64: the buffers held
        # afterwards are those of the last table, 65 rows of 1025 floats,
        # not those of eight tables
        laws = [OffspringLaw.binary(0.3 + 0.05 * i) for i in range(8)]
        _table.cache_clear()
        tracemalloc.start()
        try:
            start = _numpy_bytes(tracemalloc.take_snapshot())
            for law in laws:
                total_progeny_dist(law, 64, s_cap=1024)
            held = _numpy_bytes(tracemalloc.take_snapshot()) - start
        finally:
            tracemalloc.stop()
        rows = _table(laws[-1], 1.0, 1024)
        assert len(rows) == 65 and _table.cache_info().currsize == 1
        assert held <= sum({id(row.atoms): row.atoms.nbytes for row in rows}.values()) == 65 * 1025 * 8

    def test_point_mass_law_is_fast(self):
        # binary:1 always has two children, so S_x = 2^(x+1) - 2 is a single
        # coefficient at every step; s_cap 4099 keeps the cache cold here
        law = parse_law_spec("binary:1")
        start = time.perf_counter()
        dist = total_progeny_dist(law, 512, s_cap=4099)
        assert time.perf_counter() - start < 0.1
        assert dist.overflow == 1.0 and dist.atoms.sum() == 0.0
        assert total_progeny_dist(law, 11, s_cap=4099).atoms[4094] == 1.0

    def test_empty_law_is_its_own_successor(self):
        # S_x >= 2^(x+1) - 2 here: once all mass is beyond s_cap (p_0 = 0)
        # every later law is one empty object, with no support and all its
        # mass in overflow; the table stops there and holds the empty law
        # once more as its end
        offspring = parse_law_spec("pmf:2=0.5,3=0.5")
        laws = [_row(offspring, 1.0, 4093, x) for x in range(513)]
        first = next(x for x, law in enumerate(laws) if not len(law.coef))
        assert first <= 12
        assert laws[first - 1].coef.size
        empty = laws[first]
        assert (empty.offset, empty.overflow) == (4094, 1.0)
        assert all(law is empty for law in laws[first:])
        assert _table(offspring, 1.0, 4093)[first:] == [empty, empty]

    @settings(max_examples=40, deadline=None)
    @given(small_laws(), st.integers(1, 4), st.sampled_from([1.0, 0.5]))
    def test_composed_rows_hold_p0_at_zero(self, law, cap, theta):
        # the k = 0 term: with p_0 > 0 no composed law is empty, so only
        # p_0 = 0 laws reach the empty-law exit of _compose
        assume(law.p0 > 0.0)
        for x in range(1, 16):
            assert _row(law, theta, cap, x).atoms[0] >= law.p0

    def test_atoms_are_the_stored_law(self):
        # a second call returns the cached buffer itself, and neither the
        # law of S_x nor a one-step law can be written through its atoms
        law = parse_law_spec("binary:0.6")
        dist = total_progeny_dist(law, 5)
        assert total_progeny_dist(law, 5).atoms is dist.atoms
        for x in (0, 5):
            for atoms in (
                total_progeny_dist(law, x).atoms,
                one_step_dist(x, IGWParams(law, 0.8), SMALL_CAPS).atoms,
            ):
                with pytest.raises(ValueError):
                    atoms[0] = 0.5

    @pytest.mark.parametrize("spec, x", [("pmf:2=0.5,3=0.5", 20), ("pmf:2=0.5,3=0.5", 512), ("binary:1", 20)])
    def test_empty_laws_are_read_only_zeros(self, spec, x):
        # a law with no mass below s_cap keeps the s_cap + 1 zeros it was
        # summed in, read-only as every row's atoms are
        empty = total_progeny_dist(parse_law_spec(spec), x, s_cap=4093)
        zeros = empty.atoms
        assert len(zeros) == 4094 and not zeros.any() and not zeros.flags.writeable
        assert (empty.offset, empty.overflow, len(empty.coef)) == (4094, 1.0, 0)
        assert empty.warning == "all-mass-in-overflow" and empty.total() == 1.0
        with pytest.raises(ValueError):
            zeros[0] = 0.5

    def test_held_laws_allocate_nothing_beside_the_cache(self):
        # holding S_1..S_512 of binary:0.6 costs the table's 512 buffers of
        # 4097 floats (16.8 MB) and nothing more: the laws returned are those
        # buffers, not dense copies
        law = parse_law_spec("binary:0.6")
        tracemalloc.start()
        try:
            _row(law, 1.0, 4096, 512)
            cache, _ = tracemalloc.get_traced_memory()
            held = [total_progeny_dist(law, x) for x in range(1, 513)]
            grown = tracemalloc.get_traced_memory()[0] - cache
        finally:
            tracemalloc.stop()
        assert len(held) == 512 and grown < 512 * 1024


def _fixed_point(law: OffspringLaw, theta: float, cap: int) -> int:
    """The first x whose row is its own successor, read off the end of the
    (law, theta, cap) table after growing it far past that row."""
    rows = _table(law, theta, cap)
    _row(law, theta, cap, 100_000)
    assert len(rows) >= 2 and rows[-1] is rows[-2], "no fixed point"
    return len(rows) - 2


def _closure_rows(params: IGWParams, x_cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R_hi, tail, c): the full-width rows the closure's first step reads,
    the first s columns of ``R_hi`` and ``tail``, and the vector c_y = q*^y
    for y >= 1, c_0 = 0, on 0..x_cap."""
    R_hi, _, tail = _kernels(params, x_cap)
    c = fixed_point_q(params) ** np.arange(x_cap + 1, dtype=float)
    c[0] = 0.0
    return R_hi, tail, c


class TestCompositionTable:
    """One table per (law, theta, cap), stopped at its float fixed point."""

    @settings(max_examples=40, deadline=None)
    @given(small_laws(), st.integers(1, 64), st.sampled_from([1.0, 0.5]))
    def test_rows_past_the_fixed_point_are_the_composed_ones(self, law, cap, theta):
        # the direct composition never stops and, at caps below _DIRECT_MAX,
        # rounds as _compose does: every row of the stopped table, to three
        # times the fixed point, is its row byte for byte
        assume(law.p0 > 0.0)
        _table.cache_clear()
        fixed = _fixed_point(law, theta, cap)
        direct = reference.direct_rows(law, theta, cap)
        for x in range(3 * fixed + 2):
            row, want = _row(law, theta, cap, x), next(direct)
            assert row.atoms.tobytes() == want.atoms.tobytes(), x
            assert row.overflow.hex() == want.overflow.hex(), x

    def test_law_of_s_x_stops_at_its_fixed_point(self, monkeypatch):
        law = parse_law_spec("pmf:0=0.2,2=0.8")
        calls, compose = [], exact_dist._compose

        def counted(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(exact_dist, "_compose", counted)
        _table.cache_clear()
        dist = total_progeny_dist(law, 20000)
        rows = _table(law, 1.0, 4096)
        fixed = rows.index(dist)
        # the returned law is the first row that is its own successor
        assert compose(law, dist).atoms.tobytes() == dist.atoms.tobytes()
        assert rows[fixed - 1].atoms.tobytes() != dist.atoms.tobytes()
        assert rows[fixed:] == [dist, dist] and fixed < 1000
        assert len(calls) <= fixed + 1

    @pytest.mark.parametrize("spec", ["binary:0.6", "pmf:0=0.2,2=0.8", "pmf:2=0.5,3=0.5"])
    def test_law_of_s_x_is_the_theta_one_row(self, spec):
        law = parse_law_spec(spec)
        for cap in (64, 512):
            for x in (0, 1, 7, 64, 300, 3000):
                one_step = one_step_dist(x, IGWParams(law, 1.0), Caps(x_cap=cap))
                assert total_progeny_dist(law, x, s_cap=cap) is one_step, (cap, x)

    def test_second_read_composes_nothing(self, monkeypatch):
        params, caps = IGWParams(parse_law_spec("pmf:0=0.2,2=0.8"), 0.7), Caps(x_cap=512)
        row, fixed = one_step_dist(100, params, caps), one_step_dist(10**6, params, caps)

        def forbidden(*args):
            raise AssertionError("composed again")

        monkeypatch.setattr(exact_dist, "_compose", forbidden)
        assert one_step_dist(100, params, caps) is row
        # past the fixed point every state reads the fixed row
        assert one_step_dist(10**9, params, caps) is fixed
        assert one_step_dist(_fixed_point(params.law, 0.7, 512), params, caps) is fixed


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the relative error bound of a sum of n
    nonnegative products in float arithmetic (Higham, section 3.1)."""
    u = 2.0**-53
    return n * u / (1.0 - n * u)


def _operand(rng: np.random.Generator, size: int, wide: bool) -> np.ndarray:
    """Random nonnegative coefficients, small integers or floats from 1
    down to 1e-250, with an all-zero block."""
    a = 10.0 ** -rng.uniform(0.0, 250.0, size) if wide else rng.integers(0, 10, size).astype(float)
    if size > 3:
        start = int(rng.integers(0, size - 2))
        a[start : start + size // 3] = 0.0
    return a


def _exact_low(a: np.ndarray, b: np.ndarray, n: int) -> list[Fraction]:
    """Coefficients 0..n-1 of a*b in rational arithmetic, as many as
    np.convolve(a[:n], b[:n])[:n] returns."""
    fa, fb = [Fraction(float(v)) for v in a[:n]], [Fraction(float(v)) for v in b[:n]]
    out = [Fraction(0)] * min(n, len(fa) + len(fb) - 1)
    for i, ai in enumerate(fa):
        for j, bj in enumerate(fb[: len(out) - i]):
            out[i + j] += ai * bj
    return out


def _check_low(got: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> None:
    """``got`` has the length and zero pattern of the direct product, and
    every coefficient lies within gamma_n of the exact one; each of the n
    products that may underflow adds at most 2^-1075 more."""
    direct = np.convolve(a[:n], b[:n])[:n]
    assert len(got) == len(direct)
    np.testing.assert_array_equal(got == 0.0, direct == 0.0)
    gamma, slack = Fraction(_gamma(n)), Fraction(n) * Fraction(2) ** -1075
    for i, (g, e) in enumerate(zip(got, _exact_low(a, b, n))):
        assert abs(Fraction(float(g)) - e) <= gamma * e + slack, i


class TestShortProducts:
    # (len(a), len(b), n): odd and even n, unequal lengths, operands shorter
    # than n, and n at and below the base case of the split
    CASES = [(9, 9, 9), (10, 10, 10), (13, 7, 12), (5, 6, 12), (8, 6, 12), (1, 20, 20),
             (3, 3, 3), (4, 4, 4), (40, 33, 37), (64, 64, 64)]

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("la, lb, n", CASES)
    def test_mul_low_against_exact_products(self, monkeypatch, la, lb, n, wide):
        monkeypatch.setattr(exact_dist, "_DIRECT_MAX", 4)  # the split runs from n = 5
        rng = np.random.default_rng([la, lb, n, wide])
        a, b = _operand(rng, la, wide), _operand(rng, lb, wide)
        _check_low(exact_dist._mul_low(a, b, n), a, b, n)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("la, n", [(la, n) for la, _, n in CASES] + [(9, 20), (20, 40)])
    def test_sqr_low_against_exact_products(self, monkeypatch, la, n, wide):
        monkeypatch.setattr(exact_dist, "_DIRECT_MAX", 4)
        rng = np.random.default_rng([la, n, wide])
        a = _operand(rng, la, wide)
        _check_low(exact_dist._sqr_low(a, n), a, a, n)

    def test_all_zero_low_half(self, monkeypatch):
        monkeypatch.setattr(exact_dist, "_DIRECT_MAX", 4)
        a, b = np.arange(1.0, 21.0), np.arange(1.0, 21.0)
        a[:10] = 0.0
        _check_low(exact_dist._mul_low(a, b, 20), a, b, 20)
        _check_low(exact_dist._sqr_low(a, 20), a, a, 20)
        _check_low(exact_dist._mul_low(b, a, 20), b, a, 20)

    @pytest.mark.parametrize("la, lb, n", [(1025, 1025, 1025), (1026, 1026, 1026), (2100, 2100, 2100),
                                           (2051, 1900, 2051), (3000, 1500, 2600), (1500, 1400, 4096)])
    def test_full_size_against_direct_product(self, la, lb, n):
        # at the module's own base case, against the float direct product:
        # both lie within gamma_n of the exact sums
        rng = np.random.default_rng([la, lb, n])
        a, b = _operand(rng, la, True), _operand(rng, lb, True)
        bound = 2.0 * _gamma(n)
        slack = n * 2.0**-1074
        for got, want in ((exact_dist._mul_low(a, b, n), np.convolve(a[:n], b[:n])[:n]),
                          (exact_dist._sqr_low(a, n), exact_dist._mul_low(a, a, n)),
                          (exact_dist._sqr_low(a, n), np.convolve(a[:n], a[:n])[:n])):
            assert len(got) == len(want)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= bound * want + slack)


class TestDirectComposition:
    @pytest.mark.parametrize("spec", ["binary:0.6", "pmf:1=0.3,2=0.3,5=0.4"])
    def test_progeny_law_matches_direct_composition(self, spec):
        # pmf:1=0.3,2=0.3,5=0.4 reaches w^5, so long short products run too
        law = parse_law_spec(spec)
        direct = list(islice(reference.direct_rows(law, 1.0, 4096), 513))
        for x in (1, 2, 64, 512):
            dist = total_progeny_dist(law, x, s_cap=4096)
            want = direct[x].atoms
            np.testing.assert_array_equal(dist.atoms == 0.0, want == 0.0)
            nz = want > 0.0
            assert np.all(np.abs(dist.atoms[nz] - want[nz]) <= 1e-13 * want[nz]), x
            assert abs(dist.overflow - direct[x].overflow) <= 1e-12, x

    @pytest.mark.parametrize(
        "spec, theta", [("binary:0.6", 0.92), ("pmf:2=0.5,3=0.5", 0.7), ("pmf:1=0.3,2=0.3,5=0.4", 0.6)]
    )
    def test_kernel_rows_are_the_direct_ones(self, monkeypatch, spec, theta):
        # every product of a row at x_cap = 512 is short enough to be taken
        # whole, so the envelopes, and with them every interval, keep the
        # direct route's rounding bit for bit
        params = IGWParams(parse_law_spec(spec), theta)
        kernels = _kernels(params, 512)
        monkeypatch.setattr(exact_dist, "_compose", reference.direct_compose)
        _table.cache_clear()
        try:
            direct = _kernels(params, 512)
        finally:
            _table.cache_clear()  # no direct row outlives the patch
        for got, want in zip(kernels, direct):
            assert np.array_equal(got, want)


def _uncut_steps(law: OffspringLaw, theta: float, cap: int, rows: int) -> int:
    """Compose up to ``rows`` rows of (law, theta, cap) from H_0, each step by
    ``_compose`` and by the reference's uncut step on the same row, and
    assert that both give the same bytes, overflow and offset, and the same
    fixed point."""
    row = exact_dist._origin(cap)
    for x in range(1, rows + 1):
        got, want = exact_dist._compose(law, row, theta), reference.uncut_compose(law, row, theta)
        assert got.atoms.tobytes() == want.atoms.tobytes(), x
        assert (got.overflow.hex(), got.offset) == (want.overflow.hex(), want.offset), x
        assert (got is row) == (want is row), x
        if want is row:
            return
        row = want


def _products_per_row(monkeypatch, law: OffspringLaw, theta: float, cap: int, rows: int) -> dict[str, int]:
    """Compose up to ``rows`` rows of (law, theta, cap) by ``_compose`` and by
    the reference's per-term step on the same row, and assert that no row
    of the package forms a product (a top-level ``_mul_low`` or
    ``_sqr_low``) that the per-term step skips.  Returns the calls of each
    side's test of the terms that round away."""
    depth, products, tests = [0], {}, {"package": 0, "reference": 0}

    def counted(side, fn, tally):
        def wrapped(*args):
            if tally is tests or not depth[0]:  # a product's halves are not counted
                tally[side] += 1
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return wrapped

    for module, side in ((exact_dist, "package"), (reference, "reference")):
        for name in ("_mul_low", "_sqr_low"):
            monkeypatch.setattr(module, name, counted(side, getattr(module, name), products))
    monkeypatch.setattr(exact_dist, "_rounds_away", counted("package", exact_dist._rounds_away, tests))
    monkeypatch.setattr(reference, "prefix_rounds_away",
                        counted("reference", reference.prefix_rounds_away, tests))
    row = exact_dist._origin(cap)
    for x in range(1, rows + 1):
        products.update(package=0, reference=0)
        got, want = exact_dist._compose(law, row, theta), reference.per_term_compose(law, row, theta)
        assert got.atoms.tobytes() == want.atoms.tobytes(), x
        assert products["package"] <= products["reference"], x
        if want is row:
            break
        row = want
    monkeypatch.undo()
    return tests


#: laws with and without a one-child atom, with p_0 > 0, with a gap in the
#: support, a lone high term (K = 50) and a one-child atom far below any
#: other term
CUT_LAWS = ["binary:0.6", "binary:0.5", "binary:0.9", "binary:0.01", "binary:1", "pmf:1=0.3,2=0.3,5=0.4",
            "pmf:0=0.2,2=0.8", "pmf:2=0.5,3=0.5", "pmf:1=0.99,50=0.01", "pmf:1=1e-300,2=1.0",
            "pmf:1=0.5,3=0.25,4=0.25", "pmf:0=0.1,1=0.5,2=0.4"]


#: more laws on {0, k} for the oracle, with their caps: subcritical,
#: critical and supercritical, and k = 4, whose w^4 takes a square and
#: two short products
OTTER_LAWS = {"pmf:0=0.7,2=0.3": 2048, "pmf:0=0.5,2=0.5": 2048, "pmf:0=0.6,3=0.4": 2048, "pmf:0=0.4,4=0.6": 1536}


class TestOtterOracle:
    """The law of S_inf = Z_1 + Z_2 + ... against the hitting-time formula
    (``reference.otter_row``), at caps where the top-level products split."""

    @pytest.mark.parametrize("spec", ["pmf:0=0.25,2=0.75", "pmf:0=0.5,3=0.5", "pmf:0=0.2,2=0.8", *OTTER_LAWS])
    def test_formula_is_the_enumerated_law(self, spec):
        # the oracle itself, against the naive enumeration on the floats'
        # exact values: both round the same rationals once
        law = parse_law_spec(spec)
        exact = enumerate_total_progeny({k: Fraction(p) for k, p in enumerate(law.probs) if p > 0.0}, 14, cap=12)
        assert reference.otter_row(law, 12).tolist() == [float(exact.get(n, 0)) for n in range(13)]

    @pytest.mark.parametrize("spec, cap", [("pmf:0=0.25,2=0.75", 2048), ("pmf:0=0.5,3=0.5", 4096),
                                           ("pmf:0=0.2,2=0.8", 2048), *OTTER_LAWS.items()])
    def test_law_of_s_inf(self, spec, cap):
        # atoms n <= x - 2 are final, so row cap + 2 is S_inf's law on 0..cap
        assert cap > exact_dist._DIRECT_MAX
        law = parse_law_spec(spec)
        want = reference.otter_row(law, cap)
        got = total_progeny_dist(law, cap + 2, s_cap=cap).atoms
        _table.cache_clear()
        _assert_within_tree_roundings(law, got, want)

    @pytest.mark.parametrize("spec", ["pmf:0=0.2,2=0.8", "pmf:0=0.4,4=0.6"])
    def test_rows_before_the_fixed_point(self, spec):
        # a row x that is not yet the fixed row, composed by split products
        # at s_cap 1536, holds its atoms n <= x - 2 whole: each counts every
        # tree of n + 1 nodes
        law = parse_law_spec(spec)
        want = reference.otter_row(law, 1536)
        last = total_progeny_dist(law, 1538, s_cap=1536)
        for x in (64, 128):
            row = total_progeny_dist(law, x, s_cap=1536)
            assert row is not last and not np.array_equal(row.atoms, last.atoms), x
            _assert_within_tree_roundings(law, row.atoms[: x - 1], want[: x - 1])
        _table.cache_clear()


def _assert_within_tree_roundings(law: OffspringLaw, got: np.ndarray, want: np.ndarray) -> None:
    """Atoms 0..len(want)-1 of the law of S_inf, as composed, against the
    oracle's ``want``: the same zeros, and every other atom within the
    rounding of the products that make it."""
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    assert want[want > 0.0].min() > 1e-210
    # Atom n sums one product of p's per plane tree of n + 1 nodes.  A
    # node with k children and m <= n descendants adds it through the
    # coefficient m of w^k, k - 1 products of at most m + 1 nonnegative
    # terms each, so (k - 1)(m + 1) roundings, and one more for the
    # multiply by p_k; the leaves' p_0, the rescalings by powers of two
    # and the add to the row's 0 are exact, away from underflow (every
    # atom is above 1e-210, as asserted).  A tree has n/k such nodes, so
    # each of its products carries at most R_n = (n/k)((k - 1)(n + 1) + 1)
    # roundings, and the row lies within gamma_{R_n} of the exact atom.
    # The oracle lies within u of it, and gamma_{R_n + 2} covers both.
    k = law.two_atoms[1]
    n = np.arange(len(want))
    bound = _gamma((n // k) * ((k - 1) * (n + 1) + 1) + 2)
    assert np.all(np.abs(got - want) <= bound * want)


class _Watched(np.ndarray):
    """An array that records the ufunc methods applied to it in ``ops``
    and computes them on plain arrays."""

    ops: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Watched.ops.append((ufunc.__name__, method))
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestRoundedAwayTerms:
    """``_compose`` stops at the terms that cannot change a byte of the row:
    every row, overflow and offset is that of the uncut step."""

    @pytest.fixture
    def tests_run(self, monkeypatch):
        # the answer of every call of _rounds_away, in order
        answers, rounds_away = [], exact_dist._rounds_away

        def recorded(*args):
            answers.append(rounds_away(*args))
            return answers[-1]

        monkeypatch.setattr(exact_dist, "_rounds_away", recorded)
        return answers

    @pytest.mark.parametrize("spec", CUT_LAWS)
    def test_every_row_is_the_uncut_one(self, monkeypatch, spec):
        # as composed at caps 300 and 512 (theta = 1 reaches the length
        # gate only there), and with the gate off at every row of the small
        # caps 8 and 100
        law = parse_law_spec(spec)
        thetas, rows = (1.0, 0.95, 0.8, 0.6, 0.45), 150 if law.max_k > 5 else 300  # K = 50: 50 products a row
        for theta in thetas:
            _uncut_steps(law, theta, 512 if theta == 1.0 else 300, rows)
        monkeypatch.setattr(exact_dist, "_CUT_MIN", 0)
        for theta in thetas:
            for cap in (8, 100):
                _uncut_steps(law, theta, cap, rows * 2 // 3)

    @pytest.mark.parametrize("spec, theta, cap, rows", [
        ("binary:0.6", 1.0, 4096, 512), ("binary:0.6", 0.8, 4096, 100), ("binary:0.6", 0.92, 2048, 700),
        ("pmf:1=0.3,2=0.3,5=0.4", 1.0, 2048, 300),
    ])
    def test_split_products_are_the_uncut_ones(self, spec, theta, cap, rows):
        # caps past _DIRECT_MAX: the products the cut skips would split
        _uncut_steps(parse_law_spec(spec), theta, cap, rows)

    @settings(max_examples=40, deadline=None)
    @given(small_laws(max_k=6), st.integers(1, 160), st.sampled_from([1.0, 0.9, 0.5]))
    def test_drawn_laws(self, law, cap, theta):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_dist, "_CUT_MIN", 0)
            _uncut_steps(law, theta, cap, 120)

    @pytest.mark.parametrize("spec, k", [("binary:0.5", 2), ("pmf:1=0.5,3=0.5", 3)])
    def test_terms_at_the_rounding_boundary(self, tests_run, spec, k):
        # w = u (a + b u + ... + b u^299) at cap 300, a = 2^-100 its largest
        # entry: term k adds p_k a^k to p_1 b where it starts, and its bound
        # is that sum there, while its other coefficients are far smaller.
        # With b = 1.37 a^k 2^t, t = 40..70, the uncut step changes the row
        # up to t = 52, and the cut drops the term from t = 56 on: there
        # 2 T_k a^k is at most 2^-55 of p_1 b.
        law, a = parse_law_spec(spec), 2.0**-100
        changed = []
        for t in range(40, 71):
            atoms = np.full(301, 1.37 * a**k * 2.0**t)
            atoms[0], atoms[-1] = a, 0.0
            prev = exact_dist.TruncatedDist(atoms, 1.0 - float(atoms.sum()), 0, atoms[:-1])
            got, want = exact_dist._compose(law, prev), reference.uncut_compose(law, prev)
            assert got.atoms.tobytes() == want.atoms.tobytes(), t
            changed.append(want.atoms[k] != 0.5 * atoms[1])
        assert changed == [t <= 52 for t in range(40, 71)]
        assert tests_run.count(True) == 70 - 56 + 1

    @pytest.mark.parametrize("spec, k", [("binary:0.5", 2), ("pmf:1=0.5,3=0.5", 3)])
    def test_screen_at_the_rounding_boundary(self, monkeypatch, spec, k):
        # the rows above with a just below 2^-99, so that w's largest entry
        # scales to just below 1: there the screen's bound, at M_r = 1 and
        # S_r = S, is within a factor 1 + 2^-20 of the test's where term k
        # starts.  The screen decides from t = 56 on, as the test does, and
        # never where the uncut step changes the row (up to t = 52)
        law, a = parse_law_spec(spec), math.nextafter(2.0**-99, 0.0)
        screened, rounds_away = [], exact_dist._rounds_away

        def watched(law, j, w, w_exp, reach):
            _Watched.ops.clear()
            answer = rounds_away(law, j, w.view(_Watched), w_exp, reach)
            screened.append(answer and ("add", "accumulate") not in _Watched.ops)
            return answer

        monkeypatch.setattr(exact_dist, "_rounds_away", watched)
        changed = []
        for t in range(40, 71):
            atoms = np.full(301, 1.37 * a**k * 2.0**t)
            atoms[0], atoms[-1] = a, 0.0
            prev = exact_dist.TruncatedDist(atoms, 1.0 - float(atoms.sum()), 0, atoms[:-1])
            got, want = exact_dist._compose(law, prev), reference.uncut_compose(law, prev)
            assert got.atoms.tobytes() == want.atoms.tobytes(), t
            changed.append(want.atoms[k] != 0.5 * atoms[1])
            assert len(screened) == len(changed) and not (changed[-1] and screened[-1]), t
        assert changed == [t <= 52 for t in range(40, 71)]
        assert screened == [t >= 56 for t in range(40, 71)]

    @pytest.mark.parametrize("theta, cap", [(1.0, 4096), (0.92, 512)])
    def test_cut_row_forms_no_product(self, monkeypatch, tests_run, theta, cap):
        # binary:0.6 at x = 200: the terms from w^2 on round away, and w^1
        # is w itself, so the row takes no convolution at all
        law = parse_law_spec("binary:0.6")
        prev = _row(law, theta, cap, 199)
        _table.cache_clear()
        tests_run.clear()

        def forbidden(*args):
            raise AssertionError("a cut row formed a product")

        for module, name in ((exact_dist, "_mul_low"), (exact_dist, "_sqr_low"), (np, "convolve")):
            monkeypatch.setattr(module, name, forbidden)
        got = exact_dist._compose(law, prev, theta)
        assert tests_run == [True]
        monkeypatch.undo()
        want = reference.uncut_compose(law, prev, theta)
        assert got is not prev and got.atoms.tobytes() == want.atoms.tobytes()

    @pytest.mark.parametrize("spec", ["pmf:1=1", "binary:0.5", "pmf:1=0.5,3=0.25,4=0.25"])
    def test_first_power_cut_below_its_largest_entry(self, monkeypatch, spec):
        # a row that doubles up to its last atom, at the cap: w^1 keeps w up
        # to the entry before it, so its largest entry is 0.25, half of w's,
        # and w^1 is rescaled by 2 (the second frexp) before it is added and
        # squared
        law, cap, offset = parse_law_spec(spec), 300, 5
        atoms = np.zeros(cap + 1)
        atoms[offset:] = 0.5 ** np.arange(cap + 1 - offset, 0, -1)
        prev = exact_dist.TruncatedDist(atoms, 1.0 - float(atoms.sum()), offset, atoms[offset:])
        maxima = []

        class CountedMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def frexp(self, x):
                maxima.append(x)
                return math.frexp(x)

        monkeypatch.setattr(exact_dist, "math", CountedMath())
        got = exact_dist._compose(law, prev)
        monkeypatch.undo()
        assert maxima[:2] == [0.5, 0.25]
        want = reference.uncut_compose(law, prev)
        assert got.atoms.tobytes() == want.atoms.tobytes()
        assert (got.overflow.hex(), got.offset) == (want.overflow.hex(), want.offset)

    @pytest.mark.parametrize("spec", CUT_LAWS)
    def test_one_test_per_gap(self, monkeypatch, spec):
        # the test runs once per gap of the support, and no row forms a
        # product that the test before every power skips; on
        # pmf:1=0.99,50=0.01 it runs 237 times where that test ran 2769
        law = parse_law_spec(spec)
        rows = 150 if law.max_k > 5 else 300
        tests = {"package": 0, "reference": 0}
        for theta in (1.0, 0.95, 0.8, 0.45):
            calls = _products_per_row(monkeypatch, law, theta, 512 if theta == 1.0 else 300, rows)
            for side in tests:
                tests[side] += calls[side]
        assert tests["package"] <= tests["reference"]
        if spec == "pmf:1=0.99,50=0.01":
            assert 10 * tests["package"] < tests["reference"]

    def test_law_of_s_x_squares_about_sixty_times(self, monkeypatch):
        # binary:0.6 to x = 512 at s_cap 4096: every row from about x = 57 on
        # drops its square, where the uncut step took all 512
        squares, depth, sqr_low = [], [0], exact_dist._sqr_low

        def counted(a, n):
            if not depth[0]:  # a top-level square, not one of its halves
                squares.append(n)
            depth[0] += 1
            try:
                return sqr_low(a, n)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(exact_dist, "_sqr_low", counted)
        _table.cache_clear()
        total_progeny_dist(parse_law_spec("binary:0.6"), 512)
        _table.cache_clear()
        assert 40 <= len(squares) <= 64

    @pytest.mark.parametrize("spec", ["pmf:2=0.5,3=0.5", "pmf:0=0.2,2=0.8", "pmf:0=0.1,1=0.5,2=0.4"])
    def test_laws_that_never_cut(self, tests_run, spec):
        # without a one-child atom every term from w^2 on lands where the
        # row is still 0; with p_0 > 0 the row keeps mass p_0, so the scalar
        # pre-test never even calls the exact one
        law = parse_law_spec(spec)
        for theta, cap in ((1.0, 4096), (0.9, 1024), (0.5, 512)):
            for _ in islice(exact_dist._successors(law, theta, exact_dist._origin(cap)), 400):
                pass
        assert not any(tests_run)
        assert bool(tests_run) == (law.p0 == 0.0)


class TestBinomialTable:
    @pytest.mark.parametrize("theta", [0.05, 0.45, 0.92, 1.0])
    def test_pascal_table_matches_scipy(self, theta):
        from scipy.stats import binom

        B = reference.binomial_table(theta, 4097, 512)
        ref = binom.pmf(np.arange(513)[None, :], np.arange(4098)[:, None], theta)
        big = ref >= 1e-290
        rel = np.abs(B[big] - ref[big]) / ref[big]
        assert rel.max() <= 1e-12
        # entries that would underflow are zero, not stuck subnormals
        assert not np.any((B > 0.0) & (B < np.finfo(float).tiny))


class TestOneStepDist:
    def test_binomial_from_deterministic_total(self):
        dist = one_step_dist(1, IGWParams(OffspringLaw.binary(1.0), 0.8), SMALL_CAPS)
        for k, p in enumerate([0.04, 0.32, 0.64]):
            assert dist.atoms[k] == pytest.approx(p, abs=1e-12)
        assert dist.overflow <= 1e-12

    def test_no_thinning_gives_offspring_law(self):
        law = OffspringLaw.explicit({0: 0.1, 1: 0.3, 2: 0.6})
        dist = one_step_dist(1, IGWParams(law, 1.0), SMALL_CAPS)
        for k, p in enumerate(law.probs):
            assert dist.atoms[k] == pytest.approx(p, abs=1e-12)

    def test_zero_state(self):
        dist = one_step_dist(0, IGWParams(OffspringLaw.binary(0.5), 0.5), SMALL_CAPS)
        assert dist.atoms[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("spec,theta", [("binary:0.6", 0.92), ("pmf:1=0.5,3=0.5", 0.45), ("binary:1", 0.8)])
    @pytest.mark.parametrize("caps", [SMALL_CAPS, Caps(8, 8, 16)], ids=["small", "starved"])
    def test_matches_rational_thinning(self, spec, theta, caps):
        # against the exact thinning of the enumerated law of S_x; at caps
        # 8,8,16 S_x reaches beyond both caps, and the atoms stay exact
        law = parse_law_spec(spec)
        t = Fraction(theta)
        for x in range(5):
            prog = enumerate_total_progeny(law_fractions(law), x) if x else {0: Fraction(1)}
            exact = [Fraction(0)] * (caps.x_cap + 1)
            for s_val, p in prog.items():
                for j in range(min(s_val, caps.x_cap) + 1):
                    exact[j] += p * math.comb(s_val, j) * t**j * (1 - t) ** (s_val - j)
            dist = one_step_dist(x, IGWParams(law, theta), caps)
            want = np.array([float(e) for e in exact])
            assert np.abs(dist.atoms - want).max() <= 1e-13, (spec, x)
            assert abs(dist.overflow - float(1 - sum(exact))) <= 1e-13, (spec, x)


class TestOneStepDeathProb:
    def test_pair_value(self):
        assert one_step_death_prob(1, IGWParams(OffspringLaw.binary(1.0), 0.8)) == pytest.approx(
            0.04, abs=1e-12
        )

    def test_frozen_two_step_value(self, binary_half):
        got = one_step_death_prob(2, IGWParams(binary_half, 0.5))
        assert got == pytest.approx(0.111328125, abs=1e-12)

    def test_matches_mixture_over_total_progeny(self, binary_half):
        # E((1-theta)^S) via the truncated law of S, valid while overflow ~ 0
        theta = 0.5
        for x in (1, 2, 3, 4):
            dist = total_progeny_dist(binary_half, x, 512, 512)
            assert dist.overflow < 1e-12
            mix = float(np.dot(dist.atoms, (1 - theta) ** np.arange(len(dist.atoms))))
            assert one_step_death_prob(x, IGWParams(binary_half, theta)) == pytest.approx(
                mix, abs=1e-9
            )

    def test_theta_one_limit(self, binary_half):
        # without thinning, dying in one step needs an empty total: impossible here
        assert one_step_death_prob(3, IGWParams(binary_half, 1.0)) == 0.0
        # and with p0 > 0 it is exactly the first-generation extinction mass
        law = OffspringLaw.explicit({0: 0.2, 2: 0.8})
        assert one_step_death_prob(5, IGWParams(law, 1.0)) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("spec, theta, calls", [
        ("binary:0.5", 0.9, 250), ("binary:0.5", 0.3, 712), ("pmf:0=0.2,2=0.8", 0.9, 9),
    ])
    def test_stops_at_its_fixed_point(self, monkeypatch, spec, theta, calls):
        # once f(t a) returns a bit for bit, every later step does too; the
        # step that finds it is the last call
        params = IGWParams(parse_law_spec(spec), theta)
        plain = 1.0
        for _ in range(calls + 20):
            plain = pgf_eval(params.law, (1.0 - theta) * plain)
        count = 0

        def counted(law, s):
            nonlocal count
            count += 1
            assert count <= 10 * calls, "the recursion ran past its fixed point"
            return pgf_eval(law, s)

        monkeypatch.setattr(exact_dist, "pgf_eval", counted)
        assert one_step_death_prob(10**9, params) == plain
        assert count == calls

    def test_theta_near_one_vanishes(self, binary_half):
        vals = [one_step_death_prob(2, IGWParams(binary_half, th)) for th in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5


def kernel_rows(params: IGWParams, x_cap: int, xs=None) -> np.ndarray:
    """Rows ``one_step_dist(x)`` on 0..x_cap for x in xs (default 0..x_cap),
    with the mass beyond x_cap as a last column."""
    caps = Caps(x_cap=x_cap)
    rows = [one_step_dist(x, params, caps) for x in (range(x_cap + 1) if xs is None else xs)]
    return np.array([np.append(d.atoms, d.overflow) for d in rows])


class TestTransitionKernel:
    def test_row_sums_and_zero_row(self):
        K = kernel_rows(IGWParams(OffspringLaw.binary(0.5), 0.7), 32)
        assert np.allclose(K.sum(axis=1), 1.0, atol=1e-9)
        assert K[0, 0] == 1.0 and K[0, 1:].sum() == 0.0

    def test_row_one_binomial(self):
        K = kernel_rows(IGWParams(OffspringLaw.binary(1.0), 0.8), 8)
        assert K[1, 0] == pytest.approx(0.04, abs=1e-12)
        assert K[1, 1] == pytest.approx(0.32, abs=1e-12)
        assert K[1, 2] == pytest.approx(0.64, abs=1e-12)

    def test_rows_stochastically_ordered(self):
        K = kernel_rows(IGWParams(OffspringLaw.binary(0.5), 0.7), 10)
        cdfs = np.cumsum(K[:, :-1], axis=1)
        for x in range(1, 10):
            assert np.all(cdfs[x + 1] <= cdfs[x] + 1e-9)


class TestFiniteHorizonDeath:
    def test_one_step_degenerate(self, binary_half):
        params = IGWParams(binary_half, 0.5)
        iv = finite_horizon_death(2, params, 1)
        exact = one_step_death_prob(2, params)
        assert iv.lo == pytest.approx(exact, abs=1e-11)
        assert iv.hi == pytest.approx(exact, abs=1e-11)

    def test_geometric_bound_small_caps(self):
        params = IGWParams(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.9)
        for n in range(1, 13):
            iv = finite_horizon_death(1, params, n, SMALL_CAPS)
            assert 1.0 - iv.lo <= 0.8**n + 1e-12

    def test_lo_nondecreasing_in_n(self, binary_half):
        params = IGWParams(binary_half, 0.7)
        values = [finite_horizon_death(1, params, n, SMALL_CAPS).lo for n in range(1, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_intervals_nested_as_caps_grow(self, binary_half):
        # nesting holds up to float rounding
        params = IGWParams(binary_half, 0.7)
        tight = finite_horizon_death(2, params, 6, Caps(512, 512, 128))
        loose = finite_horizon_death(2, params, 6, Caps(64, 64, 16))
        assert loose.lo <= tight.lo + 1e-12
        assert tight.hi <= loose.hi + 1e-12
        assert tight.width <= loose.width + 1e-12

    def test_horizon_validation(self, binary_half):
        with pytest.raises(ValueError):
            finite_horizon_death(1, IGWParams(binary_half, 0.7), 0)
        with pytest.raises(ValueError):
            finite_horizon_death(10**6, IGWParams(binary_half, 0.7), 1, SMALL_CAPS)


class TestDeathProbInterval:
    def test_binary_one_bounded_by_closed_form(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        iv = death_prob_interval(1, params, SMALL_CAPS, horizon=128)
        assert iv.hi <= 0.0625 + 1e-9
        assert 0.0 < iv.lo <= iv.hi
        # one-step death already gives a positive floor
        assert iv.lo >= one_step_death_prob(1, params) - 1e-12

    def test_geometric_chain_consistency(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        hi1 = death_prob_interval(1, params, SMALL_CAPS, horizon=128).hi
        for x in (2, 3, 4):
            hix = death_prob_interval(x, params, SMALL_CAPS, horizon=128).hi
            assert hix <= hi1**x + 1e-9

    def test_no_thinning_returns_zero(self, binary_half):
        iv = death_prob_interval(3, IGWParams(binary_half, 1.0), SMALL_CAPS)
        assert (iv.lo, iv.hi) == (0.0, 0.0)

    def test_regime_rejections(self, binary_half):
        with pytest.raises(RegimeError):
            death_prob_interval(1, IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5))
        with pytest.raises(RegimeError):
            death_prob_interval(1, IGWParams(OffspringLaw.explicit({1: 1.0}), 0.5))

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, binary_half, horizon):
        # as for finite_horizon_death; horizon 0 would be [0, q*^x], the bound
        # of fixed_point_q and geometric_death_bound
        for theta in (0.7, 1.0):
            with pytest.raises(ValueError, match=f"horizon {horizon} "):
                exact_dist.death_interval_detail(1, IGWParams(binary_half, theta), SMALL_CAPS, horizon)

    def test_subcritical_thinning_gives_trivial_upper(self, binary_half):
        # m * theta < 1: no fixed-point certificate, upper end degenerates to 1
        params = IGWParams(binary_half, 0.6)
        iv = death_prob_interval(1, params, SMALL_CAPS, horizon=64)
        assert iv.hi == pytest.approx(1.0, abs=1e-9)
        assert iv.lo > 0.4


def _forward(K: np.ndarray, x: int, n: int) -> np.ndarray:
    """Reference: the law of the envelope chain at step n from state x,
    by n forward products v <- v @ K."""
    v = np.zeros(len(K))
    v[x] = 1.0
    for _ in range(n):
        v = v @ K
    return v


class TestBackwardSweep:
    """Every interval is read off one backward sweep per kernel; the
    forward loop from each start state is the reference."""

    @pytest.mark.parametrize(
        "spec,theta", [("binary:1", 0.8), ("binary:0.5", 0.7), ("pmf:2=0.5,3=0.5", 0.6)]
    )
    def test_death_interval_matches_forward(self, spec, theta):
        params = IGWParams(parse_law_spec(spec), theta)
        K_hi, K_lo = reference.thinned_kernels(params, SMALL_CAPS.x_cap)
        powers = fixed_point_q(params) ** np.arange(len(K_hi))
        for x in range(1, 9):
            lo = _forward(K_lo, x, 128)[0]
            hi = min(1.0, float(_forward(K_hi, x, 128) @ powers))
            iv = death_prob_interval(x, params, SMALL_CAPS, horizon=128)
            assert iv.lo == pytest.approx(lo, rel=1e-13, abs=0.0)
            assert iv.hi == pytest.approx(max(lo, hi), rel=1e-13, abs=0.0)
            assert iv.width <= max(lo, hi) - lo

    @pytest.mark.parametrize(
        "spec,theta", [("binary:0.5", 0.7), ("pmf:0=0.2,2=0.8", 0.9)]
    )
    def test_finite_horizon_matches_forward(self, spec, theta):
        params = IGWParams(parse_law_spec(spec), theta)
        K_hi, K_lo = reference.thinned_kernels(params, SMALL_CAPS.x_cap)
        for n in (1, 3, 12, 40):
            for x in range(0, 9):
                lo, hi = _forward(K_lo, x, n)[0], _forward(K_hi, x, n)[0]
                iv = finite_horizon_death(x, params, n, SMALL_CAPS)
                assert iv.lo == pytest.approx(min(lo, hi), rel=1e-13, abs=0.0)
                assert iv.hi == pytest.approx(max(lo, hi), rel=1e-13, abs=0.0)


SWEEP_HORIZONS = (1, 2, 17, 256)


def _assert_rel(got: np.ndarray, want: np.ndarray, what) -> None:
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), what


class TestDistinctStateSweep:
    """The envelope steps only the distinct states; the full-width sweep
    of ``reference.dense_sweep``, on kernels it assembles itself, is the
    oracle."""

    @pytest.mark.parametrize(
        "spec,theta,x_cap,r_range",
        [
            ("binary:0.6", 0.92, 512, (500, 512)),
            ("pmf:2=0.5,3=0.5", 0.45, 512, (8, 14)),
            ("pmf:2=0.5,3=0.5", 0.95, 512, (8, 14)),
            ("binary:0.9", 0.9, 512, (208, 208)),
            ("binary:0.5", 0.7, 24, (25, 25)),  # no dead row
        ],
    )
    def test_matches_dense_sweep(self, spec, theta, x_cap, r_range):
        params = IGWParams(parse_law_spec(spec), theta)
        assert r_range[0] <= reference.dead_row(params, x_cap) <= r_range[1]
        caps = Caps(x_cap=x_cap)
        _slot.clear()  # horizon 1 takes the closure's full-width first step
        env = _envelope(params, x_cap)
        want = reference.dense_sweep(params, x_cap, SWEEP_HORIZONS)
        for n in SWEEP_HORIZONS:
            lo_d, hi_d, close_d = want[n]
            cols = np.array([env.read(n, x, env.lo, env.hi, env.closure)[0] for x in range(x_cap + 1)])
            lo, hi, close = cols.T
            _assert_rel(lo, lo_d[:-1], (n, "lo"))
            _assert_rel(hi, hi_d, (n, "hi"))
            _assert_rel(close, close_d, (n, "closure"))
            assert np.all((lo == hi)[lo_d[:-1] == hi_d]), n
            assert np.all((lo <= hi)[lo_d[:-1] <= hi_d]), n
            for x in range(1, x_cap + 1):
                iv = death_prob_interval(x, params, caps, n)
                want_hi = max(lo_d[x], min(1.0, hi_d[x] + close_d[x]))
                assert iv.lo == pytest.approx(lo_d[x], rel=1e-13, abs=0.0), (n, x)
                assert iv.hi == pytest.approx(want_hi, rel=1e-13, abs=0.0), (n, x)
                assert iv.lo <= iv.hi

    def test_live_phantom_through_finite_horizon(self):
        # p_0 > 0: the phantom dies at the floor p_0, and there is no closure
        params = IGWParams(parse_law_spec("pmf:0=0.2,2=0.8"), 0.9)
        want = reference.dense_sweep(params, 512, SWEEP_HORIZONS, closure=False)
        for n in SWEEP_HORIZONS:
            lo_d, hi_d = want[n][0][:-1], want[n][1]
            ivs = [finite_horizon_death(x, params, n) for x in range(513)]
            lo = np.array([iv.lo for iv in ivs])
            hi = np.array([iv.hi for iv in ivs])
            _assert_rel(lo, np.minimum(lo_d, hi_d), (n, "lo"))
            _assert_rel(hi, np.maximum(lo_d, hi_d), (n, "hi"))
            assert np.all((lo == hi)[lo_d == hi_d]), n

    def test_sweeps_distinct_states_only(self, monkeypatch):
        params = IGWParams(parse_law_spec("pmf:2=0.5,3=0.5"), 0.45)
        r = reference.dead_row(params, 512)
        assert r < 512
        shapes = set()
        at = exact_dist._Column.at

        def recorded(column, n):
            shapes.add(column.R.shape)
            return at(column, n)

        monkeypatch.setattr(exact_dist._Column, "at", recorded)
        _slot.clear()
        for horizon in (1, 256):
            death_prob_interval(3, params, horizon=horizon)
        finite_horizon_death(5, params, 40)
        assert shapes == {(r + 1, r + 1), (r + 2, r + 2)}
        assert exact_dist.finite_horizon_detail(5, params, 40).swept_states == r + 1

        held = list(_arrays(vars(_envelope(params, 512))))
        assert len(held) >= 6
        for a in held:  # no dense kernel, column or view of one
            for arr in (a, a.base):
                assert arr is None or arr.shape[-1] < 513, arr.shape

    def test_detail_parts_add_up(self):
        params = IGWParams(parse_law_spec("binary:0.9"), 0.9)
        for x in (1, 5, 40):
            detail = exact_dist.death_interval_detail(x, params)
            iv = detail.interval
            assert iv == death_prob_interval(x, params)
            assert detail.swept_states == 209
            assert detail.closure >= 0.0
            parts = max(iv.lo, min(1.0, iv.lo + detail.truncation + detail.closure))
            assert iv.hi == pytest.approx(parts, rel=1e-15, abs=0.0)
        theta_one = exact_dist.death_interval_detail(1, IGWParams(parse_law_spec("binary:0.9"), 1.0))
        assert theta_one == (IntervalProb(0.0, 0.0), 0.0, 0.0, 0, (None, None, None))

    @pytest.mark.parametrize(
        "spec,theta,x_cap,states", [("binary:0.9", 0.9, 512, 209), ("pmf:0=0.2,2=0.8", 0.7, 64, 65)]
    )
    def test_finite_horizon_detail_parts(self, spec, theta, x_cap, states, capsys):
        params, caps = IGWParams(parse_law_spec(spec), theta), Caps(x_cap=x_cap)
        for x, n in ((3, 40), (1, 400), (5, 2), (0, 7)):
            detail = exact_dist.finite_horizon_detail(x, params, n, caps)
            iv = detail.interval
            assert iv == finite_horizon_death(x, params, n, caps)
            assert detail.swept_states == states
            assert detail.closure == 0.0 and detail.frozen[2] is None
            env = _envelope(params, x_cap)
            assert detail.frozen[:2] == (env.lo.frozen_by(n), env.hi.frozen_by(n))
            # the ends are the two death columns, clamped to [0, 1]
            assert iv.width == pytest.approx(abs(detail.truncation), rel=1e-15, abs=1e-15)
            assert iv.width <= abs(detail.truncation)
            args = ["--law", spec, "--theta", str(theta), "--x", str(x), "--n", str(n), "--x-cap", str(x_cap)]
            assert main(["exact", "finite-horizon-death", *args]) == 0
            out = capsys.readouterr().out.splitlines()
            meta = dict(ln[2:].split("=", 1) for ln in out if ln.startswith("# "))
            printed = [meta[f"frozen-{c}"] for c in ("lo", "hi")]
            assert printed == ["none" if step is None else str(step) for step in detail.frozen[:2]]
            assert meta["swept-states"] == str(states)


def _arrays(obj):
    """Every array an envelope or a column holds, walking its attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, exact_dist._Column):
        yield from _arrays(vars(obj))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)


class TestFixedPointStop:
    """Each envelope column stops at the first step that leaves it bitwise
    unchanged; a plain sweep with no exit, on the same arrays, is the oracle.
    Where the package shifts, the plain sweep scales the kernel by 2^k and
    each product back by 2^-k, the same exact products as the package's
    lifted column."""

    HORIZONS = (300, 1, 3, 17, 256, 64, 2, 400, 5)

    @staticmethod
    def _plain(R: np.ndarray, v: np.ndarray, first: int, n_max: int, k: int) -> dict[int, bytes]:
        out, R = {first: v.tobytes()}, np.ldexp(R, k)
        for n in range(first + 1, n_max + 1):
            v = np.ldexp(R @ v, -k)
            out[n] = v.tobytes()
        return out

    @pytest.mark.parametrize(
        "spec,theta,x_cap",
        [
            ("binary:0.6", 0.92, 512),  # the lower column freezes, the upper one not
            ("pmf:2=0.5,3=0.5", 0.6, 512),  # both freeze
            ("binary:0.5", 0.7, 24),  # no dead row
        ],
    )
    def test_columns_match_plain_sweep(self, spec, theta, x_cap):
        params = IGWParams(parse_law_spec(spec), theta)
        _slot.clear()
        env = _envelope(params, x_cap)
        s = env.last
        k = exact_dist._SHIFT if s + 1 >= exact_dist._SHIFT_STATES else 0
        assert (k > 0) == (spec == "binary:0.6")
        e_lo, e_hi = np.zeros(s + 2), np.zeros(s + 1)
        e_lo[0] = e_hi[0] = 1.0
        R_hi, tail, c = _closure_rows(params, x_cap)
        assert R_hi.tobytes() == env.R_hi.tobytes()
        R_k, tail_k = np.ldexp(R_hi, k), np.ldexp(tail, k)
        first_closure = np.ldexp(R_k[:, :s] @ c[:s] + tail_k @ c[s:], -k)
        n_max = max(self.HORIZONS)
        columns = (
            (env.lo, self._plain(env.R_lo, e_lo, 0, n_max, k)),
            (env.hi, self._plain(env.R_hi, e_hi, 0, n_max, k)),
            (env.closure, self._plain(env.R_hi, first_closure, 1, n_max, k)),
        )
        for n in self.HORIZONS:
            for column, plain in columns:
                assert column.at(n).tobytes() == plain[n], n
                # a start and a cursor, whatever horizons came before
                swept = {id(a) for a in _arrays(vars(column)) if a is not column.R}
                assert len(swept) <= 2, (n, len(swept))
        for column, plain in columns:
            frozen = column.frozen_by(n_max)
            steps = range(min(plain) + 1, n_max + 1)
            still = [n for n in steps if plain[n] == plain[n - 1]]
            assert frozen == (still[0] if still else None)
            assert frozen is None or all(plain[n] == plain[frozen] for n in steps if n >= frozen)
        if spec == "binary:0.6":
            assert env.lo.frozen is not None and env.lo.frozen < 128


#: the benchmark's certify and theta-grid points: (law, thetas, start states)
CERTIFY_POINTS = ("binary:0.6", (0.8, 0.92), range(1, 21))
GRID_POINTS = ("pmf:2=0.5,3=0.5", tuple(round(0.45 + i / 30.0, 6) for i in range(16)), range(1, 9))


class TestShiftedSweep:
    """Sweeps of at least ``_SHIFT_STATES`` states step on the column scaled
    by 2^``_SHIFT`` and scale each product back, so that no product of a
    kernel entry and a column entry is subnormal; smaller ones step plain."""

    def test_shifted_step_within_the_rounding_bound(self, monkeypatch):
        # 59 states, below the gate: forced, the shift must keep every entry
        # of a step within gamma_m * w + 2^-1075 of the exact step, m the
        # row length; the plain step, whose products underflow, does not
        params = IGWParams(parse_law_spec("binary:0.9999"), 0.9)
        gate = exact_dist._SHIFT_STATES
        monkeypatch.setattr(exact_dist, "_SHIFT_STATES", 1)
        _slot.clear()
        env = _envelope(params, 512)
        assert env.last + 1 < gate and env.shift == exact_dist._SHIFT
        tiny, plain_within = Fraction(1, 2**1075), []
        for column, R in ((env.lo, env.R_lo), (env.hi, env.R_hi), (env.closure, env.R_hi)):
            m = len(R)
            gamma = Fraction(m, 2**53 - m)  # m u / (1 - m u), u = 2^-53
            R_exact = [[Fraction(a) for a in row] for row in R.tolist()]

            def within(step, want):
                return [abs(Fraction(a) - b) <= gamma * b + tiny for a, b in zip(step.tolist(), want)]

            for n in (1, 5):
                v, w = column.at(n), column.at(n + 1)
                assert np.any((R * v < 2.0**-1022) & (R > 0) & (v > 0)), n  # underflow unshifted
                v_exact = [Fraction(a) for a in v.tolist()]
                want = [sum(a * b for a, b in zip(row, v_exact)) for row in R_exact]
                assert all(within(w, want)), n
                plain_within += within(R @ v, want)
        assert not all(plain_within)
        _slot.clear()

    @pytest.mark.parametrize("theta", GRID_POINTS[1])
    def test_theta_grid_sweeps_unshifted(self, theta):
        params = IGWParams(parse_law_spec(GRID_POINTS[0]), theta)
        _slot.clear()
        env = _envelope(params, 512)
        assert env.last + 1 < exact_dist._SHIFT_STATES and env.shift == 0
        R_hi, tail, c = _closure_rows(params, 512)
        v = {"lo": np.eye(env.last + 2)[0], "hi": np.eye(env.last + 1)[0]}
        v["closure"] = R_hi[:, : env.last] @ c[: env.last] + tail @ c[env.last :]
        kernels = {"lo": env.R_lo, "hi": env.R_hi, "closure": env.R_hi}
        for n in range(1, 257):
            for name, R in kernels.items():
                if name != "closure" or n > 1:
                    v[name] = R @ v[name]
                assert getattr(env, name).at(n).tobytes() == v[name].tobytes(), (name, n)


class TestThinnedKernels:
    """Kernel rows by thinned composition at x_cap, against the progeny
    route (the thinning of S_x through a Pascal table) in ``reference``."""

    @pytest.mark.parametrize(
        "spec,theta", [("binary:0.6", 0.92), ("pmf:1=0.3,2=0.3,5=0.4", 0.45), ("pmf:2=0.5,3=0.5", 0.6)]
    )
    def test_rows_match_progeny_route(self, spec, theta):
        caps = Caps(1024, 1024, 256)
        params = IGWParams(parse_law_spec(spec), theta)
        ref, overflow, _ = reference.progeny_rows(params, caps)
        # rows whose S_x lies wholly within s_cap: those whose overflow reads
        # 0.0, and, whatever the float 1 - sum reads under the machine's BLAS
        # kernel, those whose largest S_x, K + K^2 + ... + K^x, is at most s_cap
        K = params.law.max_k
        within = np.array([K * (K**x - 1) // (K - 1) <= caps.s_cap for x in range(len(overflow))])
        exact = (overflow == 0.0) | within
        assert exact.sum() >= 5
        got, want = kernel_rows(params, caps.x_cap, np.flatnonzero(exact))[:, :-1], ref[exact]
        nz = want > 0.0
        assert np.all(got[~nz] == 0.0)
        assert (np.abs(got[nz] - want[nz]) / want[nz]).max() <= 1e-13

    @pytest.mark.parametrize("spec,thetas,xs", [CERTIFY_POINTS, GRID_POINTS], ids=["certify", "theta-grid"])
    def test_intervals_nested_in_progeny_route(self, spec, thetas, xs):
        caps = Caps()
        for theta in thetas:
            params = IGWParams(parse_law_spec(spec), theta)
            ref = reference.death_intervals(params, caps, 256)
            for x in xs:
                iv, old = death_prob_interval(x, params, caps), ref[x - 1]
                assert iv.lo >= old.lo * (1.0 - 1e-13), (theta, x)
                assert iv.hi <= old.hi * (1.0 + 1e-13), (theta, x)

    def test_s_cap_does_not_enter(self):
        for spec, theta in (("binary:0.6", 0.92), ("pmf:2=0.5,3=0.5", 0.45), ("binary:0.5", 0.7)):
            params = IGWParams(parse_law_spec(spec), theta)
            small = [death_prob_interval(x, params, Caps(4096, 64, 512)) for x in range(1, 21)]
            _slot.clear()
            big = [death_prob_interval(x, params, Caps(4096, 4096, 512)) for x in range(1, 21)]
            assert small == big, spec

    def test_dead_rows_conservative(self):
        # rows past the first one with tracked mass below the floor share
        # one row that puts at least that mass on state 0
        params = IGWParams(parse_law_spec("binary:0.6"), 0.92)
        caps = Caps(1024, 1024, 512)
        R_hi, R_lo, _ = _kernels(params, caps.x_cap)
        ref, _, _ = reference.progeny_rows(params, caps)
        r = reference.dead_row(params, caps.x_cap)
        assert r < caps.x_cap and len(R_hi) == r + 1
        shared_hi, shared_lo = R_hi[r], R_lo[r]  # the row of every state from r on
        for x in range(r, caps.x_cap + 1):
            # at x = r both sides are the same mass, rounded by two routes
            assert shared_hi[0] >= ref[x].sum() * (1.0 - 1e-13), x
            assert shared_hi[0] >= one_step_dist(x, params, caps).atoms.sum(), x
        assert shared_hi[0] < KERNEL_FLOOR and shared_hi[0] + shared_hi[r] == 1.0
        assert np.count_nonzero(shared_hi) == 2
        assert shared_lo[r + 1] == 1.0 and np.count_nonzero(shared_lo) == 1

    def test_composition_count(self, monkeypatch):
        # the rows stop at the first dead one: S_x >= 2^(x+1) - 2 here
        calls = []
        compose = exact_dist._compose

        def counted(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(exact_dist, "_compose", counted)
        _table.cache_clear()  # rows composed by earlier tests would not be counted
        _kernels(IGWParams(parse_law_spec("pmf:2=0.5,3=0.5"), 0.45), Caps().x_cap)
        assert 1 <= len(calls) <= 12

    def test_envelope_reads_no_progeny_law(self, monkeypatch):
        # every row an envelope composes is a thinned row of its own theta,
        # none a row of the law of S_x (theta = 1)
        thetas, compose = [], exact_dist._compose

        def recorded(law, prev, theta=1.0):
            thetas.append(theta)
            return compose(law, prev, theta)

        monkeypatch.setattr(exact_dist, "_compose", recorded)
        _slot.clear()
        _table.cache_clear()
        params = IGWParams(parse_law_spec("binary:0.6"), 0.8)
        assert death_prob_interval(3, params).width == 0.0
        assert finite_horizon_death(3, params, 5).lo > 0.0
        assert thetas and set(thetas) == {0.8}
        # the explosion certificate's exact region reads the same thinned
        # rows, so its pinned value comes out with no row of the law of S_x
        thetas.clear()
        cert = explosion_lower_bound(2, IGWParams(parse_law_spec("binary:0.6"), 0.92))
        assert thetas and set(thetas) == {0.92}
        assert cert.bound == pytest.approx(0.3954270314624218, rel=1e-12, abs=0.0)
        assert cert.bound >= 0.3954270256435304  # the fixed switch point 64 gave this
        assert cert.bound >= 0.395418796324328  # and adaptive Simpson this


class TestBlockedAssembly:
    """The kernels are assembled ``_BLOCK`` rows at a time from a stream of
    rows; ``reference.distinct_kernels``, whole full-width matrices of the
    table's rows floored and merged at once, must give the same bytes."""

    @pytest.mark.parametrize(
        "spec,theta,x_cap,states",
        [
            # no dead row: s + 1 = 63..129 on both sides of one and two blocks
            ("binary:0.9", 0.9, 62, 63),
            ("binary:0.9", 0.9, 63, 64),
            ("binary:0.9", 0.9, 64, 65),
            ("binary:0.9", 0.9, 127, 128),
            ("binary:0.9", 0.9, 128, 129),
            # a shared dead row last in a full block, and alone in a block
            ("binary:0.978", 0.9, 256, 128),
            ("binary:0.978", 0.7, 256, 129),
            ("binary:0.6", 0.92, 512, 510),  # a shared dead row
            ("pmf:2=0.5,3=0.5", 0.45, 512, 11),  # a shared dead row, 11 states
            # p_0 > 0: a dying phantom and rows past the fixed point
            ("pmf:0=0.2,2=0.8", 0.7, 512, 513),
            # p_0 below KERNEL_FLOOR: a phantom that never dies
            ("pmf:0=1e-250,2=1.0", 0.7, 512, 11),
        ],
    )
    def test_matches_full_width_assembly(self, spec, theta, x_cap, states):
        params = IGWParams(parse_law_spec(spec), theta)
        R_hi, R_lo, tail = _kernels(params, x_cap)
        want = reference.distinct_kernels(params, x_cap)
        assert len(R_hi) == states
        for got, expected in zip((R_hi, R_lo, tail), want):
            assert got.shape == expected.shape and got.flags.c_contiguous
            assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()
        p0 = params.law.p0
        if p0 > 0.0:
            assert R_lo[-1, 0] == (p0 if p0 >= KERNEL_FLOOR else 0.0)
        if spec == "pmf:0=0.2,2=0.8":
            assert _fixed_point(params.law, theta, x_cap) < x_cap  # rows past it share one object


def _held_bytes(env) -> int:
    return sum(a.nbytes for a in {id(a): a for a in _arrays(vars(env))}.values())


class TestEnvelopeMemory:
    """An envelope holds its two kernels and its columns and nothing more:
    the rows stream through ``_kernels``, no (theta, x_cap) table is made,
    and the upper kernel's full-width columns are dropped once the
    closure's first step has read them."""

    def test_envelope_holds_only_its_kernels(self):
        params = IGWParams(parse_law_spec("binary:0.6"), 0.92)
        _slot.clear()
        _table.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            env = _envelope(params, 512)
            for n in (1, 17, 256):
                env.read(n, 1, env.lo, env.hi, env.closure)
            held, peak = (b - start for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        s = env.last
        kernels = env.R_hi.nbytes + env.R_lo.nbytes
        assert kernels == 8 * ((s + 1) ** 2 + (s + 2) ** 2)
        # beside them a start and a cursor vector per column, nothing more
        assert _held_bytes(env) <= kernels + 8 * (2 * (s + 2) + 4 * (s + 1))
        objects = 32 * 1024  # the envelope, its columns and the cache entry
        assert held <= _held_bytes(env) + objects
        # while building: the s live rows of 513 floats, each a row object,
        # one block of 64 full-width rows with its floor mask and masked
        # copy, and the upper kernel's columns s..512 with the closure's
        # first vectors, far below one full-width kernel of s + 1 rows
        live = s * (513 * 8 + 512)
        block = 3 * 64 * 514 * 8
        tail = 8 * ((s + 1) * (513 - s) + 3 * 513)
        assert peak <= _held_bytes(env) + objects + live + block + tail
        _slot.clear()

    def test_p0_envelope_takes_no_closure(self, monkeypatch):
        # q* needs p_0 = 0: a p_0 > 0 envelope never asks for it, and a
        # p_0 = 0 one asks once, when it is built
        calls = []

        def counted(*args):
            calls.append(args)
            return fixed_point_q(*args)

        monkeypatch.setattr(exact_dist, "fixed_point_q", counted)
        _slot.clear()
        params = IGWParams(parse_law_spec("pmf:0=0.2,2=0.8"), 0.7)
        env = _envelope(params, 64)
        assert env.closure is None and calls == []
        assert finite_horizon_death(3, params, 40, Caps(x_cap=64)).hi > 0.0
        with pytest.raises(RegimeError):
            death_prob_interval(3, params, Caps(x_cap=64))
        assert calls == []
        params = IGWParams(parse_law_spec("binary:0.6"), 0.92)
        env = _envelope(params, 64)
        assert env.closure is not None and calls == [(params,)]
        _slot.clear()

    def test_theta_sweep_keeps_one_envelope_and_no_rows(self):
        law, caps = parse_law_spec("binary:0.6"), Caps(x_cap=128)
        thetas = [round(0.70 + 0.02 * i, 2) for i in range(12)]
        for theta in thetas:
            fixed_point_q(IGWParams(law, theta))
        _slot.clear()
        _table.cache_clear()
        tracemalloc.start()
        try:
            start = _numpy_bytes(tracemalloc.take_snapshot())
            for theta in thetas:
                for x in range(1, 21):
                    death_prob_interval(x, IGWParams(law, theta), caps)
            held = _numpy_bytes(tracemalloc.take_snapshot()) - start
        finally:
            tracemalloc.stop()
        assert _table.cache_info().currsize == 0  # no row of any theta is kept
        (last,) = _slot.values()
        assert _envelope(IGWParams(law, thetas[-1]), 128) is last  # the last one is the one kept
        assert held <= _held_bytes(last)
        # a later one-step law at the same (theta, x_cap) is composed as before
        direct = reference.direct_rows(law, thetas[-1], 128)
        for x in range(40):
            row, want = one_step_dist(x, IGWParams(law, thetas[-1]), caps), next(direct)
            assert row.atoms.tobytes() == want.atoms.tobytes(), x
            assert row.overflow.hex() == want.overflow.hex(), x
        _slot.clear()

    def test_previous_envelope_goes_before_the_next_is_built(self, monkeypatch):
        # the slot is empty while an envelope is built: the theta = 0.8
        # envelope is not held while the theta = 0.92 one is built
        law, slots = parse_law_spec("binary:0.6"), []
        build = exact_dist._Envelope

        def recorded(params, x_cap):
            slots.append(dict(_slot))
            return build(params, x_cap)

        monkeypatch.setattr(exact_dist, "_Envelope", recorded)
        _slot.clear()
        for theta in (0.8, 0.8, 0.92, 0.92, 0.8):
            death_prob_interval(1, IGWParams(law, theta), Caps(x_cap=64))
        assert slots == [{}, {}, {}]  # three builds, each into an empty slot
        _slot.clear()


class TestIntervalProb:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalProb(0.9, 0.1)
        iv = IntervalProb(-1e-15, 1.0 + 1e-15)
        assert iv.lo == 0.0 and iv.hi == 1.0

    def test_inverted_by_one_ulp_raises(self):
        with pytest.raises(ValueError, match="inverted"):
            IntervalProb(math.nextafter(0.5, 1.0), 0.5)
