import math
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings

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
from igw.analysis import explosion_lower_bound, fixed_point_q
import igw.exact_dist as exact_dist
from igw.exact_dist import KERNEL_FLOOR, _envelope, _kernels, _progeny_cache

import reference
from conftest import enumerate_total_progeny, law_fractions, small_laws

SMALL_CAPS = Caps(256, 256, 64)


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

    def test_progeny_cache_is_bounded(self):
        size = _progeny_cache.cache_parameters()["maxsize"]
        for i in range(size + 3):
            total_progeny_dist(OffspringLaw.binary(0.01 * (i + 1)), 4, s_cap=32)
        assert _progeny_cache.cache_info().currsize == size

    def test_point_mass_law_is_fast(self):
        # binary:1 always has two children, so S_x = 2^(x+1) - 2 is a single
        # coefficient at every step; s_cap 4099 keeps the cache cold here
        law = parse_law_spec("binary:1")
        start = time.perf_counter()
        dist = total_progeny_dist(law, 512, s_cap=4099)
        assert time.perf_counter() - start < 0.1
        assert dist.overflow == 1.0 and dist.atoms.sum() == 0.0
        assert total_progeny_dist(law, 11, s_cap=4099).atoms[4094] == 1.0


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
            want = exact_dist._atoms(direct[x], 4096)
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
        monkeypatch.setattr(exact_dist, "thinned_rows", reference.direct_rows)
        for got, want in zip(kernels, _kernels(params, 512)):
            assert np.array_equal(got, want)


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
        powers = fixed_point_q(params, 1e-13) ** np.arange(len(K_hi))
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
        _envelope.cache_clear()  # horizon 1 takes the closure's full-width first step
        env = _envelope(params, x_cap)
        want = reference.dense_sweep(params, x_cap, SWEEP_HORIZONS)
        for n in SWEEP_HORIZONS:
            lo_d, hi_d, close_d = want[n]
            cols = np.array([[*env.death_at(n, x), env.closure_at(n, x)] for x in range(x_cap + 1)])
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
        sweep = exact_dist._sweep

        def recorded(kept, kernels, n):
            shapes.update(R.shape for R in kernels)
            return sweep(kept, kernels, n)

        monkeypatch.setattr(exact_dist, "_sweep", recorded)
        _envelope.cache_clear()
        for horizon in (1, 256):
            death_prob_interval(3, params, horizon=horizon)
        finite_horizon_death(5, params, 40)
        assert shapes == {(r + 1, r + 1), (r + 2, r + 2)}
        assert exact_dist.swept_states(params) == r + 1

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for value in obj.values():
                    yield from arrays(value)
            elif isinstance(obj, (tuple, list)):
                for value in obj:
                    yield from arrays(value)

        held = list(arrays(vars(_envelope(params, 512))))
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
        assert theta_one == (IntervalProb(0.0, 0.0), 0.0, 0.0, 0)


#: the benchmark's certify and theta-grid points: (law, thetas, start states)
CERTIFY_POINTS = ("binary:0.6", (0.8, 0.92), range(1, 21))
GRID_POINTS = ("pmf:2=0.5,3=0.5", tuple(round(0.45 + i / 30.0, 6) for i in range(16)), range(1, 9))


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
        exact = overflow == 0.0  # rows whose S_x lies wholly within s_cap
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
            _envelope.cache_clear()
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
        _kernels(IGWParams(parse_law_spec("pmf:2=0.5,3=0.5"), 0.45), Caps().x_cap)
        assert 1 <= len(calls) <= 12

    def test_envelope_reads_no_progeny_law(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("read while building an envelope")

        monkeypatch.setattr(exact_dist, "_progeny_laws", forbidden)
        _envelope.cache_clear()
        params = IGWParams(parse_law_spec("binary:0.6"), 0.8)
        assert death_prob_interval(3, params).width == 0.0
        assert finite_horizon_death(3, params, 5).lo > 0.0
        # the explosion certificate's exact region reads the same thinned
        # rows, so its pinned value comes out with the law of S_x forbidden
        cert = explosion_lower_bound(2, IGWParams(parse_law_spec("binary:0.6"), 0.92))
        assert cert.bound == pytest.approx(0.3954270314624218, rel=1e-12, abs=0.0)
        assert cert.bound >= 0.3954270256435304  # the fixed switch point 64 gave this
        assert cert.bound >= 0.395418796324328  # and adaptive Simpson this


class TestIntervalProb:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalProb(0.9, 0.1)
        iv = IntervalProb(-1e-15, 1.0 + 1e-15)
        assert iv.lo == 0.0 and iv.hi == 1.0

    def test_inverted_by_one_ulp_raises(self):
        with pytest.raises(ValueError, match="inverted"):
            IntervalProb(math.nextafter(0.5, 1.0), 0.5)
