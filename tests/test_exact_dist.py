import math
import time
from fractions import Fraction

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
    transition_kernel,
)
from igw.analysis import fixed_point_q
from igw.exact_dist import _envelope_kernels, _progeny_cache, _progeny_laws, _thinned, binomial_table

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


class TestBinomialTable:
    @pytest.mark.parametrize("theta", [0.05, 0.45, 0.92, 1.0])
    def test_pascal_table_matches_scipy(self, theta):
        from scipy.stats import binom

        B = binomial_table(theta, 4097, 512)
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

    def test_support_rows_match_full_table(self):
        # only the Pascal rows that S_x occupies are built; binary:1 at
        # x >= 8 has every total beyond s_cap = 256, so no row at all
        for spec, theta in (("binary:0.6", 0.92), ("pmf:1=0.3,2=0.3,5=0.4", 0.45), ("binary:1", 0.8)):
            params = IGWParams(parse_law_spec(spec), theta)
            full = binomial_table(theta, SMALL_CAPS.s_cap, SMALL_CAPS.x_cap)
            for x in (0, 1, 5, 20, 64):
                prog = _progeny_laws(params.law, x, SMALL_CAPS.s_cap)[x]
                atoms = one_step_dist(x, params, SMALL_CAPS).atoms
                assert np.array_equal(atoms, _thinned(prog, full)), (spec, x)


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


class TestTransitionKernel:
    def test_row_sums_and_zero_row(self):
        K, warnings = transition_kernel(IGWParams(OffspringLaw.binary(0.5), 0.7), 32, SMALL_CAPS)
        assert np.allclose(K.sum(axis=1), 1.0, atol=1e-9)
        assert K[0, 0] == 1.0 and K[0, 1:].sum() == 0.0

    def test_row_one_binomial(self):
        K, _ = transition_kernel(IGWParams(OffspringLaw.binary(1.0), 0.8), 8, SMALL_CAPS)
        assert K[1, 0] == pytest.approx(0.04, abs=1e-12)
        assert K[1, 1] == pytest.approx(0.32, abs=1e-12)
        assert K[1, 2] == pytest.approx(0.64, abs=1e-12)

    def test_rows_stochastically_ordered(self):
        K, _ = transition_kernel(IGWParams(OffspringLaw.binary(0.5), 0.7), 10, SMALL_CAPS)
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
        K_hi, K_lo = _envelope_kernels(params, SMALL_CAPS)
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
        K_hi, K_lo = _envelope_kernels(params, SMALL_CAPS)
        for n in (1, 3, 12, 40):
            for x in range(0, 9):
                lo, hi = _forward(K_lo, x, n)[0], _forward(K_hi, x, n)[0]
                iv = finite_horizon_death(x, params, n, SMALL_CAPS)
                assert iv.lo == pytest.approx(min(lo, hi), rel=1e-13, abs=0.0)
                assert iv.hi == pytest.approx(max(lo, hi), rel=1e-13, abs=0.0)


class TestIntervalProb:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalProb(0.9, 0.1)
        iv = IntervalProb(-1e-15, 1.0 + 1e-15)
        assert iv.lo == 0.0 and iv.hi == 1.0
