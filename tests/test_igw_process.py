import math
from collections import Counter

import numpy as np
import pytest

from igw import (
    AlmostSureRegime,
    Caps,
    ExtendedCount,
    IGWParams,
    MeanRegime,
    OffspringLaw,
    RegimeError,
    TerminationKind,
    asymptotic_ratios,
    chi,
    classify_regimes,
    finite_horizon_death,
    parse_law_spec,
    simulate_chunk,
    simulate_trajectory,
    step,
    stream_for,
)
from igw.igw_process import DIED, EXPLODED, TERMINATIONS, UNDECIDED


class TestStep:
    def test_zero_is_absorbing(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        out = step(ExtendedCount.exact(0), params, stream_for(0, 0, "s"))
        assert out.exact_value == 0

    def test_deterministic_step(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        for r in range(5):
            out = step(3, params, stream_for(1, r, "s"))
            assert out.exact_value == 14

    def test_one_step_distribution(self):
        # from state 1 the total is two individuals, each kept w.p. 0.8
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        n = 100_000
        counts = np.zeros(3)
        for r in range(n):
            out = step(1, params, stream_for(3, r, "dist"))
            counts[out.exact_value] += 1
        for k, p in enumerate([0.04, 0.32, 0.64]):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[k] / n - p) <= 4 * se

    def test_mean_identity(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.7)
        n = 50_000
        for x in (1, 4, 10):
            vals = np.array(
                [step(x, params, stream_for(100 + x, r, "mean")).exact_value for r in range(n)],
                dtype=float,
            )
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - chi(params, x)) <= 4 * se

    def test_stochastic_monotonicity_in_start(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.7)
        n = 30_000
        lo = np.array([step(2, params, stream_for(9, r, "lo")).exact_value for r in range(n)])
        hi = np.array([step(4, params, stream_for(9, r, "hi")).exact_value for r in range(n)])
        for t in range(0, 20):
            cdf_lo = float((lo <= t).mean())
            cdf_hi = float((hi <= t).mean())
            se = math.sqrt(0.25 / n) * 2
            assert cdf_hi <= cdf_lo + 4 * se

    def test_total_progeny_upper_tail(self):
        # P(S_x >= mu^x) <= mu^(-x) E(S_x) <= (m/mu)^x m/(m-1) at mu = 2m
        from igw import simulate_total_progeny

        law = OffspringLaw.binary(0.5)
        m = 1.5
        mu = 2 * m
        x, n = 10, 20_000
        level = mu**x
        hits = 0
        for r in range(n):
            _, total = simulate_total_progeny(law, x, stream_for(77, r, "tail"), record_generations=False)
            if total.to_float() >= level:
                hits += 1
        freq = hits / n
        bound = (m / mu) ** x * m / (m - 1)
        se = math.sqrt(max(freq * (1 - freq), bound * (1 - bound)) / n)
        assert freq <= bound + 4 * se

    def test_log_tier_step_is_deterministic_growth(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        big = ExtendedCount.from_log(100.0)
        out = step(big, params, stream_for(0, 0, "s"))
        xf = math.exp(100.0)
        expected = xf * math.log(1.5) + math.log(1.5 / 0.5) + math.log(0.8)
        assert out.log() == pytest.approx(expected, rel=1e-12)

    def test_log_tier_needs_supercritical(self):
        params = IGWParams(OffspringLaw.explicit({0: 0.5, 1: 0.5}), 1.0)
        with pytest.raises(RegimeError):
            step(ExtendedCount.from_log(100.0), params, stream_for(0, 0, "s"))


class TestTrajectory:
    def test_immediate_death(self):
        params = IGWParams(OffspringLaw.explicit({0: 1.0}), 0.9)
        traj = simulate_trajectory(1, params, 50, ExtendedCount.exact(10**6), stream_for(0, 0, "t"))
        assert traj.termination is TerminationKind.DIED
        assert traj.termination_step == 1
        assert traj.states[1].exact_value == 0

    def test_deterministic_prefix_and_explosion(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        traj = simulate_trajectory(1, params, 50, ExtendedCount.exact(10**6), stream_for(0, 0, "t"))
        assert traj.termination is TerminationKind.EXPLODED
        prefix = [s.exact_value for s in traj.states[:4]]
        assert prefix == [1, 2, 6, 126]
        # S_126 = 2^127 - 2 crosses any desk-scale threshold
        assert traj.states[4] > ExtendedCount.exact(10**6)
        assert traj.termination_step == 4

    def test_never_dies_without_thinning(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        for r in range(50):
            traj = simulate_trajectory(5, params, 30, ExtendedCount.from_log(1e20), stream_for(4, r, "nd"))
            assert traj.termination is not TerminationKind.DIED
            values = traj.states
            assert all(not (b < a) for a, b in zip(values, values[1:]))

    def test_absorption_invariant(self):
        params = IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5)
        for r in range(200):
            traj = simulate_trajectory(2, params, 40, ExtendedCount.exact(10**9), stream_for(8, r, "abs"))
            zero_seen = False
            for s in traj.states:
                if zero_seen:
                    assert s.exact_value == 0
                zero_seen = zero_seen or s.is_zero()
            if traj.termination is TerminationKind.DIED:
                assert traj.states[-1].is_zero()

    def test_ratios_defined_where_expected(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        traj = simulate_trajectory(3, params, 20, ExtendedCount.from_log(1e20), stream_for(5, 0, "r"))
        for n, y in enumerate(traj.ratios):
            nxt = traj.states[n + 1]
            if y is not None:
                assert not traj.states[n].is_zero() and not nxt.is_zero()
                if traj.states[n].is_exact:
                    assert y == pytest.approx(nxt.log() / traj.states[n].exact_value, rel=1e-12)

    def test_threshold_validation(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        with pytest.raises(ValueError):
            simulate_trajectory(10, params, 10, ExtendedCount.exact(5), stream_for(0, 0, "t"))


class TestClassifyRegimes:
    def test_six_law_grid(self):
        grid = [
            (OffspringLaw.binary(0.5), 1.0, MeanRegime.EXPLODES, AlmostSureRegime.EXPLOSION),
            (OffspringLaw.explicit({0: 0.3, 5: 0.7}), 0.9, MeanRegime.EXPLODES, AlmostSureRegime.DEATH),
            (OffspringLaw.binary(0.5), 0.9, MeanRegime.EXPLODES, AlmostSureRegime.MIXED),
            (OffspringLaw.explicit({0: 0.5, 1: 0.5}), 1.0, MeanRegime.VANISHES, AlmostSureRegime.DEATH),
            (OffspringLaw.explicit({1: 1.0}), 1.0, MeanRegime.CONSTANT, AlmostSureRegime.THINNED_IDENTITY),
            (OffspringLaw.explicit({1: 1.0}), 0.5, MeanRegime.VANISHES, AlmostSureRegime.THINNED_IDENTITY),
        ]
        seen = set()
        for law, theta, want_mean, want_as in grid:
            report = classify_regimes(IGWParams(law, theta))
            assert report.mean_regime is want_mean
            assert report.as_regime is want_as
            seen.add((want_mean, want_as))
        assert len(seen) == 6

    def test_critical_thinned_vanishes(self):
        report = classify_regimes(IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5))
        assert report.mean_regime is MeanRegime.VANISHES
        assert report.as_regime is AlmostSureRegime.DEATH

    def test_explosive_mean_with_sure_death(self):
        # supercritical mean and almost-sure death can coexist
        report = classify_regimes(IGWParams(OffspringLaw.explicit({0: 0.3, 5: 0.7}), 0.9))
        assert report.mean_regime is MeanRegime.EXPLODES
        assert report.as_regime is AlmostSureRegime.DEATH


class TestAsymptoticRatios:
    def test_deterministic_doubling_rows(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        traj = simulate_trajectory(1, params, 50, ExtendedCount.exact(10**6), stream_for(0, 0, "t"))
        rows = asymptotic_ratios(traj, 2.0)
        by_step = {r.step: r for r in rows}
        assert by_step[2].y == pytest.approx(math.log(126) / 6, rel=1e-12)
        assert by_step[2].relative_error == pytest.approx(math.log(126) / 6 / math.log(2) - 1, rel=1e-9)
        assert by_step[2].relative_error == pytest.approx(0.163, abs=2e-3)

    def test_constant_state_ratio(self):
        # a step that stays at k has ratio log(k)/k by definition
        params = IGWParams(OffspringLaw.explicit({1: 1.0}), 1.0)
        traj = simulate_trajectory(4, params, 5, ExtendedCount.exact(10**6), stream_for(0, 0, "t"))
        rows = asymptotic_ratios(traj, 1.0 + 1e-9)
        assert rows[0].y == pytest.approx(math.log(4) / 4, rel=1e-12)

    def test_subcritical_rejected(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        traj = simulate_trajectory(2, params, 5, ExtendedCount.from_log(1e20), stream_for(0, 0, "t"))
        with pytest.raises(RegimeError):
            asymptotic_ratios(traj, 0.9)


class TestChunkEngine:
    # one law per sampling path: point masses (one and two children), two
    # atoms, multinomial
    @pytest.mark.parametrize("spec", ["pmf:1=1", "binary:1", "binary:0.5", "pmf:1=0.3,2=0.3,5=0.4"])
    @pytest.mark.parametrize("x", [1, 2])
    def test_death_by_n_matches_exact_layer(self, spec, x):
        params = IGWParams(parse_law_spec(spec), 0.5)
        chunks, size = 16, 1024
        dead_by = np.zeros(4)
        for c in range(chunks):
            paths = simulate_chunk(x, params, 4, ExtendedCount.exact(10**9), stream_for(5, c, spec))
            died = paths.termination == DIED
            dead_by += [np.sum(died & (paths.steps <= n)) for n in range(1, 5)]
        total = chunks * size
        for n in range(1, 5):
            iv = finite_horizon_death(x, params, n, Caps(s_cap=512, x_cap=64))
            p = 0.5 * (iv.lo + iv.hi)
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / total)
            freq = dead_by[n - 1] / total
            assert iv.lo - 4 * se <= freq <= iv.hi + 4 * se, (spec, x, n, freq, iv)

    def test_three_tier_case_matches_scalar_reference(self):
        # paths cross the exact, Gaussian and log tiers before exploding
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        threshold = ExtendedCount.from_log(700.0)
        counts = np.zeros(3)
        for c in range(4):
            paths = simulate_chunk(3, params, 200, threshold, stream_for(6, c, "tiers"))
            counts += np.bincount(paths.termination, minlength=3)
        n_chunk = counts.sum()
        n_ref = 1500
        ref = Counter(
            simulate_trajectory(3, params, 200, threshold, stream_for(7, r, "tiers")).termination
            for r in range(n_ref)
        )
        assert counts[UNDECIDED] == 0 and ref[TerminationKind.HORIZON] == 0
        for code in (DIED, EXPLODED):
            p1 = counts[code] / n_chunk
            p2 = ref[TERMINATIONS[code]] / n_ref
            se = math.sqrt(max(p1 * (1 - p1), 1e-12) / n_chunk + max(p2 * (1 - p2), 1e-12) / n_ref)
            assert abs(p1 - p2) <= 4 * se, (TERMINATIONS[code], p1, p2)

    @pytest.mark.parametrize("x0", [100, 400])
    def test_first_step_in_gaussian_and_folded_tiers_matches_scalar(self, x0):
        # S_100 leaves the exact range near generation 82 and stays Gaussian;
        # S_400 is folded deterministically past generation ~200
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        paths = simulate_chunk(
            x0, params, 1, ExtendedCount.from_log(1e20), stream_for(3, 0, "g"), record=True
        )
        chunk = paths.log[1]
        scalar = np.array([step(x0, params, stream_for(4, r, "g")).log() for r in range(300)])
        se = math.sqrt(chunk.var() / chunk.size + scalar.var() / scalar.size)
        assert abs(chunk.mean() - scalar.mean()) <= 4 * se

    def test_undecided_paths_kept_apart_and_nondecreasing(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        paths = simulate_chunk(
            5, params, 3, ExtendedCount.from_log(1e20), stream_for(4, 0, "nd"), 300, record=True
        )
        assert (paths.termination == UNDECIDED).all() and (paths.steps == 3).all()
        assert paths.exact.shape == (4, 300) and paths.ratio.shape == (3, 300)
        assert (np.diff(paths.log, axis=0) >= 0).all()
        exact = paths.exact[:-1] >= 0
        np.testing.assert_allclose(
            paths.ratio[exact], (paths.log[1:] / paths.exact[:-1])[exact], rtol=1e-12
        )

    def test_threshold_at_start_explodes_at_step_zero(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        paths = simulate_chunk(5, params, 10, ExtendedCount.exact(5), stream_for(0, 0, "t"), 8)
        assert (paths.termination == EXPLODED).all() and (paths.steps == 0).all()

    def test_validation(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        rng = stream_for(0, 0, "t")
        threshold = ExtendedCount.exact(10**6)
        with pytest.raises(ValueError):
            simulate_chunk(0, params, 10, threshold, rng)
        with pytest.raises(ValueError):
            simulate_chunk(1, params, 0, threshold, rng)
        with pytest.raises(ValueError):
            simulate_chunk(10, params, 10, ExtendedCount.exact(5), rng)

    def test_rejects_laws_that_overflow_int64(self):
        # 2^48 individuals with up to 2^15 children each reach 2^63
        wide = OffspringLaw.explicit({1: 0.5, 2**15: 0.5}, max_k=2**15)
        with pytest.raises(ValueError, match="int64"):
            simulate_chunk(1, IGWParams(wide, 1.0), 10, ExtendedCount.exact(10**6), stream_for(0, 0, "t"))
