import ast
import concurrent.futures
import importlib
import math
import os
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import igw
from igw import (
    AlmostSureRegime,
    Caps,
    ExtendedCount,
    IGWParams,
    MeanRegime,
    OffspringLaw,
    RegimeError,
    TerminationKind,
    classify_regimes,
    death_prob_interval,
    finite_horizon_death,
    mc_death_prob,
    parse_law_spec,
    ratio_crossing_errors,
    simulate_chunks,
    stream_for,
)
import igw.igw_process as igw_process
from igw.igw_process import (
    DIED, EXPLODED, RNG_CHUNK, TERMINATIONS, UNDECIDED, _chunk_step, _crossing_errors, map_chunks,
)

import reference
from conftest import first_states, streams_of

FAR = ExtendedCount.from_log(1e20)


class TestStep:
    def test_zero_is_absorbing(self, monkeypatch):
        # a replica that dies leaves the live set: no zero state is stepped
        def checked(law, theta, xi, xl, gen):
            assert (xi != 0).all()
            return _chunk_step(law, theta, xi, xl, gen)

        monkeypatch.setattr(igw_process, "_chunk_step", checked)
        params = IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5)
        gen = stream_for(8, 0, "abs")
        paths = simulate_chunks(2, params, 40, ExtendedCount.exact(10**9), [gen], [RNG_CHUNK])[0]
        assert (paths.termination == DIED).sum() > 100

    def test_deterministic_step(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        exact, _ = first_states(3, params, 5, stream_for(1, 0, "s"))
        assert (exact == 14).all()

    def test_one_step_distribution(self):
        # from state 1 the total is two individuals, each kept w.p. 0.8
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        n = 100_000
        exact, _ = first_states(1, params, n, stream_for(3, 0, "dist"))
        counts = np.bincount(exact, minlength=3)
        for k, p in enumerate([0.04, 0.32, 0.64]):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[k] / n - p) <= 4 * se

    def test_mean_identity(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.7)
        n = 50_000
        for x in (1, 4, 10):
            vals = first_states(x, params, n, stream_for(100 + x, 0, "mean"))[0].astype(float)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - reference.chi(params, x)) <= 4 * se

    def test_stochastic_monotonicity_in_start(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.7)
        n = 30_000
        lo, _ = first_states(2, params, n, stream_for(9, 0, "lo"))
        hi, _ = first_states(4, params, n, stream_for(9, 0, "hi"))
        for t in range(0, 20):
            cdf_lo = float((lo <= t).mean())
            cdf_hi = float((hi <= t).mean())
            se = math.sqrt(0.25 / n) * 2
            assert cdf_hi <= cdf_lo + 4 * se

    def test_total_progeny_upper_tail(self):
        # P(S_x >= mu^x) <= mu^(-x) E(S_x) <= (m/mu)^x m/(m-1) at mu = 2m;
        # at theta = 1, X_1 = S_x
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        m = 1.5
        mu = 2 * m
        x, n = 10, 20_000
        _, logs = first_states(x, params, n, stream_for(77, 0, "tail"))
        freq = float((logs >= x * math.log(mu)).mean())
        bound = (m / mu) ** x * m / (m - 1)
        se = math.sqrt(max(freq * (1 - freq), bound * (1 - bound)) / n)
        assert freq <= bound + 4 * se

    def test_log_tier_step_is_deterministic_growth(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        ni, nl = _chunk_step(
            params.law, 0.8, np.array([-1]), np.array([100.0]), streams_of(stream_for(0, 0, "s"), 1)
        )
        expected = math.exp(100.0) * math.log(1.5) + math.log(1.5 / 0.5) + math.log(0.8)
        assert ni[0] == -1 and nl[0] == pytest.approx(expected, rel=1e-12)

    def test_log_tier_needs_supercritical(self):
        law = OffspringLaw.explicit({0: 0.5, 1: 0.5})
        with pytest.raises(RegimeError):
            _chunk_step(law, 1.0, np.array([-1]), np.array([100.0]), streams_of(stream_for(0, 0, "s"), 1))


class TestTrajectory:
    def test_immediate_death(self):
        params = IGWParams(OffspringLaw.explicit({0: 1.0}), 0.9)
        gen = stream_for(0, 0, "t")
        paths = simulate_chunks(1, params, 50, ExtendedCount.exact(10**6), [gen], [1], record=True)[0]
        assert TERMINATIONS[paths.termination[0]] is TerminationKind.DIED
        assert paths.steps[0] == 1
        assert paths.exact[1, 0] == 0

    def test_deterministic_prefix_and_explosion(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        gen = stream_for(0, 0, "t")
        paths = simulate_chunks(1, params, 50, ExtendedCount.exact(10**6), [gen], [1], record=True)[0]
        assert TERMINATIONS[paths.termination[0]] is TerminationKind.EXPLODED
        assert paths.exact[:4, 0].tolist() == [1, 2, 6, 126]
        # S_126 = 2^127 - 2 crosses any desk-scale threshold
        assert paths.exact[4, 0] == -1 and paths.log[4, 0] > math.log(10**6)
        assert paths.steps[0] == 4

    def test_never_dies_without_thinning(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        paths = simulate_chunks(5, params, 30, FAR, [stream_for(4, 0, "nd")], [50], record=True)[0]
        assert not (paths.termination == DIED).any()
        for r in range(50):
            assert (np.diff(paths.log[: paths.steps[r] + 1, r]) >= 0).all()

    def test_absorption_invariant(self):
        # a path dies at its first zero state and is reported at that step
        params = IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5)
        gen = stream_for(8, 0, "abs")
        paths = simulate_chunks(2, params, 40, ExtendedCount.exact(10**9), [gen], [200], record=True)[0]
        for r in range(200):
            n = paths.steps[r]
            assert (paths.exact[1:n, r] != 0).all()
            assert (paths.exact[n, r] == 0) == (paths.termination[r] == DIED)

    def test_ratios_defined_where_expected(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.5)
        paths = simulate_chunks(1, params, 20, FAR, [stream_for(5, 0, "r")], [200], record=True)[0]
        assert (paths.termination == DIED).any() and (paths.termination == EXPLODED).any()
        for r in range(200):
            n = paths.steps[r]
            y, nxt, cur = paths.ratio[:n, r], paths.exact[1 : n + 1, r], paths.exact[:n, r]
            assert (np.isnan(y) == (nxt == 0)).all()
            exact = (cur >= 0) & (nxt != 0)
            np.testing.assert_allclose(y[exact], paths.log[1 : n + 1, r][exact] / cur[exact], rtol=1e-12)


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
            gen = stream_for(5, c, spec)
            paths = simulate_chunks(x, params, 4, ExtendedCount.exact(10**9), [gen], [size])[0]
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
        # paths cross the exact, Gaussian and log tiers before exploding.
        # From x0 = 1 at theta = 0.7 both verdicts are common: P(die) is
        # 0.5584 here and 0.2481 at theta = sqrt(0.7), so a wrong thinning
        # rate in either simulator moves its death fraction by many SE
        params = IGWParams(OffspringLaw.binary(0.5), 0.7)
        threshold = ExtendedCount.from_log(700.0)
        counts = np.zeros(3)
        for c in range(4):
            paths = simulate_chunks(1, params, 200, threshold, [stream_for(6, c, "tiers")], [RNG_CHUNK])[0]
            counts += np.bincount(paths.termination, minlength=3)
        n_chunk = counts.sum()
        n_ref = 1500
        ref = Counter(
            reference.trajectory(1, params, 200, threshold, stream_for(7, r, "tiers"))[0]
            for r in range(n_ref)
        )
        assert counts[UNDECIDED] == 0 and ref[TerminationKind.HORIZON] == 0
        for code in (DIED, EXPLODED):
            p1 = counts[code] / n_chunk
            p2 = ref[TERMINATIONS[code]] / n_ref
            se = math.sqrt(max(p1 * (1 - p1), 1e-12) / n_chunk + max(p2 * (1 - p2), 1e-12) / n_ref)
            assert abs(p1 - p2) <= 4 * se, (TERMINATIONS[code], p1, p2)
        # both samples against the certified death probability
        iv = death_prob_interval(1, params)
        for died, n in ((counts[DIED], n_chunk), (ref[TerminationKind.DIED], n_ref)):
            se = math.sqrt(iv.hi * (1.0 - iv.lo) / n)
            assert iv.lo - 4 * se <= died / n <= iv.hi + 4 * se, (died / n, iv)

    @pytest.mark.parametrize("x0", [100, 400])
    def test_first_step_in_gaussian_and_folded_tiers_matches_scalar(self, x0):
        # S_100 leaves the exact range near generation 82; in the scalar
        # reference it stays Gaussian, and S_400 is folded deterministically
        # past generation ~200.  The engine draws either remainder at once.
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        _, chunk = first_states(x0, params, 1024, stream_for(3, 0, "g"))
        start = ExtendedCount.exact(x0)
        scalar = np.array(
            [reference.step(start, params, stream_for(4, r, "g")).log() for r in range(300)]
        )
        se = math.sqrt(chunk.var() / chunk.size + scalar.var() / scalar.size)
        assert abs(chunk.mean() - scalar.mean()) <= 4 * se
        # the spread of log X_1, with the SE of a sample variance from the
        # fourth central moment
        dev = [(a - a.mean()) ** 2 for a in (chunk, scalar)]
        se_var = math.sqrt(sum(d.var() / d.size for d in dev))
        assert abs(chunk.var() - scalar.var()) <= 4 * se_var

    def test_undecided_paths_kept_apart_and_nondecreasing(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        paths = simulate_chunks(
            5, params, 3, ExtendedCount.from_log(1e20), [stream_for(4, 0, "nd")], [300], record=True
        )[0]
        assert (paths.termination == UNDECIDED).all() and (paths.steps == 3).all()
        assert paths.exact.shape == (4, 300) and paths.ratio.shape == (3, 300)
        assert (np.diff(paths.log, axis=0) >= 0).all()
        exact = paths.exact[:-1] >= 0
        np.testing.assert_allclose(
            paths.ratio[exact], (paths.log[1:] / paths.exact[:-1])[exact], rtol=1e-12
        )

    def test_threshold_at_start_explodes_at_step_zero(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        paths = simulate_chunks(5, params, 10, ExtendedCount.exact(5), [stream_for(0, 0, "t")], [8])[0]
        assert (paths.termination == EXPLODED).all() and (paths.steps == 0).all()

    def test_validation(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        gen = stream_for(0, 0, "t")
        threshold = ExtendedCount.exact(10**6)
        with pytest.raises(ValueError):
            simulate_chunks(0, params, 10, threshold, [gen], [8])
        with pytest.raises(ValueError):
            simulate_chunks(1, params, 0, threshold, [gen], [8])
        with pytest.raises(ValueError):
            simulate_chunks(10, params, 10, ExtendedCount.exact(5), [gen], [8])
        with pytest.raises(ValueError, match="replica"):
            simulate_chunks(1, params, 10, threshold, [gen], [0])

    def test_one_generator_per_chunk(self):
        # one generator for two chunks, two for one, and no chunk at all
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        threshold = ExtendedCount.exact(10**6)
        two = [stream_for(0, c, "t") for c in range(2)]
        for gens, sizes in ((two[:1], [3, 3]), (two, [3]), ([], [])):
            with pytest.raises(ValueError, match="one generator per chunk"):
                simulate_chunks(1, params, 10, threshold, gens, sizes)

    def test_rejects_laws_that_overflow_int64(self):
        # 2^48 individuals with up to 2^15 children each reach 2^63
        wide = OffspringLaw.explicit({1: 0.5, 2**15: 0.5}, max_k=2**15)
        with pytest.raises(ValueError, match="int64"):
            simulate_chunks(1, IGWParams(wide, 1.0), 10, ExtendedCount.exact(10**6), [stream_for(0, 0, "t")], [8])


class TestUsableCpus:
    def test_affinity_mask_first(self, monkeypatch):
        # a process pinned to one CPU of two may use one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert igw_process.usable_cpus() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((2, 2), (64, 64), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert igw_process.usable_cpus() == usable, count

    def test_this_process(self):
        want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        assert igw_process.usable_cpus() == want


def test_intervals_and_monte_carlo_start_no_thread(monkeypatch):
    # the exact layer runs on the calling thread, and a one-worker Monte
    # Carlo run starts no pool, even where two CPUs are usable
    monkeypatch.setattr(igw_process, "usable_cpus", lambda: 2)
    before = threading.active_count()
    params = IGWParams(OffspringLaw.binary(0.55), 0.83)
    assert death_prob_interval(1, params).width >= 0.0
    assert mc_death_prob(2, params, 2000, 64, ExtendedCount.exact(10**6), master_seed=3).estimate.replicas == 2000
    assert threading.active_count() == before


def _chunk_size(index, paths):
    return index, len(paths.termination)


class TestMapChunks:
    ARGS = (_chunk_size, 2, IGWParams(OffspringLaw.binary(0.5), 0.9), 3, ExtendedCount.exact(100), 7, "t")

    def test_workers_below_one_rejected(self):
        for workers in (0, -2):
            with pytest.raises(ValueError, match="workers"):
                map_chunks(*self.ARGS, 10, workers=workers)

    def test_processes_capped_by_chunks_and_cpus(self, monkeypatch):
        # a stand-in pool that records its size and runs every chunk in
        # this process, so no process is started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        five = [(c, RNG_CHUNK) for c in range(5)]
        assert map_chunks(*self.ARGS, 5 * RNG_CHUNK, workers=1) == five and sizes == []
        # (usable CPUs, replicas, pool sizes started): never more processes
        # than usable CPUs or chunks, and none on one CPU, which the rule
        # also returns when the CPU count is unknown
        cases = ((3, 5 * RNG_CHUNK, [3]), (64, 2 * RNG_CHUNK + 1, [3]), (1, 5 * RNG_CHUNK, []))
        for cpus, replicas, started in cases:
            monkeypatch.setattr(igw_process, "usable_cpus", lambda: cpus)
            sizes.clear()
            out = map_chunks(*self.ARGS, replicas, workers=1000)
            assert out == (five if replicas == 5 * RNG_CHUNK else [*five[:2], (2, 1)]), cpus
            assert sizes == started, cpus


#: (law, theta, x0, threshold, horizon): the three count tiers under
#: thinning, a point mass of two and of three, p_0 > 0 (two atoms with
#: a = 0), the multinomial path, and a near-critical law whose steps run
#: thousands of generations
ORACLE_CASES = [
    ("binary:0.5", 0.9, 3, ExtendedCount.from_log(700.0), 200),
    ("binary:1", 0.8, 2, ExtendedCount.exact(10**6), 200),
    ("pmf:3=1", 0.7, 2, ExtendedCount.from_log(800.0), 60),
    ("pmf:0=0.2,2=0.8", 0.9, 4, ExtendedCount.from_log(700.0), 100),
    ("pmf:1=0.3,2=0.3,5=0.4", 0.6, 3, ExtendedCount.from_log(700.0), 60),
    ("pmf:1=0.999,2=0.001", 0.95, 2000, ExtendedCount.exact(10**5), 1),
]


def assert_same_paths(got, want):
    for field in ("termination", "steps", "exact", "log", "ratio"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field


class TestOracle:
    """The engine against the one-chunk engine of tests/reference.py, which
    compacts every generation: the same paths, byte for byte."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec, theta, x0, threshold, horizon", ORACLE_CASES)
    def test_lockstep_batch_matches_each_chunk_alone(self, spec, theta, x0, threshold, horizon, seed):
        params = IGWParams(parse_law_spec(spec), theta)
        sizes = (1, 7, 1024, 2500)
        want = [
            reference.simulate_chunk(
                x0, params, horizon, threshold, stream_for(seed, c, spec), size, record=True
            )
            for c, size in enumerate(sizes)
        ]
        for record in (False, True):
            gens = [stream_for(seed, c, spec) for c in range(len(sizes))]
            got = simulate_chunks(x0, params, horizon, threshold, gens, sizes, record=record)
            for paths, ref in zip(got, want):
                if not record:
                    ref = igw_process.ChunkPaths(ref.termination, ref.steps)
                assert_same_paths(paths, ref)
        # a chunk alone is the batch of one
        gen = stream_for(seed, 1, spec)
        alone = simulate_chunks(x0, params, horizon, threshold, [gen], [7], record=True)[0]
        assert_same_paths(alone, want[1])

    def test_threshold_stops_are_undecided_when_p0_is_positive(self):
        # p_0 > 0: the chain dies almost surely, so a path that reached the
        # threshold is counted undecided, and nothing is reported exploded;
        # the paths themselves are the oracle's
        params = IGWParams(parse_law_spec("pmf:0=0.1,1=0.4,2=0.5"), 0.9)
        threshold = ExtendedCount.exact(10**9)
        counts = sum(
            np.bincount(reference.simulate_chunk(
                4, params, 200, threshold, stream_for(5, c, "mc-death:4"), size
            ).termination, minlength=3)
            for c, size in enumerate((RNG_CHUNK, 976))
        )
        assert counts[EXPLODED] > 0.4 * 2000  # the threshold stops most paths
        result = mc_death_prob(4, params, 2000, 200, threshold, 5)
        assert result.estimate.successes == counts[DIED]
        assert result.exploded_fraction == 0.0
        assert result.undecided_fraction == (counts[EXPLODED] + counts[UNDECIDED]) / 2000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_drivers_match_the_oracle(self, workers):
        tiers = IGWParams(OffspringLaw.binary(0.5), 0.9)
        threshold = ExtendedCount.from_log(700.0)
        counts = sum(
            np.bincount(reference.simulate_chunk(
                3, tiers, 200, threshold, stream_for(11, c, "mc-death:3"), size
            ).termination, minlength=3)
            for c, size in enumerate((RNG_CHUNK, RNG_CHUNK, 452))
        )
        result = mc_death_prob(3, tiers, 2500, 200, threshold, 11, workers=workers)
        assert result.estimate.successes == counts[DIED]
        assert result.exploded_fraction == counts[EXPLODED] / 2500
        assert result.undecided_fraction == counts[UNDECIDED] / 2500

        growth = IGWParams(OffspringLaw.binary(0.5), 1.0)
        level, log_m = ExtendedCount.exact(100), math.log(1.5)
        far = ExtendedCount(log_value=1e30)
        want = np.concatenate([
            _crossing_errors(level, log_m, c, reference.simulate_chunk(
                6, growth, 256, far, stream_for(12, c, "mc-ratio:6"), size, record=True
            ))
            for c, size in enumerate((RNG_CHUNK, RNG_CHUNK, 52))
        ])
        got = ratio_crossing_errors(growth, 6, 2100, 100, 12, workers=workers)
        assert got == [tuple(e) for e in want.tolist()]

    def test_recorded_batches_hold_no_more_than_one_chunk(self):
        # a recorded run of 8 chunks at horizon 256 holds one chunk's rows
        # at a time, each written once (1024 x 257 states, logs and ratios:
        # 6.3 MB), about half the peak of the oracle, which holds its rows
        # twice while they become arrays
        params = IGWParams(OffspringLaw.explicit({1: 1.0}), 1.0)  # every path reaches the horizon
        threshold = ExtendedCount.exact(10**6)
        tracemalloc.start()
        try:
            reference.simulate_chunk(
                5, params, 256, threshold, stream_for(0, 0, "m"), RNG_CHUNK, record=True
            )
            one_chunk = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out = map_chunks(_chunk_size, 5, params, 256, threshold, 0, "m", 8 * RNG_CHUNK, record=True)
            batched = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == [(c, RNG_CHUNK) for c in range(8)]
        assert batched <= 0.6 * one_chunk, (batched, one_chunk)


#: the scalar simulator and the helpers only tests read, whose oracles live
#: in tests/reference.py, and the wrappers of the law's cached moments
REMOVED = {
    "igw_process": (
        "step", "simulate_trajectory", "asymptotic_ratios", "Trajectory", "RatioRow",
        "simulate_chunk", "_simulate_lockstep", "_streams", "_finishes",
    ),
    "gw_engine": (
        "simulate_total_progeny", "thin", "_next_generation_exact", "INDIVIDUAL_DRAW_LIMIT",
        "_logaddexp", "_log_of_int", "ZERO_COUNT", "RngStream", "LawContext", "law_context",
    ),
    "reproduction_laws": ("sample_offspring", "chi", "log_chi", "mean", "variance"),
    "exact_dist": ("transition_kernel", "_envelope_kernels", "_Kernel", "_distinct"),
}


def test_scalar_path_is_gone():
    modules = {name: importlib.import_module(f"igw.{name}") for name in REMOVED}
    for name in sorted({n for names in REMOVED.values() for n in names}):
        assert not hasattr(igw, name), name
        for module in modules.values():
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(OffspringLaw, "cum_probs")
    for path in Path(igw.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("tests", "reference", "conftest"), (path.name, name)


#: names that moved to the module that owns their decision: the count
#: ladder, the stream key and the estimators that read the engine's verdicts
MOVED = {
    ("gw_engine", "igw_process"): (
        "DEFAULT_EXACT_CAP", "LOG_EXACT_CAP", "LOG_VALUE_LIMIT", "_MASK64", "ExtendedCount",
        "stream_for",
    ),
    ("analysis", "igw_process"): (
        "McEstimate", "wilson_interval", "McDeathResult", "_verdict_counts", "mc_death_prob",
        "RatioTableRow", "_RATIO_THRESHOLD", "_ratio_log_m", "_ratio_paths", "_exploded_ratios",
        "mc_ratio_convergence", "_sorted_quantile", "_sorted_median", "_crossing_errors",
        "ratio_crossing_errors",
    ),
}

#: the moved names that ``igw`` exported before the move, and still does
EXPORTED = (
    "DEFAULT_EXACT_CAP", "ExtendedCount", "stream_for", "McEstimate", "McDeathResult",
    "wilson_interval", "mc_death_prob", "mc_ratio_convergence", "ratio_crossing_errors",
)


def test_moved_names_have_one_home():
    # no alias is left behind, and the package's name is the new home's object
    for (old, new), names in MOVED.items():
        old_module = importlib.import_module(f"igw.{old}")
        new_module = importlib.import_module(f"igw.{new}")
        for name in names:
            assert not hasattr(old_module, name), (old, name)
            obj = getattr(new_module, name)
            if callable(obj):
                assert obj.__module__ == new_module.__name__, name
            assert getattr(igw, name, obj) is obj, name
    assert all(hasattr(igw, name) for name in EXPORTED)


#: the sibling modules each engine module may import from
LAYERS = {
    "reproduction_laws": set(),
    "exact_dist": {"reproduction_laws"},
    "gw_engine": {"reproduction_laws"},
    "igw_process": {"reproduction_laws"},
    "analysis": {"exact_dist", "gw_engine", "reproduction_laws"},
}


def _package_imports(path: Path, modules: set[str]) -> set[str]:
    """The modules of the package that a source file imports from, relative
    or absolute, deferred ones included; ``__init__`` for the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "igw"):
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "igw":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_engine_layering():
    src = Path(igw.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    assert set(LAYERS) <= modules
    for name, allowed in LAYERS.items():
        imported = _package_imports(src / f"{name}.py", modules)
        assert imported <= allowed, (name, imported - allowed)
