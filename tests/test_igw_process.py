import ast
import importlib
import math
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
    parse_law_spec,
    simulate_chunk,
    stream_for,
)
import igw.igw_process as igw_process
from igw.igw_process import DIED, EXPLODED, TERMINATIONS, UNDECIDED, _chunk_step
from igw.gw_engine import law_context

import reference
from conftest import first_states

FAR = ExtendedCount.from_log(1e20)


class TestStep:
    def test_zero_is_absorbing(self, monkeypatch):
        # a replica that dies leaves the live set: no zero state is stepped
        def checked(ctx, theta, xi, xl, gen):
            assert (xi != 0).all()
            return _chunk_step(ctx, theta, xi, xl, gen)

        monkeypatch.setattr(igw_process, "_chunk_step", checked)
        params = IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5)
        paths = simulate_chunk(2, params, 40, ExtendedCount.exact(10**9), stream_for(8, 0, "abs"))
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
            law_context(params.law), 0.8, np.array([-1]), np.array([100.0]), stream_for(0, 0, "s")
        )
        expected = math.exp(100.0) * math.log(1.5) + math.log(1.5 / 0.5) + math.log(0.8)
        assert ni[0] == -1 and nl[0] == pytest.approx(expected, rel=1e-12)

    def test_log_tier_needs_supercritical(self):
        ctx = law_context(OffspringLaw.explicit({0: 0.5, 1: 0.5}))
        with pytest.raises(RegimeError):
            _chunk_step(ctx, 1.0, np.array([-1]), np.array([100.0]), stream_for(0, 0, "s"))


class TestTrajectory:
    def test_immediate_death(self):
        params = IGWParams(OffspringLaw.explicit({0: 1.0}), 0.9)
        paths = simulate_chunk(1, params, 50, ExtendedCount.exact(10**6), stream_for(0, 0, "t"), 1, record=True)
        assert TERMINATIONS[paths.termination[0]] is TerminationKind.DIED
        assert paths.steps[0] == 1
        assert paths.exact[1, 0] == 0

    def test_deterministic_prefix_and_explosion(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        paths = simulate_chunk(1, params, 50, ExtendedCount.exact(10**6), stream_for(0, 0, "t"), 1, record=True)
        assert TERMINATIONS[paths.termination[0]] is TerminationKind.EXPLODED
        assert paths.exact[:4, 0].tolist() == [1, 2, 6, 126]
        # S_126 = 2^127 - 2 crosses any desk-scale threshold
        assert paths.exact[4, 0] == -1 and paths.log[4, 0] > math.log(10**6)
        assert paths.steps[0] == 4

    def test_never_dies_without_thinning(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        paths = simulate_chunk(5, params, 30, FAR, stream_for(4, 0, "nd"), 50, record=True)
        assert not (paths.termination == DIED).any()
        for r in range(50):
            assert (np.diff(paths.log[: paths.steps[r] + 1, r]) >= 0).all()

    def test_absorption_invariant(self):
        # a path dies at its first zero state and is reported at that step
        params = IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5)
        paths = simulate_chunk(2, params, 40, ExtendedCount.exact(10**9), stream_for(8, 0, "abs"), 200, record=True)
        for r in range(200):
            n = paths.steps[r]
            assert (paths.exact[1:n, r] != 0).all()
            assert (paths.exact[n, r] == 0) == (paths.termination[r] == DIED)

    def test_ratios_defined_where_expected(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.5)
        paths = simulate_chunk(1, params, 20, FAR, stream_for(5, 0, "r"), 200, record=True)
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
        # paths cross the exact, Gaussian and log tiers before exploding.
        # From x0 = 1 at theta = 0.7 both verdicts are common: P(die) is
        # 0.5584 here and 0.2481 at theta = sqrt(0.7), so a wrong thinning
        # rate in either simulator moves its death fraction by many SE
        params = IGWParams(OffspringLaw.binary(0.5), 0.7)
        threshold = ExtendedCount.from_log(700.0)
        counts = np.zeros(3)
        for c in range(4):
            paths = simulate_chunk(1, params, 200, threshold, stream_for(6, c, "tiers"))
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
        gen = stream_for(0, 0, "t")
        threshold = ExtendedCount.exact(10**6)
        with pytest.raises(ValueError):
            simulate_chunk(0, params, 10, threshold, gen)
        with pytest.raises(ValueError):
            simulate_chunk(1, params, 0, threshold, gen)
        with pytest.raises(ValueError):
            simulate_chunk(10, params, 10, ExtendedCount.exact(5), gen)

    def test_rejects_laws_that_overflow_int64(self):
        # 2^48 individuals with up to 2^15 children each reach 2^63
        wide = OffspringLaw.explicit({1: 0.5, 2**15: 0.5}, max_k=2**15)
        with pytest.raises(ValueError, match="int64"):
            simulate_chunk(1, IGWParams(wide, 1.0), 10, ExtendedCount.exact(10**6), stream_for(0, 0, "t"))


#: the scalar simulator and the helpers only tests read; their oracles live
#: in tests/reference.py
REMOVED = {
    "igw_process": ("step", "simulate_trajectory", "asymptotic_ratios", "Trajectory", "RatioRow"),
    "gw_engine": (
        "simulate_total_progeny", "thin", "_next_generation_exact", "INDIVIDUAL_DRAW_LIMIT",
        "_logaddexp", "_log_of_int", "ZERO_COUNT", "RngStream",
    ),
    "reproduction_laws": ("sample_offspring", "chi", "log_chi"),
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
