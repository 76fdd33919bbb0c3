import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from igw import (
    DEFAULT_EXACT_CAP,
    ExtendedCount,
    IGWParams,
    OffspringLaw,
    RegimeError,
    harmonic_moment,
    mean,
    parse_law_spec,
    simulate_chunk,
    stream_for,
    variance,
)

from igw.gw_engine import _iterates, _trapezoid_grid, law_context
from igw.igw_process import _chunk_step, _chunk_totals, _remainder_log, _remainder_moments

import reference
from conftest import enumerate_joint, enumerate_total_progeny, first_states, law_fractions


def totals(law: OffspringLaw, x: int, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(exact, log) of S_x for n replicas: X_1 at theta = 1."""
    return first_states(x, IGWParams(law, 1.0), n, gen)


class CountingGenerator:
    """A numpy generator that counts the standard normals it hands out."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self.normals = 0

    def standard_normal(self, size=None):
        self.normals += 1 if size is None else size
        return self.gen.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.gen, name)


class TestExtendedCount:
    def test_exact_construction(self):
        c = ExtendedCount.exact(14)
        assert c.is_exact and c.exact_value == 14
        assert c.log() == pytest.approx(math.log(14))
        assert c.to_float() == 14.0

    def test_from_log_demotes_below_cap(self):
        c = ExtendedCount.from_log(math.log(1000.0))
        assert c.is_exact and c.exact_value == 1000

    def test_from_log_stays_log_above_cap(self):
        lv = math.log(2.0) * 60  # 2^60 > 2^48
        c = ExtendedCount.from_log(lv)
        assert not c.is_exact
        assert c.log() == pytest.approx(lv)

    def test_ordering_across_modes(self):
        small = ExtendedCount.exact(5)
        big = ExtendedCount.from_log(100.0)
        assert small < big
        assert ExtendedCount.exact(0) < small

    def test_zero_log(self):
        assert ExtendedCount.exact(0).log() == -math.inf

    def test_invalid(self):
        with pytest.raises(ValueError):
            ExtendedCount(exact_value=3, log_value=1.0)
        with pytest.raises(ValueError):
            ExtendedCount(exact_value=-1)
        with pytest.raises(ValueError):
            ExtendedCount(log_value=math.inf)


class TestRngStreams:
    def test_reproducible(self):
        a = stream_for(123, 456, "t")
        b = stream_for(123, 456, "t")
        assert np.array_equal(a.random(100), b.random(100))

    def test_distinct_streams_differ(self):
        keys = ((123, 1, "t"), (123, 2, "t"), (124, 1, "t"), (123, 1, "u"))
        draws = [stream_for(*key).random(100) for key in keys]
        for i, first in enumerate(draws):
            for second in draws[i + 1 :]:
                assert not np.array_equal(first, second)

    def test_stream_for_is_stable(self):
        a = stream_for(9, 17, "mc-death")
        b = stream_for(9, 17, "mc-death")
        c = stream_for(9, 18, "mc-death")
        first = a.random(10)
        assert np.array_equal(first, b.random(10))
        assert not np.array_equal(first, c.random(10))
        # the Philox key: the master seed, and a hash of (purpose, index) above it
        stream_id = int.from_bytes(hashlib.blake2s(b"mc-death|17", digest_size=8).digest(), "big")
        philox = np.random.Generator(np.random.Philox(key=9 | stream_id << 64))
        assert np.array_equal(first, philox.random(10))


class TestTotalProgeny:
    """S_x as the batched engine draws it: X_1 at theta = 1."""

    def test_unit_law(self):
        exact, _ = totals(OffspringLaw.explicit({1: 1.0}), 5, 4, stream_for(1, 0, "t"))
        assert (exact == 5).all()

    def test_doubling_law(self):
        exact, _ = totals(OffspringLaw.explicit({2: 1.0}), 3, 4, stream_for(1, 0, "t"))
        assert (exact == 14).all()

    def test_extinction_sticks(self):
        exact, _ = totals(OffspringLaw.explicit({0: 1.0}), 4, 4, stream_for(1, 0, "t"))
        assert (exact == 0).all()

    def test_two_generation_pmf(self, binary_half):
        # hand-enumerated law of S_2 for one-or-two offspring with lam = 1/2
        expected = enumerate_total_progeny(law_fractions(binary_half), 2)
        n = 100_000
        exact, _ = totals(binary_half, 2, n, stream_for(5, 0, "s2"))
        values, counts = np.unique(exact, return_counts=True)
        assert set(values.tolist()) == set(expected)
        for s, c in zip(values.tolist(), counts.tolist()):
            p = float(expected[s])
            se = math.sqrt(p * (1 - p) / n)
            assert abs(c / n - p) <= 4 * se

    def test_nondecreasing_when_no_deaths(self, binary_half):
        # every generation has at least one individual, so S_x >= x
        exact, _ = totals(binary_half, 12, 50, stream_for(3, 0, "mono"))
        assert (exact >= 12).all()

    def test_mode_promotion_boundary(self):
        # S_x = 2^(x+1) - 2: exact up to the cap 2^48, log-domain past it
        law = OffspringLaw.explicit({2: 1.0})
        exact, _ = totals(law, 47, 1, stream_for(1, 0, "p"))
        assert exact[0] == 2**48 - 2
        exact, logs = totals(law, 48, 1, stream_for(1, 0, "p"))
        assert exact[0] == -1
        assert logs[0] == pytest.approx(49 * math.log(2), rel=1e-12)

    def test_total_mean_matches_chi(self, binary_half):
        # E(S_x) = chi(x)/theta
        x, n = 4, 50_000
        exact, _ = totals(binary_half, x, n, stream_for(11, 0, "mean"))
        values = exact.astype(float)
        expected = reference.chi(IGWParams(binary_half, 1.0), x)
        se = values.std(ddof=1) / math.sqrt(n)
        assert abs(values.mean() - expected) <= 4 * se

    def test_recording_flag_consumes_same_draws(self, binary_half):
        params = IGWParams(binary_half, 0.7)
        runs = [
            simulate_chunk(2, params, 10, ExtendedCount.exact(10**9), stream_for(2, 7, "flag"), record=record)
            for record in (False, True)
        ]
        assert np.array_equal(runs[0].termination, runs[1].termination)
        assert np.array_equal(runs[0].steps, runs[1].steps)

    def test_deterministic_growth_beyond_float(self):
        # 2^k exceeds 1e300 around k = 997; totals stay finite in log space
        _, logs = totals(OffspringLaw.explicit({2: 1.0}), 1200, 1, stream_for(0, 0, "big"))
        assert logs[0] == pytest.approx(1201 * math.log(2), rel=1e-9)

    def test_gaussian_tier_hands_over_once_noise_is_below_rounding(self, binary_half):
        # m = 1.5, v = 0.25: the per-generation chain steps about 120
        # generations past the exact cap before the relative sd of the
        # remaining noise falls below 2^-60; the engine draws that rest of
        # the sum at once, from one standard normal
        def reference_log_total(x, gen):
            # the per-generation loop: Gaussian noise every generation up to
            # 1e300, then the deterministic fold
            m, v, log_m = 1.5, 0.25, math.log(1.5)
            z, s, k = 1, 0, 0
            while k < x and z <= DEFAULT_EXACT_CAP:
                z += gen.binomial(z, 0.5)
                s += z
                k += 1
            z_log, s_log = math.log(z), math.log(s)
            while k < x and z_log <= math.log(1e300):
                zf = math.exp(z_log)
                z_log = math.log(m * zf + math.sqrt(v * zf) * gen.standard_normal())
                s_log = float(np.logaddexp(s_log, z_log))
                k += 1
            g = x - k
            block = z_log + log_m + g * log_m + math.log1p(-math.exp(-g * log_m)) - math.log(m - 1.0)
            return float(np.logaddexp(s_log, block))

        for r in range(3):
            gen = CountingGenerator(stream_for(13, r, "normals"))
            _, logs = totals(binary_half, 5000, 1, gen)
            ref = CountingGenerator(stream_for(13, r, "normals"))
            want = reference_log_total(5000, ref)
            assert gen.normals == 1
            assert ref.normals > 1000
            assert logs[0] == pytest.approx(want, rel=1e-10)


#: laws for the one-draw remainder: two supercritical, one near-critical
#: (m = 1.001), one critical and one subcritical (m = 0.75)
REMAINDER_LAWS = (
    "binary:0.5",
    "pmf:1=0.3,2=0.3,5=0.4",
    "pmf:0=0.2495,1=0.5,2=0.2505",
    "pmf:0=0.25,1=0.5,2=0.25",
    "pmf:0=0.5,1=0.25,2=0.25",
)


class TestRemainder:
    """The rest of the sum once Z leaves the exact range, in one draw."""

    @pytest.mark.parametrize("spec", REMAINDER_LAWS)
    def test_moments_match_the_recursions(self, spec):
        # S_L = sum over the Z_1 children of 1 + S_{L-1}:
        # mu_L = m (1 + mu_{L-1}) and Var_L = m Var_{L-1} + v (1 + mu_{L-1})^2
        ctx = law_context(parse_law_spec(spec))
        log_mu, rho = _remainder_moments(ctx, np.arange(1, 61))
        mu, var = 0.0, 0.0
        for n in range(60):
            mu, var = ctx.m * (1.0 + mu), ctx.m * var + ctx.v * (1.0 + mu) ** 2
            assert math.exp(log_mu[n]) == pytest.approx(mu, rel=1e-12), (spec, n + 1)
            assert rho[n] == pytest.approx(var / mu**2, rel=1e-12), (spec, n + 1)

    @pytest.mark.parametrize(
        "spec, left",
        [("binary:0.5", n) for n in (1, 7, 300)]
        + [(spec, n) for spec in REMAINDER_LAWS[3:] for n in (1, 7, 300, 2**40)],
    )
    def test_draws_have_the_exact_mean_and_variance(self, spec, left):
        # standardized through the draw's own log mu_L: at m = 1.5 and
        # L = 2^40, log R is near 4.5e11, whose ulp (6e-5) is far above the
        # relative sd 1.7e-8 of R, so only laws with m <= 1 resolve that L
        ctx = law_context(parse_law_spec(spec))
        n = 20_000
        z_log = np.full(n, 50 * math.log(2.0))
        left = np.full(n, left, np.int64)
        log_r = _remainder_log(ctx, z_log, left, stream_for(5, left[0], spec))
        log_mu, rho = _remainder_moments(ctx, left)
        w = np.expm1(log_r - (z_log + log_mu)) / np.sqrt(rho * np.exp(-z_log))
        assert abs(w.mean()) <= 4 / math.sqrt(n)
        assert abs(w.var(ddof=1) - 1.0) <= 4 * math.sqrt(2.0 / (n - 1))

    @pytest.mark.parametrize("spec", REMAINDER_LAWS[2:])
    def test_draws_stay_finite_without_growth(self, spec):
        # m <= 1 (and m near 1): up to 2^62 generations left, no overflow
        # and no nan; a clamped draw is R = 0, so S = Z + R stays finite
        ctx = law_context(parse_law_spec(spec))
        left = np.array([1, 2, 10**6, 2**40, 2**48, 2**62] * 500, np.int64)
        z_log = np.full(left.size, math.log(DEFAULT_EXACT_CAP + 1.0))
        log_mu, rho = _remainder_moments(ctx, left)
        assert np.isfinite(log_mu).all() and np.isfinite(rho).all() and (rho > 0).all()
        log_r = _remainder_log(ctx, z_log, left, stream_for(6, 0, spec))
        assert not np.isnan(log_r).any() and (log_r < np.inf).all()
        assert np.isfinite(np.logaddexp(z_log, log_r)).all()


class TestThin:
    """Thinning as the batched engine's step applies it to S_x."""

    def test_theta_one_identity(self, binary_half):
        # theta = 1 leaves the totals as drawn and draws nothing more
        ctx = law_context(binary_half)
        x = np.arange(1, 200)
        want, want_log = _chunk_totals(ctx, x, stream_for(0, 0, "t"))
        got, got_log = _chunk_step(ctx, 1.0, x, np.log(x), stream_for(0, 0, "t"))
        assert np.array_equal(got, want) and np.array_equal(got_log, want_log)

    def test_zero(self):
        exact, _ = first_states(1, IGWParams(OffspringLaw.explicit({0: 1.0}), 0.5), 10, stream_for(0, 0, "t"))
        assert (exact == 0).all()

    def test_binomial_moments(self):
        # ten children from state 1, each kept with probability 1/2
        params = IGWParams(OffspringLaw.explicit({10: 1.0}), 0.5)
        n = 100_000
        draws = first_states(1, params, n, stream_for(21, 0, "thin"))[0].astype(float)
        se_mean = math.sqrt(2.5 / n)
        assert abs(draws.mean() - 5.0) <= 4 * se_mean
        assert draws.var(ddof=1) == pytest.approx(2.5, abs=0.1)

    def test_normal_approximation_branch(self):
        # S_20 = 2^21 - 2 individuals, above the exact binomial limit
        n_individuals = 2**21 - 2
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 0.3)
        n = 2000
        draws = first_states(20, params, n, stream_for(22, 0, "thin-big"))[0].astype(float)
        mu = n_individuals * 0.3
        var = n_individuals * 0.3 * 0.7
        assert abs(draws.mean() - mu) <= 5 * math.sqrt(var / n)
        assert abs(draws.var(ddof=1) / var - 1.0) <= 4 * math.sqrt(2.0 / (n - 1))
        assert np.all(draws >= 0) and np.all(draws <= n_individuals)

    def test_log_mode_shift(self):
        # S_100 = 2^101 - 2 is past the exact range: thinning shifts its log
        law = OffspringLaw.explicit({2: 1.0})
        _, full = first_states(100, IGWParams(law, 1.0), 1, stream_for(0, 0, "t"))
        exact, thinned = first_states(100, IGWParams(law, 0.25), 1, stream_for(0, 0, "t"))
        assert exact[0] == -1
        assert thinned[0] == pytest.approx(full[0] + math.log(0.25), rel=1e-12)


class TestHarmonicMoment:
    def test_unit_law(self):
        law = OffspringLaw.explicit({1: 1.0})
        for x in (1, 3, 10):
            h = harmonic_moment(law, x)
            assert 1.0 <= h <= 1.0 + 1e-10

    @pytest.mark.parametrize(
        "spec, y_max", [("binary:0.5", 4), ("pmf:1=0.3,2=0.3,5=0.4", 3), ("pmf:1=0.5,3=0.5", 4)]
    )
    def test_bound_brackets_exact_value(self, spec, y_max):
        # exact <= bound: the trapezoid rule over a convex integrand, rounded
        # outward.  bound - exact: at most (2**-16)**2 / 8 * (E(Z_y) - 1), the
        # chord's excess over cells of width <= 2**-16, or 1e-10 if larger.
        law = parse_law_spec(spec)
        m = mean(law)
        for y in range(1, y_max + 1):
            joint = enumerate_joint(law_fractions(law), y)
            exact = sum(p / Fraction(z) for (z, _s), p in joint.items())
            bound = Fraction(harmonic_moment(law, y))
            slack = max(1e-10, 2.0**-35 * (m**y - 1.0))
            assert exact <= bound <= exact + Fraction(slack), (spec, y, float(bound - exact))

    def test_five_child_law_stays_finite(self):
        # the upward-rounded iterates are clamped at 1; unclamped, a K = 5
        # law overflows within 65 generations
        with np.errstate(over="raise", invalid="raise"):
            h = harmonic_moment(parse_law_spec("pmf:1=0.3,2=0.3,5=0.4"), 65)
        assert math.isfinite(h) and 0.0 < h < 1e-15

    @pytest.mark.parametrize("spec", ["binary:0.5", "pmf:1=0.3,2=0.3,5=0.4", "pmf:2=0.5,3=0.5"])
    def test_iterates_bound_pgf_from_above(self, spec):
        # f_x(s) in exact dyadic arithmetic at every 613th grid point and the
        # 300 points nearest 1, where the bound in 1 - s takes over, against
        # the first three values of one pass
        law = parse_law_spec(spec)
        coef = [Fraction(p) for p in law.probs]
        scale = max(c.denominator for c in coef)
        ints = [int(c * scale) for c in coef]
        k_max = len(ints) - 1
        grid, _ = _trapezoid_grid()
        s = np.concatenate((grid[::613], grid[-300:]))
        for x, upper in zip((1, 2, 3), _iterates(law, s)):
            for point, bound in zip(s.tolist(), upper.tolist()):
                num, den = point.as_integer_ratio()  # f(num/den) = sum b_k num^k den^(K-k) / (scale den^K)
                for _ in range(x):
                    num, den = (
                        sum(b * num**k * den ** (k_max - k) for k, b in enumerate(ints) if b),
                        scale * den**k_max,
                    )
                exact = Fraction(num, den)
                assert exact <= Fraction(bound), (spec, x, point)
                assert bound <= float(exact) * (1.0 + 1e-13) + 2.0**-51, (spec, x, point)

    def test_grid_is_exact(self):
        s, width = _trapezoid_grid()
        assert len(s) == 68_523 and s[0] == 0.0 and s[-1] == 1.0
        assert width.max() == 2.0**-16 and width.min() > 0.0
        for a, b, w in zip(s[:-1].tolist(), s[1:].tolist(), width.tolist()):
            assert Fraction(b) - Fraction(a) == Fraction(w)
            assert Fraction(1) - Fraction(b) == Fraction(1.0 - b)

    def test_binary_one_generation(self, binary_half):
        assert harmonic_moment(binary_half, 1) == pytest.approx(0.75, abs=1e-10)

    def test_binary_two_generations_vs_enumeration(self, binary_half):
        joint = enumerate_joint(law_fractions(binary_half), 2)
        expected = sum(p / Fraction(z) for (z, _s), p in joint.items())
        assert expected == Fraction(53, 96)
        assert harmonic_moment(binary_half, 2) == pytest.approx(float(expected), abs=1e-9)

    def test_rejects_positive_p0(self):
        with pytest.raises(RegimeError):
            harmonic_moment(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 1)

    def test_strictly_decreasing(self, binary_half):
        values = [harmonic_moment(binary_half, x) for x in range(1, 7)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_markov_tail_bound(self, binary_half):
        # P(Z_x <= t) <= t * E(1/Z_x), checked against the scalar simulator
        x, n = 5, 20_000
        h = harmonic_moment(binary_half, x)
        finals = np.array(
            [
                reference.total_progeny(binary_half, x, stream_for(31, r, "markov"))[0].exact_value
                for r in range(n)
            ]
        )
        for t in (float(x), float(x * x)):
            freq = float((finals <= t).mean())
            se = math.sqrt(freq * (1 - freq) / n) + 1e-9
            assert freq <= t * h + 4 * se
