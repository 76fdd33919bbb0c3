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
    RngStream,
    chi,
    harmonic_moment,
    mean,
    parse_law_spec,
    simulate_total_progeny,
    stream_for,
    thin,
    variance,
)

from igw.gw_engine import _iterate_upper, _trapezoid_grid

from conftest import enumerate_joint, enumerate_total_progeny, law_fractions


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
        a = RngStream(123, 456)
        b = RngStream(123, 456)
        assert np.array_equal(a.uniforms(100), b.uniforms(100))

    def test_distinct_streams_differ(self):
        a = RngStream(123, 1)
        b = RngStream(123, 2)
        assert not np.array_equal(a.uniforms(100), b.uniforms(100))

    def test_stream_for_is_stable(self):
        a = stream_for(9, 17, "mc-death")
        b = stream_for(9, 17, "mc-death")
        c = stream_for(9, 18, "mc-death")
        assert a.stream_id == b.stream_id != c.stream_id
        assert np.array_equal(a.uniforms(10), b.uniforms(10))


class TestTotalProgeny:
    def test_unit_law(self):
        gens, total = simulate_total_progeny(
            OffspringLaw.explicit({1: 1.0}), 5, stream_for(1, 0, "t")
        )
        assert [g.exact_value for g in gens] == [1, 1, 1, 1, 1]
        assert total.exact_value == 5

    def test_doubling_law(self):
        gens, total = simulate_total_progeny(
            OffspringLaw.explicit({2: 1.0}), 3, stream_for(1, 0, "t")
        )
        assert [g.exact_value for g in gens] == [2, 4, 8]
        assert total.exact_value == 14

    def test_zero_generations(self):
        gens, total = simulate_total_progeny(OffspringLaw.binary(0.5), 0, stream_for(1, 0, "t"))
        assert gens == [] and total.exact_value == 0

    def test_extinction_sticks(self):
        gens, total = simulate_total_progeny(
            OffspringLaw.explicit({0: 1.0}), 4, stream_for(1, 0, "t")
        )
        assert [g.exact_value for g in gens] == [0, 0, 0, 0]
        assert total.exact_value == 0

    def test_two_generation_pmf(self, binary_half):
        # hand-enumerated law of S_2 for one-or-two offspring with lam = 1/2
        expected = enumerate_total_progeny(law_fractions(binary_half), 2)
        n = 100_000
        counts: dict[int, int] = {}
        for r in range(n):
            _, total = simulate_total_progeny(binary_half, 2, stream_for(5, r, "s2"))
            counts[total.exact_value] = counts.get(total.exact_value, 0) + 1
        assert set(counts) == set(expected)
        for s, frac in expected.items():
            p = float(frac)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(s, 0) / n - p) <= 4 * se

    def test_nondecreasing_when_no_deaths(self, binary_half):
        for r in range(50):
            gens, total = simulate_total_progeny(binary_half, 12, stream_for(3, r, "mono"))
            values = [1] + [g.exact_value for g in gens]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert total.exact_value >= gens[-1].exact_value
            assert total.exact_value >= 12

    def test_mode_promotion_boundary(self):
        law = OffspringLaw.explicit({2: 1.0})
        gens47, _ = simulate_total_progeny(law, 47, stream_for(1, 0, "p"))
        assert all(g.is_exact for g in gens47)
        assert [g.exact_value for g in gens47] == [2**k for k in range(1, 48)]
        gens49, _ = simulate_total_progeny(law, 49, stream_for(1, 0, "p"))
        assert all(g.is_exact for g in gens49[:48])  # 2^48 == cap stays exact
        assert not gens49[48].is_exact
        assert gens49[48].log() == pytest.approx(49 * math.log(2), rel=1e-12)

    def test_total_mean_matches_chi(self, binary_half):
        # E(S_x) = chi(x)/theta
        x, n = 4, 50_000
        totals = np.array(
            [
                simulate_total_progeny(binary_half, x, stream_for(11, r, "mean"), record_generations=False)[1].exact_value
                for r in range(n)
            ],
            dtype=float,
        )
        expected = chi(IGWParams(binary_half, 1.0), x)
        se = totals.std(ddof=1) / math.sqrt(n)
        assert abs(totals.mean() - expected) <= 4 * se

    def test_recording_flag_consumes_same_draws(self, binary_half):
        _, t1 = simulate_total_progeny(binary_half, 10, stream_for(2, 7, "flag"))
        _, t2 = simulate_total_progeny(
            binary_half, 10, stream_for(2, 7, "flag"), record_generations=False
        )
        assert t1 == t2

    def test_deterministic_growth_beyond_float(self):
        # 2^k exceeds 1e300 around k = 997; totals stay finite in log space
        law = OffspringLaw.explicit({2: 1.0})
        gens, total = simulate_total_progeny(law, 1200, stream_for(0, 0, "big"))
        assert len(gens) == 1200
        assert gens[-1].log() == pytest.approx(1200 * math.log(2), rel=1e-9)
        assert total.log() == pytest.approx(1201 * math.log(2), rel=1e-9)

    def test_gaussian_tier_hands_over_once_noise_is_below_rounding(self, binary_half):
        # m = 1.5, v = 0.25: the relative sd of the remaining noise falls
        # below 2^-60 near Z = e^82, about 120 generations past the exact cap
        class CountingStream(RngStream):
            normals_drawn = 0

            def normal(self):
                self.normals_drawn += 1
                return super().normal()

        def reference_log_total(x, rng):
            # the per-generation loop: Gaussian noise every generation up to
            # 1e300, then the deterministic fold
            m, v, log_m = 1.5, 0.25, math.log(1.5)
            z, s, k = 1, 0, 0
            while k < x and z <= DEFAULT_EXACT_CAP:
                z += rng.binomial(z, 0.5)
                s += z
                k += 1
            z_log, s_log = math.log(z), math.log(s)
            while k < x and z_log <= math.log(1e300):
                zf = math.exp(z_log)
                z_log = math.log(m * zf + math.sqrt(v * zf) * rng.normal())
                s_log = float(np.logaddexp(s_log, z_log))
                k += 1
            g = x - k
            block = z_log + log_m + g * log_m + math.log1p(-math.exp(-g * log_m)) - math.log(m - 1.0)
            return float(np.logaddexp(s_log, block))

        for r in range(3):
            rng = CountingStream(13, r)
            _, total = simulate_total_progeny(binary_half, 5000, rng, record_generations=False)
            reference = CountingStream(13, r)
            want = reference_log_total(5000, reference)
            assert rng.normals_drawn <= 200
            assert reference.normals_drawn > 1000
            assert total.log() == pytest.approx(want, rel=1e-10)


class TestThin:
    def test_theta_one_identity(self):
        c = ExtendedCount.exact(14)
        assert thin(c, 1.0, stream_for(0, 0, "t")) is c

    def test_zero(self):
        c = ExtendedCount.exact(0)
        assert thin(c, 0.5, stream_for(0, 0, "t")).exact_value == 0

    def test_binomial_moments(self):
        rng = stream_for(21, 0, "thin")
        n = 100_000
        draws = np.array([thin(ExtendedCount.exact(10), 0.5, rng).exact_value for _ in range(n)], dtype=float)
        se_mean = math.sqrt(2.5 / n)
        assert abs(draws.mean() - 5.0) <= 4 * se_mean
        assert draws.var(ddof=1) == pytest.approx(2.5, abs=0.1)

    def test_normal_approximation_branch(self):
        rng = stream_for(22, 0, "thin-big")
        n_individuals = 10**7
        draws = np.array(
            [thin(ExtendedCount.exact(n_individuals), 0.3, rng).exact_value for _ in range(2000)],
            dtype=float,
        )
        mu = n_individuals * 0.3
        sd = math.sqrt(n_individuals * 0.3 * 0.7)
        assert abs(draws.mean() - mu) <= 5 * sd / math.sqrt(2000)
        assert np.all(draws >= 0) and np.all(draws <= n_individuals)

    def test_log_mode_shift(self):
        c = ExtendedCount.from_log(200.0)
        out = thin(c, 0.25, stream_for(0, 0, "t"))
        assert out.log() == pytest.approx(200.0 + math.log(0.25), rel=1e-12)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            thin(ExtendedCount.exact(5), 0.0, stream_for(0, 0, "t"))


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
        # 300 points nearest 1, where the bound in 1 - s takes over
        law = parse_law_spec(spec)
        coef = [Fraction(p) for p in law.probs]
        scale = max(c.denominator for c in coef)
        ints = [int(c * scale) for c in coef]
        k_max = len(ints) - 1
        grid, _ = _trapezoid_grid()
        s = np.concatenate((grid[::613], grid[-300:]))
        for x in (1, 2, 3):
            upper = _iterate_upper(law, x, s)
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
        # P(Z_x <= t) <= t * E(1/Z_x), checked against simulation
        x, n = 5, 20_000
        h = harmonic_moment(binary_half, x)
        finals = np.array(
            [
                simulate_total_progeny(binary_half, x, stream_for(31, r, "markov"))[0][-1].exact_value
                for r in range(n)
            ]
        )
        for t in (float(x), float(x * x)):
            freq = float((finals <= t).mean())
            se = math.sqrt(freq * (1 - freq) / n) + 1e-9
            assert freq <= t * h + 4 * se
