import math
import pickle
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from igw import (
    IGWParams,
    LawSpecError,
    OffspringLaw,
    format_law_spec,
    parse_law_spec,
    pgf_eval,
    stream_for,
    thinned_pgf,
)

from conftest import first_states, small_laws
from reference import chi, log_chi


def offspring_draws(law: OffspringLaw, n: int, rng) -> np.ndarray:
    """n offspring counts as the batched engine draws them: X_1 from state
    1 at theta = 1 is Z_1."""
    return first_states(1, IGWParams(law, 1.0), n, rng)[0]


class TestLawConstruction:
    def test_binary_expands_to_explicit(self):
        lam = 0.4
        b = OffspringLaw.binary(lam)
        e = OffspringLaw.explicit({1: 0.6, 2: 0.4})
        assert b == e
        for s in np.linspace(0.0, 1.0, 11):
            assert pgf_eval(b, s) == pgf_eval(e, s)

    def test_negative_probability_rejected(self):
        with pytest.raises(LawSpecError):
            OffspringLaw.explicit({0: -0.1, 1: 1.1})

    def test_unnormalized_rejected_not_renormalized(self):
        with pytest.raises(LawSpecError):
            OffspringLaw.explicit({0: 0.5, 1: 0.5 + 1e-9})

    def test_support_cap(self):
        with pytest.raises(LawSpecError):
            OffspringLaw.explicit({100: 1.0})
        OffspringLaw.explicit({100: 1.0}, max_k=128)

    def test_theta_domain(self):
        law = OffspringLaw.binary(0.5)
        with pytest.raises(LawSpecError):
            IGWParams(law, 0.0)
        with pytest.raises(LawSpecError):
            IGWParams(law, 1.0 + 1e-9)
        IGWParams(law, 1.0)


class TestPgf:
    def test_binary_half_at_half(self):
        assert pgf_eval(OffspringLaw.binary(0.5), 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_normalization_at_one(self):
        for law in [OffspringLaw.binary(0.3), OffspringLaw.explicit({0: 0.2, 2: 0.8})]:
            assert pgf_eval(law, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_atom(self):
        assert pgf_eval(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.5) == pytest.approx(0.4, abs=1e-15)

    def test_domain_rejected(self):
        law = OffspringLaw.binary(0.5)
        with pytest.raises(ValueError):
            pgf_eval(law, -0.01)
        with pytest.raises(ValueError):
            pgf_eval(law, 1.01)

    @settings(max_examples=50, deadline=None)
    @given(small_laws())
    def test_monotone_and_convex(self, law):
        grid = np.linspace(0.0, 1.0, 41)
        vals = np.array([pgf_eval(law, s) for s in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-12)

    @settings(max_examples=50, deadline=None)
    @given(small_laws())
    def test_derivative_at_one_matches_mean(self, law):
        # one-sided second-order difference keeps the stencil inside [0, 1]
        h = 1e-6
        deriv = (3 * pgf_eval(law, 1.0) - 4 * pgf_eval(law, 1.0 - h) + pgf_eval(law, 1.0 - 2 * h)) / (2 * h)
        m = law.m
        assert deriv == pytest.approx(m, rel=1e-6, abs=1e-9)


class TestMeanVariance:
    def test_binary_mean(self):
        for lam in (0.0, 0.25, 1.0):
            assert OffspringLaw.binary(lam).m == pytest.approx(1 + lam, abs=1e-15)

    def test_degenerate(self):
        assert OffspringLaw.explicit({1: 1.0}).m == 1.0

    def test_two_atom(self):
        assert OffspringLaw.explicit({0: 0.5, 3: 0.5}).m == pytest.approx(1.5, abs=1e-15)

    def test_variance_binary(self):
        lam = 0.5
        assert OffspringLaw.binary(lam).v == pytest.approx(lam * (1 - lam), abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        small_laws(),
        st.sampled_from([0, 1, 3]).map(lambda k: OffspringLaw.explicit({k: 1.0})),
    ))
    def test_cached_constants(self, law):
        # the constants the engine reads, bit for bit as computed from the
        # pmf, -inf and nan included; cached on first read, and a cached
        # law pickles (worker processes receive laws)
        m = math.fsum(k * p for k, p in enumerate(law.probs))
        second = math.fsum(k * k * p for k, p in enumerate(law.probs))
        want = {
            "m": m,
            "v": max(second - m * m, 0.0),
            "log_m": math.log(m) if m > 0.0 else -math.inf,
            "log_fold": math.log(m / (m - 1.0)) if m > 1.0 else math.nan,
        }

        def bits(x: float) -> bytes:
            return struct.pack("<d", x)

        assert not set(want) & set(vars(law))
        for name, value in want.items():
            assert bits(getattr(law, name)) == bits(value), name
            assert bits(vars(law)[name]) == bits(value), name
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law
        for name, value in want.items():
            assert bits(vars(copy)[name]) == bits(value), name


class TestThinnedPgf:
    def test_deterministic_pair(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        assert thinned_pgf(params, 0.0) == pytest.approx(0.04, abs=1e-15)

    def test_theta_one_is_identity(self):
        law = OffspringLaw.explicit({0: 0.1, 1: 0.4, 3: 0.5})
        params = IGWParams(law, 1.0)
        for s in np.linspace(0, 1, 11):
            assert thinned_pgf(params, s) == pgf_eval(law, s)

    def test_fixed_point_value(self):
        # smallest root of s = g(s) for binary(0.5), theta = 0.9, found
        # independently from the quadratic's coefficients
        roots = np.roots([0.405, 0.54 - 1.0, 0.055])
        root = float(min(r.real for r in roots if 0 <= r.real < 1))
        assert root == pytest.approx(11.0 / 81.0, abs=1e-12)
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        assert thinned_pgf(params, root) == pytest.approx(root, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(small_laws())
    def test_matches_substitution(self, law):
        theta = 0.7
        params = IGWParams(law, theta)
        for s in np.linspace(0, 1, 9):
            assert thinned_pgf(params, s) == pgf_eval(law, 1 - theta + theta * s)


class TestChi:
    def test_doubling(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        assert chi(params, 3) == pytest.approx(14.0, abs=1e-12)

    def test_critical(self):
        params = IGWParams(OffspringLaw.explicit({1: 1.0}), 0.5)
        assert chi(params, 4) == pytest.approx(2.0, abs=1e-15)

    def test_binary_case(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        assert chi(params, 2) == pytest.approx(3.0, abs=1e-12)

    def test_zero_start(self):
        assert chi(IGWParams(OffspringLaw.binary(0.5), 0.8), 0) == 0.0

    def test_increment_identity(self):
        # chi(x+1) - chi(x) = theta * m^(x+1)
        for law in [OffspringLaw.binary(0.1), OffspringLaw.explicit({0: 0.6, 1: 0.2, 2: 0.2})]:
            params = IGWParams(law, 0.7)
            m = law.m
            for x in range(0, 51):
                inc = chi(params, x + 1) - chi(params, x)
                assert inc == pytest.approx(0.7 * m ** (x + 1), rel=1e-9)

    def test_log_domain_large_x(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        lv = log_chi(params, 10_000)
        assert math.isfinite(lv)
        assert lv == pytest.approx(10_000 * math.log(1.5) + math.log(0.8 * 1.5 / 0.5), rel=1e-9)
        assert chi(params, 10_000) == math.inf

    def test_log_matches_linear_when_small(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        for x in (1, 5, 30):
            assert math.exp(log_chi(params, x)) == pytest.approx(chi(params, x), rel=1e-12)

    def test_subcritical_log(self):
        params = IGWParams(OffspringLaw.explicit({0: 0.6, 1: 0.2, 2: 0.2}), 0.9)
        for x in (1, 10, 100):
            assert math.exp(log_chi(params, x)) == pytest.approx(chi(params, x), rel=1e-12)


class TestSampling:
    def test_point_mass(self):
        law = OffspringLaw.explicit({3: 1.0})
        assert (offspring_draws(law, 20, stream_for(1, 0, "test")) == 3).all()

    def test_binary_zero(self):
        law = OffspringLaw.binary(0.0)
        assert (offspring_draws(law, 20, stream_for(1, 0, "test")) == 1).all()

    def test_statistical_mean(self):
        law = OffspringLaw.binary(0.5)
        n = 100_000
        draws = offspring_draws(law, n, stream_for(42, 0, "test"))
        se = math.sqrt(law.v / n)
        assert abs(draws.mean() - 1.5) <= 4 * se

    def test_histogram_chisquare(self):
        # a multinomial law and a two-atom law, which draws by one binomial
        from scipy.stats import chisquare

        n = 100_000
        for law in (OffspringLaw.explicit({0: 0.2, 1: 0.3, 2: 0.5}), OffspringLaw.explicit({1: 0.4, 3: 0.6})):
            draws = offspring_draws(law, n, stream_for(7, 0, "gof"))
            observed = np.bincount(draws, minlength=law.max_k + 1)
            seen = law.probs_array > 0.0
            assert observed[~seen].sum() == 0
            _, pvalue = chisquare(observed[seen], n * law.probs_array[seen])
            assert pvalue > 1e-3


class TestSpecStrings:
    def test_binary_round_trip(self):
        law = OffspringLaw.binary(0.37)
        assert parse_law_spec(format_law_spec(law)) == law

    def test_pmf_round_trip(self):
        law = OffspringLaw.explicit({0: 0.125, 2: 0.5, 5: 0.375})
        again = parse_law_spec(format_law_spec(law))
        assert again == law

    def test_parse_binary(self):
        assert parse_law_spec("binary:0.5") == OffspringLaw.binary(0.5)

    def test_parse_pmf(self):
        law = parse_law_spec("pmf:0=0.2,2=0.8")
        assert law == OffspringLaw.explicit({0: 0.2, 2: 0.8})

    def test_errors_name_offending_token(self):
        with pytest.raises(LawSpecError, match="2=x"):
            parse_law_spec("pmf:0=0.5,2=x")
        with pytest.raises(LawSpecError, match="abc"):
            parse_law_spec("binary:abc")
        with pytest.raises(LawSpecError, match="gamma"):
            parse_law_spec("gamma:1.0")
        with pytest.raises(LawSpecError):
            parse_law_spec("pmf:3")
