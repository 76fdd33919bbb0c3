import math
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from igw import (
    Caps,
    ExtendedCount,
    IGWParams,
    OffspringLaw,
    RegimeError,
    binary_death_bound,
    death_prob_interval,
    explosion_lower_bound,
    finite_horizon_death,
    fixed_point_q,
    geometric_absorption_check,
    geometric_death_bound,
    harmonic_moments,
    mc_death_prob,
    mc_ratio_convergence,
    parse_law_spec,
    ratio_crossing_errors,
    submultiplicativity_check,
    thinned_pgf,
    wilson_interval,
)
import igw.analysis as analysis
import igw.igw_process as igw_process
import igw.reproduction_laws as reproduction_laws
from igw.analysis import (
    MAX_START,
    MAX_SWITCH,
    _carried,
    _chernoff_thinning,
    _contraction,
    _harmonic_tail,
    _stall_bound,
    _switch_point,
)
from igw.exact_dist import _envelope

import reference

SMALL_CAPS = Caps(256, 256, 64)


class TestFixedPoint:
    def test_deterministic_pair(self):
        q = fixed_point_q(IGWParams(OffspringLaw.binary(1.0), 0.8))
        assert q == pytest.approx(0.0625, abs=1e-9)

    def test_binary_half_pair(self):
        q = fixed_point_q(IGWParams(OffspringLaw.binary(0.5), 0.9))
        assert q == pytest.approx(11.0 / 81.0, abs=1e-9)

    def test_no_thinning_gives_zero(self):
        assert fixed_point_q(IGWParams(OffspringLaw.binary(0.7), 1.0)) == 0.0

    def test_subcritical_product_reports_one(self):
        # m * theta <= 1: no root below 1
        assert fixed_point_q(IGWParams(OffspringLaw.binary(0.5), 0.6)) == 1.0

    def test_residual_and_interiority_on_grid(self):
        tol = 1e-12
        for lam in (0.2, 0.5, 0.8, 1.0):
            for theta in (0.6, 0.75, 0.9, 0.99):
                params = IGWParams(OffspringLaw.binary(lam), theta)
                q = fixed_point_q(params, tol)
                if params.law.m * theta > 1.0:
                    assert q < 1.0
                    assert abs(thinned_pgf(params, q) - q) <= tol
                else:
                    assert q == 1.0

    def test_p0_rejected(self):
        with pytest.raises(RegimeError):
            fixed_point_q(IGWParams(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.9))

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        # a NaN tol once stopped the bisection at once, returning 0.25
        with pytest.raises(ValueError, match="tolerance"):
            fixed_point_q(IGWParams(OffspringLaw.binary(0.5), 0.9), tol)

    @pytest.mark.parametrize(
        "spec, theta",
        [("binary:0.5", 0.9), ("binary:1", 0.8), ("binary:0.6", 0.92), ("pmf:1=0.3,2=0.3,5=0.4", 0.5)],
    )
    def test_every_tol_above_the_floor_gives_the_same_bytes(self, spec, theta):
        # bisection stops at width min(tol, 1e-14): the envelope's q* and
        # the one `igw bounds q-star` prints are the same float
        params = IGWParams(parse_law_spec(spec), theta)
        want = fixed_point_q(params)
        assert 0.0 < want < 1.0
        for tol in (1e-14, 1e-13, 1e-12, 1e-6, 1e-3):
            assert fixed_point_q(params, tol).hex() == want.hex(), tol

    def test_one_home(self):
        # q* lives in reproduction_laws; analysis does not re-export it
        assert fixed_point_q is reproduction_laws.fixed_point_q
        assert not hasattr(analysis, "fixed_point_q")

    def test_tolerance_below_float_spacing_terminates(self):
        # the bracket cannot shrink below one float spacing at q*
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        q = fixed_point_q(params, 1e-300)
        assert abs(thinned_pgf(params, q) - q) <= 1e-15


class TestBinaryClosedForm:
    def test_values(self):
        assert binary_death_bound(1.0, 0.8) == pytest.approx(0.0625, abs=1e-15)
        assert binary_death_bound(0.5, 0.9) == pytest.approx(11.0 / 81.0, abs=1e-15)

    def test_no_thinning_is_zero(self):
        assert binary_death_bound(0.4, 1.0) == 0.0

    def test_matches_fixed_point_on_grid(self):
        for lam in (0.3, 0.5, 0.8, 1.0):
            for theta in (0.75, 0.85, 0.95, 1.0):
                if theta <= 1.0 / (1.0 + lam):
                    continue
                closed = binary_death_bound(lam, theta)
                q = fixed_point_q(IGWParams(OffspringLaw.binary(lam), theta), 1e-12)
                assert closed == pytest.approx(q, abs=1e-9)

    def test_threshold_rejected(self):
        with pytest.raises(RegimeError):
            binary_death_bound(0.5, 2.0 / 3.0)


class TestGeometricDeathBound:
    def test_values(self):
        assert geometric_death_bound(0.0625, 2) == pytest.approx(0.00390625, abs=1e-15)
        assert geometric_death_bound(1.0, 50) == 1.0
        assert geometric_death_bound(0.3, 0) == 1.0
        assert geometric_death_bound(0.0, 3) == 0.0
        # past the float range, pow's limit: what q1**x gives at x = 2000 already
        assert geometric_death_bound(1.0, 10**400) == 1.0
        assert geometric_death_bound(1.0 - 2.0**-53, 10**400) == 0.0

    def test_log_domain_for_large_x(self):
        v = geometric_death_bound(0.5, 5000)
        assert v == pytest.approx(math.exp(5000 * math.log(0.5)), rel=1e-9)

    @pytest.mark.parametrize("x", [1010, 1015, 1020, 10**400], ids=["1010", "1015", "1020", "10**400"])
    def test_exact_power_among_subnormals(self, x):
        # exp(x log q1) rounds below q1^x here; a bound must not.  ldexp is
        # the exact power of two, and 0.0 past the float range, where
        # 2.0**-x cannot convert x
        assert geometric_death_bound(0.5, x) == math.ldexp(1.0, -x)


class TestExplosionCertificate:
    def test_deterministic_law_certificate(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.9)
        cert = explosion_lower_bound(10, params)
        assert cert.valid
        assert 0.0 < cert.bound < 1.0
        hi = death_prob_interval(10, params, horizon=200).hi
        assert cert.bound + hi <= 1.0 + 1e-9

    def test_certificate_vs_mc(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.9)
        cert = explosion_lower_bound(10, params)
        res = mc_death_prob(10, params, 5000, 100, ExtendedCount.exact(10**6), master_seed=3)
        p_explode = res.exploded_fraction
        se = math.sqrt(max(p_explode * (1 - p_explode), 1e-12) / 5000)
        assert p_explode >= cert.bound - 4 * se

    def test_no_thinning_has_zero_thinning_term(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        cert = explosion_lower_bound(3, params, SMALL_CAPS)
        assert cert.valid and 0.0 < cert.bound < 1.0
        # without thinning the binomial term is identically zero, so every
        # analytic factor comes from the harmonic-moment side only
        exact_product = math.prod(1.0 - s.gamma for s in cert.steps if s.method == "exact")
        assert cert.bound <= exact_product

    def test_pinned_bounds_with_one_quadrature(self, monkeypatch):
        # one pass of certified harmonic bounds per (law, theta), walked to
        # the switch point y0 = 84 and one state past it, then carried by the
        # contraction; every start state shares it.  Pinned from this code;
        # the second entries are the bounds of the fixed switch point 64, the
        # third those an adaptive Simpson estimate padded by 1e-10 gave,
        # which may only be improved
        import igw.analysis

        drawn = []

        def counting(law):
            drawn.append(0)
            for h in harmonic_moments(law):
                drawn[-1] += 1
                yield h

        monkeypatch.setattr(igw.analysis, "harmonic_moments", counting)
        _switch_point.cache_clear()
        params = IGWParams(OffspringLaw.binary(0.6), 0.92)
        pinned = {
            2: (0.3954270314624218, 0.3954270256435304, 0.395418796324328),
            8: (0.9961406267260651, 0.9961406120673841, 0.9961198811650055),
        }
        for x, (want, fixed, simpson) in pinned.items():
            cert = explosion_lower_bound(x, params)
            assert cert.valid
            assert cert.bound == pytest.approx(want, rel=1e-12, abs=0.0)
            assert cert.bound >= fixed and cert.bound >= simpson
            assert drawn == [85]
            assert cert.harmonic_y == 84
            assert cert.harmonic_bound == reference.harmonic_moment(params.law, 84)

    @pytest.mark.parametrize("theta", [0.6, 0.92, 1.0])
    @pytest.mark.parametrize("spec", ["binary:0.5", "binary:0.6", "pmf:2=0.5,3=0.5"])
    def test_certificate_reads_no_cap(self, spec, theta):
        # s_cap = 64 cuts most of the law of S_y for y near the switch point;
        # the exact region reads the thinned rows cut at the switch point,
        # where truncation is exact, so it must not change
        params = IGWParams(parse_law_spec(spec), theta)
        starved = explosion_lower_bound(2, params, Caps(4096, 64, 512))
        assert starved == explosion_lower_bound(2, params)
        assert starved.valid

    def test_nondecreasing_in_start_state(self):
        # also across the switch point y0, where the exact region ends
        params = IGWParams(OffspringLaw.binary(0.6), 0.92)
        y0 = explosion_lower_bound(2, params).harmonic_y
        xs = (2, 4, 8, 16, y0 - 1, y0, y0 + 1)
        bounds = [explosion_lower_bound(x, params, SMALL_CAPS).bound for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_consistency_with_death_interval_on_grid(self):
        # a lower bound on exploding plus an upper bound on dying never
        # exceeds the whole
        for lam, theta, x in ((1.0, 0.9, 6), (1.0, 0.8, 4), (0.6, 0.92, 8)):
            params = IGWParams(OffspringLaw.binary(lam), theta)
            cert = explosion_lower_bound(x, params, SMALL_CAPS)
            assert cert.valid
            hi = death_prob_interval(x, params, SMALL_CAPS, horizon=128).hi
            assert cert.bound + hi <= 1.0 + 1e-9, (lam, theta, x)

    def test_single_child_rejected(self):
        with pytest.raises(RegimeError):
            explosion_lower_bound(3, IGWParams(OffspringLaw.explicit({1: 1.0}), 0.9))

    def test_p0_rejected(self):
        with pytest.raises(RegimeError):
            explosion_lower_bound(3, IGWParams(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.9))

    def test_audit_trail_is_complete(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.9)
        cert = explosion_lower_bound(10, params)
        methods = [s.method for s in cert.steps]
        assert "exact" in methods and "tail-bound" in methods
        assert all(s.gamma >= s2.gamma for s, s2 in zip(cert.steps, cert.steps[1:])), \
            "certificate factors must be nonincreasing"
        assert all(0 < s.gamma < 1 for s in cert.steps)
        assert cert.tail_sum >= 0 and cert.tail_sup < 1

    @pytest.mark.parametrize("theta", [1.0, 0.95])
    def test_heavy_one_child_law_is_certified(self, theta):
        # explosion is certain at theta = 1 (p_1 < 1); certifying it needs a
        # switch point far beyond 64, since gamma(65) = 65^2 E(1/Z_65) > 1
        params = IGWParams(parse_law_spec("pmf:1=0.9,3=0.1"), theta)
        cert = explosion_lower_bound(2, params)
        assert cert.valid and cert.bound > 0.0
        if theta == 1.0:
            # no thinning term: every analytic stall bound lies above its
            # exact rational value y^2 h(y0) c^(y - y0)
            y0, c = cert.harmonic_y, 1 - (1 - Fraction(params.law.p1)) / 2
            h = Fraction(cert.harmonic_bound)
            for s in cert.steps:
                if s.method == "tail-bound":
                    assert Fraction(s.gamma_raw) >= s.x_k**2 * h * c ** (s.x_k - y0)

    def test_carry_and_tail_round_upward(self):
        # against exact arithmetic, for a bound h on E(1/Z_y0) that is not a
        # dyadic fraction: the contraction r >= c = 1 - (1 - p_1)/2, the
        # carried values h r^k >= h c^k, and the closed-form tail
        # sum_{k>=1} (y + k)^2 h r^k
        h = Fraction(1e-16 / 3.0)
        for spec in ("binary:0.6", "binary:0.2", "pmf:1=0.9,3=0.1", "pmf:1=0.3,2=0.3,5=0.4"):
            p1 = parse_law_spec(spec).p1
            r = _contraction(p1)
            c = Fraction(r)
            assert c >= 1 - (1 - Fraction(p1)) / 2
            for k, value in zip(range(201), _carried(float(h), r)):
                assert Fraction(value) >= h * c**k, (spec, k)
            d = 1 - c
            for y in (3, 55, 84, 389, 1000):
                exact = h * (y * y * c / d + 2 * y * c / d**2 + c * (1 + c) / d**3)
                assert Fraction(_harmonic_tail(float(h), r, y)) >= exact, (spec, y)

    def test_always_stalling_law_walks_no_harmonic_bound(self, monkeypatch):
        # binary:0.01 at theta = 1: y^2 p_1^y >= 1 for every y <= MAX_SWITCH,
        # so no switch point exists and the certificate is invalid at once
        def forbidden(law):
            raise AssertionError("harmonic bounds walked")

        params = IGWParams(OffspringLaw.binary(0.01), 1.0)
        monkeypatch.setattr(analysis, "harmonic_moments", forbidden)
        _switch_point.cache_clear()
        for x in (1, 2, MAX_SWITCH):
            cert = explosion_lower_bound(x, params)
            assert (cert.valid, cert.bound, cert.steps) == (False, 0.0, ()), x
            assert (cert.harmonic_y, cert.harmonic_bound) == (MAX_SWITCH, 1.0)
        monkeypatch.undo()
        _switch_point.cache_clear()
        certify = IGWParams(OffspringLaw.binary(0.6), 0.92)
        assert explosion_lower_bound(2, certify).bound == 0.3954270314624218
        assert explosion_lower_bound(8, certify).bound == 0.9961406267260651

    def test_always_stalling_agrees_with_the_walk(self, monkeypatch):
        # the shortcut's lower bound y^2 p_1^y + Chernoff(y) lies below every
        # stall bound the walk computes, and the full walk, with the
        # shortcut off, gives the same invalid certificate
        params = IGWParams(OffspringLaw.binary(0.01), 1.0)
        for y, h in zip(range(1, 65), harmonic_moments(params.law)):
            lower = y * y * Fraction(params.law.p1) ** y + Fraction(_chernoff_thinning(y, 1.0))
            assert lower <= Fraction(_stall_bound(y, h, 1.0)), y
        monkeypatch.setattr(analysis, "_always_stalls", lambda law, theta: False)
        _switch_point.cache_clear()
        walked = explosion_lower_bound(1, params)
        assert (walked.valid, walked.bound, walked.harmonic_y) == (False, 0.0, MAX_SWITCH)
        _switch_point.cache_clear()

    @pytest.mark.parametrize("spec, theta, k_star", [
        ("binary:0.6", 0.92, 1982), ("binary:0.5", 0.9, 2457), ("binary:0.05", 0.99, 27806),
        ("binary:1", 0.8, 1022),
    ])
    def test_carry_skips_to_its_fixed_point(self, spec, theta, k_star):
        # the carry from the switch point stops moving at k_star, the first
        # value equal to the one before it; a skipped carry gives the plain
        # carry's values at every k, before, at and past that point
        law = parse_law_spec(spec)
        _, h = _switch_point(law, theta)
        r = _contraction(law.p1)
        plain = list(islice(_carried(h, r), 10**5 + 3))
        assert plain[k_star] == plain[k_star - 1] != plain[k_star - 2]
        for k in (0, 1, k_star - 1, k_star, k_star + 1, 10**5):
            assert list(islice(_carried(h, r, k), 3)) == plain[k:k + 3], k

    def test_far_start_replays_the_plain_carry(self, monkeypatch):
        # every certificate, on both sides of the switch point y0 = 84, is the
        # one the plain carry gives, which walks all start - y0 values
        params = IGWParams(OffspringLaw.binary(0.6), 0.92)
        xs = (2, 8, 84, 85, 10**4, 10**6)
        skipped = [explosion_lower_bound(x, params) for x in xs]
        plain = analysis._carried
        monkeypatch.setattr(analysis, "_carried", lambda h, r, skip: islice(plain(h, r), skip, None))
        assert skipped == [explosion_lower_bound(x, params) for x in xs]

    def test_far_start_is_fast_and_bounded(self):
        params = IGWParams(OffspringLaw.binary(0.6), 0.92)
        explosion_lower_bound(2, params)  # the switch point, walked once
        start = time.perf_counter()
        cert = explosion_lower_bound(10**12, params)
        assert time.perf_counter() - start < 1.0
        assert cert.valid and cert.steps[0].x_k == 10**12
        # y^2 of the stall bounds is a float up to MAX_START = 2**511
        assert explosion_lower_bound(MAX_START, params).valid
        with pytest.raises(ValueError, match="2\\*\\*511"):
            explosion_lower_bound(MAX_START + 1, params)

    NEAR_ONE = (
        OffspringLaw.explicit({1: 0.999999999, 2: 0.000000001}),
        OffspringLaw.explicit({1: 1.0 - 2.0**-53, 2: 2.0**-53}),
    )

    @pytest.mark.parametrize(
        "law, xs", [(NEAR_ONE[0], ()), (NEAR_ONE[1], (MAX_START,))], ids=["1-1e-9", "1-2^-53"]
    )
    def test_near_one_p1_is_invalid_at_once(self, law, xs):
        # ratio_a fails at every state the analytic loop could reach, so the
        # certificate is the MAX_TERMS exit, returned before the carry's
        # skip; a contraction >= 1 (1 + 2^-52 for the second law) fails it
        # at every start state, MAX_START too
        params = IGWParams(law, 0.9)
        harmonic = _switch_point(law, 0.9)  # the walk, once
        for x in (2000, 10**5, 10**6, 4 * 10**6, 10**9, *xs):
            start = time.perf_counter()
            cert = explosion_lower_bound(x, params)
            assert time.perf_counter() - start < 0.05, x
            assert (cert.start, cert.steps, cert.tail_sum, cert.tail_sup) == (x, (), math.inf, 1.0), x
            assert (cert.bound, cert.valid) == (0.0, False), x
            assert (cert.harmonic_y, cert.harmonic_bound) == harmonic, x

    @pytest.mark.parametrize("law", NEAR_ONE, ids=["1-1e-9", "1-2^-53"])
    def test_near_one_p1_verdict_is_the_loops(self, law, monkeypatch):
        # with the early test turned off (a contraction that is never >= 1
        # and whose integer ratio is 0), the loop runs to MAX_TERMS and
        # returns the same certificate
        class Unchecked(float):
            def __ge__(self, other):
                return False

            def as_integer_ratio(self):
                return 0, 1

        params = IGWParams(law, 0.9)
        early = explosion_lower_bound(2000, params)
        contraction = analysis._contraction
        monkeypatch.setattr(analysis, "_contraction", lambda p1: Unchecked(contraction(p1)))
        assert explosion_lower_bound(2000, params) == early

    def test_switch_point_follows_the_law(self):
        # binary:0.2 puts 0.8 on one child: h(y) decays slowly, so the
        # switch point lies far beyond 64 (about 226)
        cert = explosion_lower_bound(2, IGWParams(OffspringLaw.binary(0.2), 0.8))
        assert cert.valid and cert.bound >= 1e-4
        # far beyond the switch point, h is carried from y0, not taken at x
        cert = explosion_lower_bound(2000, IGWParams(OffspringLaw.binary(0.6), 0.92))
        assert cert.valid and cert.harmonic_y < 2000


class TestMcDeath:
    def test_certain_death(self):
        params = IGWParams(OffspringLaw.explicit({0: 1.0}), 0.9)
        res = mc_death_prob(1, params, 500, 20, ExtendedCount.exact(100), master_seed=1)
        assert res.estimate.point == 1.0
        assert res.undecided_fraction == 0.0

    def test_point_below_closed_form(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        res = mc_death_prob(1, params, 20_000, 100, ExtendedCount.exact(10**6), master_seed=5)
        width = res.estimate.ci_hi - res.estimate.ci_lo
        assert res.estimate.point <= 0.0625 + width

    def test_no_thinning_never_dies(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        res = mc_death_prob(1, params, 2000, 50, ExtendedCount.exact(10**6), master_seed=2)
        assert res.estimate.point == 0.0

    def test_interval_intersects_certified(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.8)
        res = mc_death_prob(1, params, 20_000, 100, ExtendedCount.exact(10**6), master_seed=5)
        iv = death_prob_interval(1, params, horizon=128)
        assert res.estimate.ci_lo <= iv.hi and iv.lo <= res.estimate.ci_hi

    def test_reproducible(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        a = mc_death_prob(2, params, 3000, 40, ExtendedCount.exact(10**5), master_seed=9)
        b = mc_death_prob(2, params, 3000, 40, ExtendedCount.exact(10**5), master_seed=9)
        assert a == b

    def test_worker_count_invariance(self):
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        a = mc_death_prob(2, params, 4000, 40, ExtendedCount.exact(10**5), master_seed=9, workers=1)
        b = mc_death_prob(2, params, 4000, 40, ExtendedCount.exact(10**5), master_seed=9, workers=3)
        assert a == b

    def test_fractional_threshold_rounds_up(self):
        # a state explodes at >= threshold, so 1.5 is 2 and state 1 is below it
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        a = mc_death_prob(1, params, 200, 20, 1.5, master_seed=1)
        assert a == mc_death_prob(1, params, 200, 20, 2, master_seed=1)
        assert a == mc_death_prob(1, params, 200, 20, ExtendedCount.exact(2), master_seed=1)
        assert a.exploded_fraction < 1.0
        assert mc_death_prob(3, params, 200, 20, 2.5, master_seed=1).exploded_fraction == 1.0

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, threshold):
        params = IGWParams(OffspringLaw.binary(0.5), 0.9)
        with pytest.raises(ValueError, match="threshold"):
            mc_death_prob(1, params, 10, 5, threshold, 1)

    @pytest.mark.parametrize("threshold", [1e15, 2.0**50 + 0.5, 1e300, 10**400])
    def test_threshold_above_the_cap_is_a_log(self, threshold):
        # above DEFAULT_EXACT_CAP a numeric threshold is compared in logs
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        a = mc_death_prob(3, params, 300, 120, threshold, master_seed=4)
        assert a.exploded_fraction == 1.0
        assert a == mc_death_prob(
            3, params, 300, 120, ExtendedCount(log_value=math.log(threshold)), master_seed=4
        )

    @pytest.mark.parametrize("confidence", [0.0, 1.0, math.nan, -0.5, 1.5])
    def test_bad_confidence_rejected_before_any_replica(self, monkeypatch, confidence):
        def forbidden(*args, **kwargs):
            raise AssertionError("replicas ran")

        monkeypatch.setattr(igw_process, "map_chunks", forbidden)
        params = IGWParams(OffspringLaw.binary(0.5), 0.8)
        with pytest.raises(ValueError, match="confidence"):
            mc_death_prob(2, params, 100, 40, ExtendedCount.exact(10**5), 1, confidence=confidence)


class TestWilson:
    def test_contains_point(self):
        lo, hi = wilson_interval(3, 100, 0.99)
        assert lo <= 0.03 <= hi

    def test_extreme_counts(self):
        lo, hi = wilson_interval(0, 50, 0.99)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50, 0.99)
        assert hi == 1.0 and lo < 1.0

    @pytest.mark.parametrize("confidence", [0.0, 1.0, math.nan, -0.5, 1.5])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(3, 100, confidence)


class TestRatioExperiments:
    def test_doubling_table_converges(self):
        params = IGWParams(OffspringLaw.explicit({2: 1.0}), 1.0)
        rows = mc_ratio_convergence(params, 1, 10, master_seed=0, horizon=40)
        by_step = {r.step: r for r in rows}
        # deterministic chain: every path shares the same table
        assert by_step[2].median_y == pytest.approx(math.log(126) / 6, rel=1e-12)
        errs = [abs(by_step[n].err_q50) for n in sorted(by_step) if n >= 1]
        assert errs[-1] < errs[0]

    def test_conditioning_excludes_dead_paths(self):
        params = IGWParams(OffspringLaw.binary(1.0), 0.9)
        rows = mc_ratio_convergence(params, 1, 400, master_seed=4, horizon=60)
        assert rows, "some paths must explode"
        assert all(r.count <= 400 for r in rows)

    def test_crossing_errors_shrink(self):
        params = IGWParams(OffspringLaw.binary(0.5), 1.0)
        errs = ratio_crossing_errors(params, 6, 300, 100, master_seed=11)
        assert len(errs) >= 250
        e0 = np.array([e[0] for e in errs])
        e1 = np.array([e[1] for e in errs])
        assert float((e0 <= 0.1).mean()) >= 0.9
        assert np.median(e1) <= np.median(e0) / 2

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 101, 1000])
    def test_order_statistics_are_numpys(self, size):
        # read off the sorted row, the quantiles and the median are the bytes
        # np.quantile and np.median give, on rows with and without repeats;
        # q = 0.25 and 0.75 hit a weight of exactly 1/2 at sizes 3 and 7.
        # No row holds -0.0 (a sort and numpy's partition may order the two
        # zeros differently), as no ratio row does.
        rng = np.random.default_rng(size)
        rows = (rng.normal(size=size) * 10.0 ** rng.uniform(-5.0, 5.0),
                rng.integers(0, 3, size).astype(float), np.round(rng.normal(size=size), 1) + 0.0)
        for row in rows:
            ordered = np.sort(row)
            for q in (0.1, 0.25, 0.5, 0.75, 0.9):
                assert igw_process._sorted_quantile(ordered, q).hex() == float(np.quantile(row, q)).hex(), q
            assert igw_process._sorted_median(ordered).hex() == float(np.median(row)).hex()

    def test_subcritical_rejected(self):
        with pytest.raises(RegimeError):
            mc_ratio_convergence(IGWParams(OffspringLaw.explicit({1: 1.0}), 1.0), 1, 10, 0)


class TestSubmultiplicativity:
    def test_small_case_certified(self, binary_half):
        report = submultiplicativity_check(IGWParams(binary_half, 0.7), 1, 1, 1, SMALL_CAPS)
        assert report.status == "certified"

    def test_no_thinning_trivial(self, binary_half):
        report = submultiplicativity_check(IGWParams(binary_half, 1.0), 2, 3, 4, SMALL_CAPS)
        assert report.interval_xy.hi == pytest.approx(0.0, abs=1e-12)
        assert report.interval_xy.lo == 0.0
        assert report.status == "certified"

    def test_zero_horizon_trivial(self, binary_half):
        report = submultiplicativity_check(IGWParams(binary_half, 0.7), 2, 2, 0, SMALL_CAPS)
        assert report.status == "certified"

    def test_grid_with_mc_cross_check(self, binary_half):
        params = IGWParams(binary_half, 0.7)
        n = 4
        # exact side, up to x = y = 4 at default caps
        for x in (1, 2, 3, 4):
            for y in (1, 2, 3, 4):
                report = submultiplicativity_check(params, x, y, n)
                assert report.status == "certified"
        # statistical side at (2, 2)
        reps = 20_000

        def death_freq(start: int, seed: int) -> float:
            res = mc_death_prob(start, params, reps, n, ExtendedCount.from_log(700.0), master_seed=seed)
            return res.estimate.point

        p_xy = death_freq(4, 21)
        p_x = death_freq(2, 22)
        se = 3 * math.sqrt(0.25 / reps)
        assert p_xy <= p_x * p_x + 4 * se

    def test_no_slack_below_tiny_probabilities(self):
        # hi(x+y) ~ 3e-14 lies 16 times above lo(x)*lo(y) ~ 2e-15: an
        # additive tolerance of 1e-12 would call this certified
        report = submultiplicativity_check(IGWParams(OffspringLaw.binary(0.9), 0.9), 4, 4, 40, Caps(x_cap=8))
        assert report.interval_xy.hi > report.interval_x.lo * report.interval_y.lo
        assert report.interval_xy.hi < 1e-12
        assert report.status == "indeterminate"

    def test_p0_rejected(self):
        with pytest.raises(RegimeError):
            submultiplicativity_check(IGWParams(OffspringLaw.explicit({0: 0.5, 2: 0.5}), 0.5), 1, 1, 1)


class TestGeometricAbsorption:
    def test_two_atom_law_certifies(self):
        params = IGWParams(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.9)
        report = geometric_absorption_check(params, 1, 12, Caps(1024, 1024, 128))
        assert report.all_certified
        for row in report.rows:
            assert row.survival_hi <= row.geometric_bound + 1e-12
            if row.n >= 2:
                assert row.survival_hi < row.geometric_bound

    def test_rows_match_finite_horizon_calls(self):
        params = IGWParams(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.9)
        report = geometric_absorption_check(params, 2, 12, SMALL_CAPS)
        _envelope.cache_clear()  # the calls below sweep again, longest horizon first
        for row in reversed(report.rows):
            iv = finite_horizon_death(2, params, row.n, SMALL_CAPS)
            assert (row.survival_lo, row.survival_hi) == (1.0 - iv.hi, 1.0 - iv.lo)

    @pytest.mark.parametrize("spec,theta,x,caps", [
        ("pmf:0=0.2,2=0.8", 0.9, 1, SMALL_CAPS),
        ("pmf:0=0.001,1=0.5,2=0.499", 0.9, 1, SMALL_CAPS),
        ("pmf:0=0.2,2=0.8", 1.0, 1, Caps(x_cap=3)),  # rows one ulp either side of the bound
    ])
    def test_rows_match_the_power_formula(self, spec, theta, x, caps):
        # the running product is (1 - p_0)^n exactly, so every status is the
        # one the power (1 - p_0)**n decides
        params = IGWParams(parse_law_spec(spec), theta)
        p0 = params.law.p0
        report = geometric_absorption_check(params, x, 300, caps)
        want = []
        for n in range(1, 301):
            death = finite_horizon_death(x, params, n, caps)
            bound = (1 - Fraction(p0)) ** n
            if 1 - Fraction(death.lo) <= bound:
                status = "certified"
            elif 1 - Fraction(death.hi) <= bound:
                status = "indeterminate"
            else:
                status = "violated"
            want.append((n, 1.0 - death.hi, 1.0 - death.lo, (1.0 - p0) ** n, status))
        assert [tuple(vars(row).values()) for row in report.rows] == want

    def test_certain_immediate_death(self):
        params = IGWParams(OffspringLaw.explicit({0: 1.0}), 0.5)
        report = geometric_absorption_check(params, 1, 3, SMALL_CAPS)
        assert report.rows[0].survival_hi == pytest.approx(0.0, abs=1e-12)

    def test_small_caps_never_violated(self):
        # even starved caps certify: untracked mass survives at exactly the
        # geometric rate (1 - p0) per step, so in real arithmetic the bound
        # cannot be exceeded.  The float interval is not rounded outward, so
        # this holds here, not everywhere: at theta = 1 it misses the exact
        # value by an ulp (test_cli's xfail test_absorption_never_violated_at_theta_one)
        params = IGWParams(OffspringLaw.explicit({0: 0.05, 3: 0.95}), 0.95)
        report = geometric_absorption_check(params, 8, 10, Caps(16, 16, 8))
        assert all(r.status in ("certified", "indeterminate") for r in report.rows)
        assert not any(r.status == "violated" for r in report.rows)

    def test_p0_zero_rejected(self, binary_half):
        with pytest.raises(RegimeError):
            geometric_absorption_check(IGWParams(binary_half, 0.9), 1, 5)
