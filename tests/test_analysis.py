import math

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
    harmonic_moment,
    mc_death_prob,
    mc_ratio_convergence,
    mean,
    ratio_crossing_errors,
    submultiplicativity_check,
    thinned_pgf,
    wilson_interval,
)
from igw.exact_dist import _envelope

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
                if mean(params.law) * theta > 1.0:
                    assert q < 1.0
                    assert abs(thinned_pgf(params, q) - q) <= tol
                else:
                    assert q == 1.0

    def test_p0_rejected(self):
        with pytest.raises(RegimeError):
            fixed_point_q(IGWParams(OffspringLaw.explicit({0: 0.2, 2: 0.8}), 0.9))


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

    def test_log_domain_for_large_x(self):
        v = geometric_death_bound(0.5, 5000)
        assert v == pytest.approx(math.exp(5000 * math.log(0.5)), rel=1e-9)


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
        # one certified harmonic bound per certificate, at the first analytic
        # state y = 65, carried down by the contraction.  Pinned from this
        # code; the second entries are the bounds an adaptive Simpson
        # estimate padded by 1e-10 gave, which a certified E(1/Z_65) far
        # below 1e-10 may only improve on.
        import igw.analysis

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return harmonic_moment(*args, **kwargs)

        monkeypatch.setattr(igw.analysis, "harmonic_moment", counting)
        params = IGWParams(OffspringLaw.binary(0.6), 0.92)
        pinned = {
            2: (0.3954270256435304, 0.395418796324328),
            8: (0.9961406120673841, 0.9961198811650055),
        }
        for x, (want, simpson) in pinned.items():
            calls.clear()
            cert = explosion_lower_bound(x, params)
            assert cert.valid
            assert cert.bound == pytest.approx(want, rel=1e-12, abs=0.0)
            assert cert.bound >= simpson
            assert calls == [65]
            assert cert.harmonic_y == 65
            assert cert.harmonic_bound == harmonic_moment(params.law, 65)

    def test_nondecreasing_in_start_state(self):
        params = IGWParams(OffspringLaw.binary(0.6), 0.92)
        bounds = [explosion_lower_bound(x, params, SMALL_CAPS).bound for x in (2, 4, 8, 16)]
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
        cert = explosion_lower_bound(10, params, switch_point=20)
        methods = [s.method for s in cert.steps]
        assert "exact" in methods and "tail-bound" in methods
        assert all(s.gamma >= s2.gamma for s, s2 in zip(cert.steps, cert.steps[1:])), \
            "certificate factors must be nonincreasing"
        assert all(0 < s.gamma < 1 for s in cert.steps)
        assert cert.tail_sum >= 0 and cert.tail_sup < 1


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


class TestWilson:
    def test_contains_point(self):
        lo, hi = wilson_interval(3, 100, 0.99)
        assert lo <= 0.03 <= hi

    def test_extreme_counts(self):
        lo, hi = wilson_interval(0, 50, 0.99)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50, 0.99)
        assert hi == 1.0 and lo < 1.0


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

    def test_subcritical_rejected(self):
        with pytest.raises(RegimeError):
            mc_ratio_convergence(IGWParams(OffspringLaw.explicit({1: 1.0}), 1.0), 1, 10, 0)


class TestSubmultiplicativity:
    def test_small_case_certified(self, binary_half):
        report = submultiplicativity_check(IGWParams(binary_half, 0.7), 1, 1, 1, SMALL_CAPS)
        assert report.status in ("certified", "pass")

    def test_no_thinning_trivial(self, binary_half):
        report = submultiplicativity_check(IGWParams(binary_half, 1.0), 2, 3, 4, SMALL_CAPS)
        assert report.interval_xy.hi == pytest.approx(0.0, abs=1e-12)
        assert report.interval_xy.lo == 0.0
        assert report.status in ("certified", "pass")

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
                assert report.status in ("certified", "pass")
        # statistical side at (2, 2)
        reps = 20_000

        def death_freq(start: int, seed: int) -> float:
            res = mc_death_prob(start, params, reps, n, ExtendedCount.from_log(700.0), master_seed=seed)
            return res.estimate.point

        p_xy = death_freq(4, 21)
        p_x = death_freq(2, 22)
        se = 3 * math.sqrt(0.25 / reps)
        assert p_xy <= p_x * p_x + 4 * se

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

    def test_certain_immediate_death(self):
        params = IGWParams(OffspringLaw.explicit({0: 1.0}), 0.5)
        report = geometric_absorption_check(params, 1, 3, SMALL_CAPS)
        assert report.rows[0].survival_hi == pytest.approx(0.0, abs=1e-12)

    def test_small_caps_never_violated(self):
        # even starved caps certify: untracked mass survives at exactly the
        # geometric rate (1 - p0) per step, so the bound cannot be exceeded
        params = IGWParams(OffspringLaw.explicit({0: 0.05, 3: 0.95}), 0.95)
        report = geometric_absorption_check(params, 8, 10, Caps(16, 16, 8))
        assert all(r.status in ("certified", "indeterminate") for r in report.rows)
        assert not any(r.status == "violated" for r in report.rows)

    def test_p0_zero_rejected(self, binary_half):
        with pytest.raises(RegimeError):
            geometric_absorption_check(IGWParams(binary_half, 0.9), 1, 5)
