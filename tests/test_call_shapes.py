"""The calls ``bench/worker.py`` makes into ``igw``, in the shapes it makes
them (positional arguments included) and on small inputs, and the result
attributes its checks read.  A signature or attribute the benchmark relies
on, removed or renamed, fails here and not only at a benchmark run.
"""

from __future__ import annotations

import igw

LAW = "binary:0.6"
THETA = 0.92


def test_exact_layer_calls():
    law = igw.parse_law_spec(LAW)
    caps = igw.Caps(z_cap=64, s_cap=256, x_cap=64)
    assert (caps.z_cap, caps.s_cap, caps.x_cap) == (64, 256, 64)
    assert igw.Caps().x_cap >= 1
    for x in (1, 2, 3):
        dist = igw.total_progeny_dist(law, x, caps.z_cap, caps.s_cap)
        assert float(dist.atoms.min()) >= 0.0
        assert abs(dist.total() - 1.0) <= 1e-9

    params = igw.IGWParams(law, THETA)
    q_star = igw.fixed_point_q(params)
    assert igw.fixed_point_q(params, 1e-13) == q_star
    assert abs(q_star - igw.binary_death_bound(law.binary_lambda, THETA)) <= 1e-9
    assert abs(igw.thinned_pgf(params, q_star) - q_star) <= 1e-9
    iv = igw.death_prob_interval(1, params, caps, 256)
    assert iv.lo <= iv.hi <= q_star + 1e-12
    assert iv.width >= 0.0


def test_explosion_certificate_call():
    params = igw.IGWParams(igw.parse_law_spec(LAW), THETA)
    cert = igw.explosion_lower_bound(2, params, igw.Caps())
    assert cert.valid and cert.bound > 0.0 and len(cert.steps) > 0
    assert cert.bound + igw.one_step_death_prob(2, params) <= 1.0 + 1e-12


def test_monte_carlo_calls():
    params = igw.IGWParams(igw.OffspringLaw.binary(1.0), 0.8)
    for threshold in (igw.ExtendedCount.exact(10**6), igw.ExtendedCount.from_log(700.0)):
        res = igw.mc_death_prob(1, params, 200, 200, threshold, 5, workers=1)
        est = res.estimate
        assert est.ci_lo <= est.point <= est.ci_hi and est.replicas == 200
        assert 0.0 <= res.undecided_fraction < 1e-3
    threshold = igw.ExtendedCount.exact(10**6)
    assert igw.mc_death_prob(2, params, 1500, 50, threshold, 5, workers=1) == igw.mc_death_prob(
        2, params, 1500, 50, threshold, 5, workers=2
    )

    ratio_params = igw.IGWParams(igw.OffspringLaw.binary(0.5), 1.0)
    errs = igw.ratio_crossing_errors(ratio_params, 6, 20, 100, 5)
    assert len(errs) == 20
    assert all(len(e) == 2 for e in errs)
