"""One benchmark pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload certify --seed 1 [--trace] [--spans FILE.npz]
    python3 bench/worker.py --probe

Prints ``ready`` as soon as ``import igw`` has finished (the parent times
interpreter start-up against that line), then runs the workload, checks its
outputs outside the timed region, and prints one JSON line with the pass's
measurements.  ``--probe`` stops after start-up.  Start-up and the untraced
workload run under a ``SpeedProbe``, which converts their times to the
reference speed.  The package is imported from the ``src`` directory named
by ``IGW_BENCH_SRC``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Runs operations (one root span each) and records which ones failed,
    by raising or by failing an output check."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed: dict[int, str] = {}
        self.rss_after_theta_mb: list[float] = []

    def run(self, name: str, fn, *args, tags: dict | None = None, **kwargs):
        """Returns (operation index, result); the result is None on error."""
        op = self.attempted
        self.attempted += 1
        try:
            return op, self.tracer.call(name, fn, *args, tags=tags, **kwargs)
        except Exception as exc:  # a failing operation is counted; the pass goes on
            self.failed[op] = f"{name} {tags or ''}: {type(exc).__name__}: {exc}"
            return op, None

    def check(self, op: int, ok: bool, what: str) -> None:
        if not ok and op not in self.failed:
            self.failed[op] = what


# -- workloads -------------------------------------------------------------------
#
# Every workload is a fixed list of calls; only simulate draws random numbers,
# and its master seeds come from the benchmark's --seed.

CERTIFY_LAW = "binary:0.6"
CERTIFY_THETAS = (0.8, 0.92)
CERTIFY_X = range(1, 21)
CERTIFY_CERT_THETA = 0.92
CERTIFY_CERT_X = (2, 8)

GRID_LAW = "pmf:2=0.5,3=0.5"
GRID_THETAS = tuple(round(0.45 + i / 30.0, 6) for i in range(16))  # 0.45..0.95
GRID_X = range(1, 9)

HORIZON = 256  # death_prob_interval's default horizon
SIM_DEATH_REPLICAS = 12_000  # per start state x = 1, 2, 3 on binary:1
SIM_TIERS_REPLICAS = 1_500  # binary:0.5, theta 0.9, x = 3
SIM_RATIO_REPLICAS = 1_000  # as in acceptance criterion 07
DETERMINISM_REPLICAS = 2_500  # spans three chunks of the MC driver


def build_progeny(p: Pass, igw, law, caps) -> list:
    """The law of S_x for x = 1..x_cap, one call per x: the cached sweep
    extends by exactly one generation per call, so each span times one
    generation."""
    out = []
    for x in range(1, caps.x_cap + 1):
        op, dist = p.run(
            "exact_dist.total_progeny_dist", igw.total_progeny_dist, law, x, caps.z_cap, caps.s_cap
        )
        out.append((op, x, dist))
    return out


def death_intervals(p: Pass, igw, params, caps, xs) -> list:
    out = []
    for x in xs:
        tags = {"theta": params.theta, "x": x, "first": x == xs[0]}
        op, iv = p.run(
            "exact_dist.death_prob_interval", igw.death_prob_interval, x, params, caps, HORIZON, tags=tags
        )
        out.append((op, x, iv))
    p.rss_after_theta_mb.append(_peak_rss_mb())
    return out


def certify(p: Pass, igw, seed: int) -> dict:
    law = igw.parse_law_spec(CERTIFY_LAW)
    caps = igw.Caps()
    out = {"law": law, "progeny": build_progeny(p, igw, law, caps), "theta": {}}
    for theta in CERTIFY_THETAS:
        params = igw.IGWParams(law, theta)
        q = p.run("analysis.fixed_point_q", igw.fixed_point_q, params, tags={"theta": theta})
        out["theta"][theta] = (q, death_intervals(p, igw, params, caps, CERTIFY_X))
    params = igw.IGWParams(law, CERTIFY_CERT_THETA)
    out["certs"] = [
        (*p.run("analysis.explosion_lower_bound", igw.explosion_lower_bound, x, params, caps), x)
        for x in CERTIFY_CERT_X
    ]
    return out


def theta_grid(p: Pass, igw, seed: int) -> dict:
    law = igw.parse_law_spec(GRID_LAW)
    caps = igw.Caps()
    out = {"law": law, "progeny": build_progeny(p, igw, law, caps), "theta": {}}
    for theta in GRID_THETAS:
        params = igw.IGWParams(law, theta)
        out["theta"][theta] = ((None, None), death_intervals(p, igw, params, caps, GRID_X))
    return out


def _death_cases(igw, seed: int) -> list:
    """(params, x, replicas, horizon, threshold, master seed) per MC call."""
    rng = random.Random(seed)
    acc04 = igw.IGWParams(igw.OffspringLaw.binary(1.0), 0.8)
    tiers = igw.IGWParams(igw.OffspringLaw.binary(0.5), 0.9)
    million = igw.ExtendedCount.exact(10**6)
    cases = [(acc04, x, SIM_DEATH_REPLICAS, 200, million, rng.randrange(2**32)) for x in (1, 2, 3)]
    # a threshold in the log tier: paths cross the exact, Gaussian and
    # log-domain count tiers before they are called exploded
    cases.append((tiers, 3, SIM_TIERS_REPLICAS, 200, igw.ExtendedCount.from_log(700.0), rng.randrange(2**32)))
    return cases


def simulate(p: Pass, igw, seed: int) -> dict:
    out = {"death": [], "cases": _death_cases(igw, seed)}
    for params, x, replicas, horizon, threshold, master in out["cases"]:
        tags = {"theta": params.theta, "x": x}
        op, res = p.run(
            "analysis.mc_death_prob", igw.mc_death_prob,
            x, params, replicas, horizon, threshold, master, workers=1, tags=tags,
        )
        out["death"].append((op, params, x, res))
    ratio_params = igw.IGWParams(igw.OffspringLaw.binary(0.5), 1.0)
    ratio_seed = random.Random(seed + 1).randrange(2**32)
    out["ratio"] = p.run(
        "analysis.ratio_crossing_errors", igw.ratio_crossing_errors,
        ratio_params, 6, SIM_RATIO_REPLICAS, 100, ratio_seed,
    )
    return out


# -- output checks (outside the timed region, tracing off) --------------------------

SLACK = 1e-12  # float rounding allowance on inequalities that hold exactly
FAILED_WIDTH = 1.0  # an operation that raised enclosed nothing: [0, 1]


def check_progeny(p: Pass, progeny: list) -> None:
    for op, x, dist in progeny:
        if dist is None:
            continue
        p.check(op, float(dist.atoms.min()) >= 0.0, f"S_{x}: negative atom")
        p.check(op, abs(dist.total() - 1.0) <= 1e-9, f"S_{x}: mass {dist.total()!r} != 1")


def check_intervals(p: Pass, theta: float, q_star: float, ivs: list) -> None:
    """lo <= hi, hi(1) <= q*, and lo(x+1) <= hi(x) (death is nonincreasing
    in the start state)."""
    prev = None
    for op, x, iv in ivs:
        if iv is None:
            prev = None
            continue
        p.check(op, iv.lo <= iv.hi, f"theta={theta} x={x}: lo > hi")
        if x == 1:
            p.check(op, iv.hi <= q_star + SLACK, f"theta={theta}: hi(1)={iv.hi!r} > q*={q_star!r}")
        if prev is not None:
            p.check(op, iv.lo <= prev.hi + SLACK, f"theta={theta} x={x}: lo(x) > hi(x-1)")
        prev = iv


def check_exact(p: Pass, igw, out: dict) -> dict:
    check_progeny(p, out["progeny"])
    widths = []
    for theta, ((q_op, q_star), ivs) in out["theta"].items():
        params = igw.IGWParams(out["law"], theta)
        if q_op is not None:
            if q_star is not None and out["law"].binary_lambda is not None:
                closed = igw.binary_death_bound(out["law"].binary_lambda, theta)
                p.check(q_op, abs(q_star - closed) <= 1e-9, f"q*({theta}) != closed form")
        else:
            q_star = igw.fixed_point_q(params, 1e-13)
            if not abs(igw.thinned_pgf(params, q_star) - q_star) <= 1e-9:
                p.check(ivs[0][0], False, f"q*({theta}) is not a fixed point")
        if q_star is not None:
            check_intervals(p, theta, q_star, ivs)
        widths += [FAILED_WIDTH if iv is None else iv.width for _, _, iv in ivs]
    summary = {"interval_width_max": max(widths)}
    if "certs" in out:
        params = igw.IGWParams(out["law"], CERTIFY_CERT_THETA)
        prev = None
        for op, cert, x in out["certs"]:
            if cert is None:
                continue
            p.check(op, cert.valid and cert.bound > 0.0, f"certificate x={x} not valid")
            death1 = igw.one_step_death_prob(x, params)
            p.check(op, cert.bound + death1 <= 1.0 + SLACK, f"certificate x={x}: bound + P(X_1=0) > 1")
            if prev is not None:
                p.check(op, cert.bound >= prev, f"certificate x={x}: bound decreased in x")
            prev = cert.bound
        summary["cert_steps"] = sum(len(c.steps) for _, c, _ in out["certs"] if c is not None)
        summary["explosion_bound_min"] = min(0.0 if c is None else c.bound for _, c, _ in out["certs"])
    return summary


def check_simulate(p: Pass, igw, out: dict) -> dict:
    import numpy as np

    widths, replicas = [], 0
    for op, params, x, res in out["death"]:
        if res is None:
            widths.append(FAILED_WIDTH)
            continue
        est = res.estimate
        width = est.ci_hi - est.ci_lo
        bound = igw.fixed_point_q(params) ** x
        p.check(op, est.point <= bound + width, f"MC death x={x} theta={params.theta} above q*^x")
        p.check(op, res.undecided_fraction < 1e-3, f"MC death x={x} theta={params.theta}: undecided")
        widths.append(width)
        replicas += est.replicas
    op, errs = out["ratio"]
    if errs is not None:
        replicas += SIM_RATIO_REPLICAS
        # as acceptance criterion 07: every path explodes, the error is small
        # when the state clears the level and halves one step later
        p.check(op, len(errs) == SIM_RATIO_REPLICAS, "ratio: not every path exploded")
        e_at = np.array([e[0] for e in errs])
        e_next = np.array([e[1] for e in errs])
        p.check(op, len(errs) > 0 and float((e_at <= 0.1).mean()) >= 0.9, "ratio: error at level")
        p.check(op, len(errs) > 0 and np.median(e_next) <= np.median(e_at) / 2.0, "ratio: no collapse")

    # byte determinism across worker counts, on a slice of the x = 2 case
    params, x, _, horizon, threshold, master = out["cases"][1]
    op, same = p.run(
        "determinism", lambda: igw.mc_death_prob(x, params, DETERMINISM_REPLICAS, horizon, threshold, master, workers=1)
        == igw.mc_death_prob(x, params, DETERMINISM_REPLICAS, horizon, threshold, master, workers=2)
    )
    p.check(op, bool(same), "mc_death_prob differs between workers=1 and workers=2")
    return {"interval_width_max": max(widths), "replicas": replicas}


WORKLOADS = {"certify": certify, "theta-grid": theta_grid, "simulate": simulate}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans to this .npz file")
    ap.add_argument("--probe", action="store_true", help="exit once igw is imported")
    args = ap.parse_args(argv)

    startup = SpeedProbe()
    startup.start()
    src = Path(os.environ["IGW_BENCH_SRC"]).resolve()
    sys.path.insert(0, str(src))
    import igw
    import numpy
    import scipy

    if Path(igw.__file__).resolve().parent != src / "igw":
        print(f"imported igw from {igw.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    startup.stop()
    # the parent times start-up up to "ready"; this converts it to the
    # reference speed
    setup = {"setup_inside_s": startup.inside_s(), "setup_speed": startup.reference_s() / startup.raw_s()}
    if args.probe:
        print(json.dumps(setup), flush=True)
        return 0
    if args.workload is None:
        ap.error("--workload is required without --probe")

    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    p = Pass(tracer)
    # the speed probe's handler would land inside traced spans
    probe = None if args.trace else SpeedProbe()
    if args.trace:
        tracer.install()
    else:
        probe.start()
    try:
        t0 = time.perf_counter()
        out = WORKLOADS[args.workload](p, igw, args.seed)
        wall_s = time.perf_counter() - t0
        peak_rss_mb = _peak_rss_mb()
    finally:
        tracer.uninstall()
        if probe is not None:
            probe.stop()

    if args.workload == "simulate":
        summary = check_simulate(p, igw, out)
    else:
        summary = check_exact(p, igw, out)
    result = {
        "wall_s": wall_s if probe is None else probe.raw_s(),
        "wall_ref_s": None if probe is None else probe.reference_s(),
        "speed_samples": None if probe is None else len(probe.samples),
        **setup,
        "peak_rss_mb": peak_rss_mb,
        "attempted": p.attempted,
        "failed": len(p.failed),
        "failures": sorted(p.failed.values())[:20],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        **summary,
    }
    if args.trace:
        result["per_layer"], result["absent"] = per_layer_metrics(
            tracer, {"rss_after_theta_mb": p.rss_after_theta_mb, **summary}
        )
        result["absent_sites"] = tracer.absent_sites
        if args.spans:
            numpy.savez_compressed(args.spans, **tracer.dump())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
