"""Command-line front end.

Subcommands: classify, simulate, exact, bounds, mc, verify, sweep.  Output
is CSV (RFC-4180 style, LF endings) preceded by a ``# key=value`` metadata
block that echoes the fully resolved configuration, so every file is
self-describing and byte-reproducible from its own header.

Exit codes: 0 success, 1 invalid input, 2 regime-precondition rejection,
3 indeterminate verification.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Optional, Sequence

from . import __version__
from .analysis import (
    explosion_lower_bound,
    fixed_point_q,
    binary_death_bound,
    geometric_absorption_check,
    geometric_death_bound,
    mc_death_prob,
    mc_ratio_convergence,
    submultiplicativity_check,
)
from .exact_dist import (
    Caps,
    death_prob_interval,
    finite_horizon_death,
    one_step_death_prob,
    one_step_dist,
    total_progeny_dist,
)
from .gw_engine import DEFAULT_EXACT_CAP, ExtendedCount
from .igw_process import RNG_CHUNK, TERMINATIONS, ChunkPaths, classify_regimes, map_chunks
from .reproduction_laws import (
    IGWParams,
    LawSpecError,
    RegimeError,
    format_law_spec,
    parse_law_spec,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_caps(text: str) -> Caps:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--caps expects 'z,s,x', got {text!r}")
    try:
        z, s, x = (int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--caps entries must be integers, got {text!r}") from None
    return Caps(z, s, x)


def _parse_threshold(text: str) -> ExtendedCount:
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"--threshold {text!r} is not a number") from None
    if value < 1:
        raise _UsageError("--threshold must be >= 1")
    if value <= DEFAULT_EXACT_CAP:
        return ExtendedCount.exact(int(value))
    return ExtendedCount(log_value=math.log(value))


def _emit(out, meta: dict, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    out.write("\n".join(lines) + "\n")


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {"igw_version": __version__, "command": args.command}
    # workers is an execution resource, not part of the experiment: leaving
    # it out keeps output bytes identical at any parallelism level
    skip = {"command", "out", "config", "func", "workers"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, Caps):
            value = f"{value.z_cap},{value.s_cap},{value.x_cap}"
        if isinstance(value, ExtendedCount):
            value = _fmt(value.to_float())
        meta[key.replace("_", "-")] = value
    meta.update(extra)
    return meta


#: Monte Carlo outputs record how replicas map to random streams: replica r
#: runs in chunk r // RNG_CHUNK, and each chunk has one stream.
_RNG_META = {"rng-chunk": RNG_CHUNK}


def _params(args: argparse.Namespace) -> IGWParams:
    if getattr(args, "law", None) is None:
        raise _UsageError("--law is required")
    if getattr(args, "theta", None) is None:
        raise _UsageError("--theta is required")
    law = parse_law_spec(args.law)
    # echo the canonical spec string so metadata round-trips to the same law
    args.law = format_law_spec(law)
    return IGWParams(law, args.theta)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_classify(args, out) -> int:
    params = _params(args)
    report = classify_regimes(params)
    _emit(out, _meta(args), ["mean_regime", "as_regime"],
          [[report.mean_regime.value, report.as_regime.value]])
    return 0


def _trajectory_rows(index: int, paths: ChunkPaths) -> list[list]:
    """CSV rows of one chunk's recorded paths, replica by replica."""
    exact, logs, ratio = paths.exact.tolist(), paths.log.tolist(), paths.ratio.tolist()
    rows = []
    for j, (kind, last) in enumerate(zip(paths.termination.tolist(), paths.steps.tolist())):
        term = TERMINATIONS[kind].value
        replica = index * RNG_CHUNK + j
        for n in range(last + 1):
            value = exact[n][j]
            mode, shown = ("exact", value) if value >= 0 else ("log", "")
            log_state = "" if value == 0 else _fmt(logs[n][j])
            y = ratio[n][j] if n < last else math.nan
            rows.append([replica, n, mode, shown, log_state, "" if math.isnan(y) else _fmt(y), term])
    return rows


def _cmd_simulate(args, out) -> int:
    params = _params(args)
    threshold = _parse_threshold(args.threshold)
    chunks = map_chunks(
        _trajectory_rows, args.x0, params, args.horizon, threshold, args.seed, "simulate",
        args.replicas, workers=args.workers, record=True,
    )
    rows = [row for chunk in chunks for row in chunk]
    _emit(out, _meta(args, **_RNG_META),
          ["replica", "step", "state_mode", "state_value", "log_state", "y_ratio", "termination"],
          rows)
    return 0


def _cmd_exact(args, out) -> int:
    params = _params(args)
    what = args.what
    if what == "total-progeny":
        dist = total_progeny_dist(params.law, args.x, s_cap=args.caps.s_cap)
        rows = [[k, _fmt(float(p))] for k, p in enumerate(dist.atoms) if p > 0.0]
        rows.append(["overflow", _fmt(dist.overflow)])
        _emit(out, _meta(args, warning=dist.warning or ""), ["value", "prob"], rows)
        return 0
    if what == "one-step":
        dist = one_step_dist(args.x, params, args.caps)
        rows = [[k, _fmt(float(p))] for k, p in enumerate(dist.atoms) if p > 0.0]
        rows.append(["overflow", _fmt(dist.overflow)])
        _emit(out, _meta(args, warning=dist.warning or ""), ["value", "prob"], rows)
        return 0
    if what == "one-step-death":
        value = one_step_death_prob(args.x, params)
        _emit(out, _meta(args), ["value"], [[_fmt(value)]])
        return 0
    if what == "finite-horizon-death":
        iv = finite_horizon_death(args.x, params, args.n, args.caps)
        _emit(out, _meta(args), ["lo", "hi"], [[_fmt(iv.lo), _fmt(iv.hi)]])
        return 0
    if what == "death-interval":
        iv = death_prob_interval(args.x, params, args.caps, args.horizon)
        _emit(out, _meta(args), ["lo", "hi"], [[_fmt(iv.lo), _fmt(iv.hi)]])
        return 0
    raise _UsageError(f"unknown exact quantity {what!r}")


def _cmd_bounds(args, out) -> int:
    what = args.what
    if what == "q-star":
        params = _params(args)
        value = fixed_point_q(params, args.tol)
        _emit(out, _meta(args), ["q_star"], [[_fmt(value)]])
        return 0
    if what == "binary-death":
        params = _params(args)
        lam = params.law.binary_lambda
        if lam is None:
            raise RegimeError("the closed form applies to binary laws only")
        value = binary_death_bound(lam, params.theta)
        _emit(out, _meta(args), ["death_bound"], [[_fmt(value)]])
        return 0
    if what == "geometric-death":
        if args.q1 is None:
            raise _UsageError("--q1 is required for the geometric death bound")
        value = geometric_death_bound(args.q1, args.x)
        _emit(out, _meta(args), ["death_bound"], [[_fmt(value)]])
        return 0
    if what == "explosion":
        params = _params(args)
        cert = explosion_lower_bound(args.x, params, args.caps, args.switch_point)
        rows = [[s.x_k, _fmt(s.gamma_raw), _fmt(s.gamma), s.method] for s in cert.steps]
        meta = _meta(
            args,
            bound=_fmt(cert.bound),
            valid=cert.valid,
            tail_sum=_fmt(cert.tail_sum),
            tail_sup=_fmt(cert.tail_sup),
            **{"harmonic-y": cert.harmonic_y, "harmonic-bound": _fmt(cert.harmonic_bound)},
        )
        _emit(out, meta, ["x_k", "gamma_raw", "gamma", "method"], rows)
        return 0
    raise _UsageError(f"unknown bound {what!r}")


def _cmd_mc(args, out) -> int:
    params = _params(args)
    if args.what == "death":
        threshold = _parse_threshold(args.threshold)
        result = mc_death_prob(
            args.x,
            params,
            args.replicas,
            args.horizon,
            threshold,
            args.seed,
            confidence=args.confidence,
            workers=args.workers,
        )
        est = result.estimate
        _emit(
            out,
            _meta(args, **_RNG_META),
            ["replicas", "died", "point", "ci_lo", "ci_hi", "exploded", "undecided"],
            [[
                est.replicas,
                est.successes,
                _fmt(est.point),
                _fmt(est.ci_lo),
                _fmt(est.ci_hi),
                _fmt(result.exploded_fraction),
                _fmt(result.undecided_fraction),
            ]],
        )
        return 0
    if args.what == "ratio":
        rows = mc_ratio_convergence(
            params, args.x0, args.replicas, args.seed,
            horizon=args.horizon, workers=args.workers,
        )
        _emit(
            out,
            _meta(args, **_RNG_META),
            ["step", "count", "median_y", "err_q10", "err_q50", "err_q90"],
            [
                [r.step, r.count, _fmt(r.median_y), _fmt(r.err_q10), _fmt(r.err_q50), _fmt(r.err_q90)]
                for r in rows
            ],
        )
        return 0
    raise _UsageError(f"unknown mc experiment {args.what!r}")


def _cmd_verify(args, out) -> int:
    params = _params(args)
    if args.what == "submult":
        report = submultiplicativity_check(params, args.x, args.y, args.n, args.caps)
        _emit(
            out,
            _meta(args),
            ["x", "y", "n", "hi_xy", "hi_x", "hi_y", "lo_x", "lo_y", "status"],
            [[
                report.x, report.y, report.n,
                _fmt(report.interval_xy.hi), _fmt(report.interval_x.hi), _fmt(report.interval_y.hi),
                _fmt(report.interval_x.lo), _fmt(report.interval_y.lo), report.status,
            ]],
        )
        return 3 if report.status == "indeterminate" else 0
    if args.what == "absorption":
        report = geometric_absorption_check(params, args.x, args.n_max, args.caps)
        rows = [
            [r.n, _fmt(r.survival_lo), _fmt(r.survival_hi), _fmt(r.geometric_bound), r.status]
            for r in report.rows
        ]
        _emit(out, _meta(args), ["n", "survival_lo", "survival_hi", "bound", "status"], rows)
        return 3 if report.any_indeterminate else 0
    raise _UsageError(f"unknown verification {args.what!r}")


def _parse_grid(text: str) -> list:
    """Grid syntax: 'a:b' or 'a:b:step' for integer ranges, or a comma list."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise _UsageError(f"grid range {text!r} is not 'start:stop[:step]'")
        try:
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise _UsageError(f"grid range {text!r} has non-integer parts") from None
        if step < 1:
            raise _UsageError("grid step must be >= 1")
        return list(range(start, stop + 1, step))
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(int(token) if token.isdigit() else float(token))
        except ValueError:
            raise _UsageError(f"grid entry {token!r} is not a number") from None
    return out


def _cmd_sweep(args, out) -> int:
    law = parse_law_spec(args.law)
    args.law = format_law_spec(law)
    xs = _parse_grid(args.x_grid) if args.x_grid is not None else [args.x]
    if args.theta_grid is not None:
        thetas = _parse_grid(args.theta_grid)
    elif args.theta is not None:
        thetas = [args.theta]
    else:
        raise _UsageError("provide --theta or --theta-grid")
    if len(xs) * len(thetas) > 10**6:
        raise _UsageError("grid larger than 1e6 points; refuse to run")
    rows = []
    index = 0
    for theta in thetas:
        for x in xs:
            params = IGWParams(law, float(theta))
            if args.quantity == "death-interval":
                iv = death_prob_interval(int(x), params, args.caps, args.horizon)
                rows.append([index, _fmt(float(theta)), int(x), _fmt(iv.lo), _fmt(iv.hi)])
            elif args.quantity == "mc-death":
                threshold = _parse_threshold(args.threshold)
                result = mc_death_prob(
                    int(x), params, args.replicas, args.horizon, threshold,
                    args.seed + index,  # per-point seed, deterministic in grid order
                    confidence=args.confidence, workers=args.workers,
                )
                est = result.estimate
                rows.append([
                    index, _fmt(float(theta)), int(x),
                    _fmt(est.point), _fmt(est.ci_lo), _fmt(est.ci_hi),
                    _fmt(result.undecided_fraction),
                ])
            else:
                raise _UsageError(f"unknown sweep quantity {args.quantity!r}")
            index += 1
    if args.quantity == "death-interval":
        header = ["index", "theta", "x", "lo", "hi"]
        meta = _meta(args)
    else:
        header = ["index", "theta", "x", "point", "ci_lo", "ci_hi", "undecided"]
        meta = _meta(args, **_RNG_META)
    _emit(out, meta, header, rows)
    return 0


# -- wiring ------------------------------------------------------------------------


def _add_common(
    p: _Parser, *, law: bool = True, seed: bool = False, caps: bool = False,
    theta_required: bool = True,
):
    if law:
        p.add_argument("--law", required=True, help="binary:LAMBDA or pmf:k1=p1,k2=p2,...")
        p.add_argument(
            "--theta", type=float, required=theta_required,
            help="thinning parameter in (0,1]",
        )
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--workers", type=int, default=1)
    if caps:
        p.add_argument(
            "--caps", type=_parse_caps, default=Caps(),
            help="z,s,x truncation caps: total progeny s, chain state x; z is accepted and ignored",
        )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="key=value defaults file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="igw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="mean and almost-sure regime of (law, theta)")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", help="simulate trajectories to CSV")
    _add_common(p, seed=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--threshold", default="1e9")
    p.add_argument("--replicas", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("exact", help="exact distributions and certified intervals")
    p.add_argument("what", choices=[
        "total-progeny", "one-step", "one-step-death", "finite-horizon-death", "death-interval",
    ])
    _add_common(p, caps=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--horizon", type=int, default=256)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="analytic certificates")
    p.add_argument("what", choices=["q-star", "binary-death", "geometric-death", "explosion"])
    _add_common(p, law=False, caps=True)
    p.add_argument("--law", help="binary:LAMBDA or pmf:k1=p1,...")
    p.add_argument("--theta", type=float)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--q1", type=float, default=None, help="certified bound on the state-1 death probability")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--switch-point", type=int, default=64)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("mc", help="Monte Carlo estimates")
    p.add_argument("what", choices=["death", "ratio"])
    _add_common(p, seed=True)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--x0", type=int, default=1)
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--threshold", default="1e9")
    p.add_argument("--confidence", type=float, default=0.99)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("verify", help="inequality verification reports")
    p.add_argument("what", choices=["submult", "absorption"])
    _add_common(p, caps=True)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--y", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--n-max", type=int, default=12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="grid sweeps, one CSV row per point")
    _add_common(p, seed=True, caps=True, theta_required=False)
    p.add_argument("--quantity", choices=["death-interval", "mc-death"], required=True)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--x-grid", default=None, help="'a:b[:step]' or comma list")
    p.add_argument("--theta-grid", default=None, help="comma list of thinning values")
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--threshold", default="1e9")
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--confidence", type=float, default=0.99)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> list[str]:
    """Splice --config file entries as flags ahead of explicit ones."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise _UsageError("--config needs a file path")
    path = argv[idx + 1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from None
    injected: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"config line {line!r} is not key=value")
        key, _, value = line.partition("=")
        injected.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    # flags later on the command line override config-injected defaults
    head = argv[:1]
    tail = argv[1:]
    return head + injected + tail


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LawSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
