"""Command-line front end.

Commands: classify, simulate, and one subcommand per quantity under exact,
bounds, mc, verify and sweep (``igw exact death-interval``, ``igw sweep
mc-death``, ...).  Every command path declares exactly the flags its
handler reads.  Output is CSV (RFC-4180 style, LF endings) preceded by a
``# key=value`` metadata block that echoes the path's fully resolved flags,
so every file is self-describing and byte-reproducible from its own header.

Exit codes: 0 success, 1 invalid input, 2 regime-precondition rejection,
3 verification not certified (indeterminate or violated).
"""

from __future__ import annotations

import argparse
import itertools
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
    TruncatedDist,
    death_interval_detail,
    death_prob_interval,
    finite_horizon_death,
    one_step_death_prob,
    one_step_dist,
    swept_states,
    total_progeny_dist,
)
from .gw_engine import DEFAULT_EXACT_CAP, ExtendedCount
from .igw_process import RNG_CHUNK, TERMINATIONS, ChunkPaths, classify_regimes, map_chunks
from .reproduction_laws import (
    IGWParams,
    OffspringLaw,
    RegimeError,
    format_law_spec,
    parse_law_spec,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        # no prefix matching: `mc ratio --x 5` must not be read as --x0
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cap(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"caps must be >= 1, got {value}")
    return value


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
        value = getattr(args, key)
        if key in skip or value is None:
            continue
        if isinstance(value, OffspringLaw):
            # the canonical spec string round-trips to the same law
            value = format_law_spec(value)
        meta[key.replace("_", "-")] = value
    meta.update(extra)
    return meta


#: Monte Carlo outputs record how replicas map to random streams: replica r
#: runs in chunk r // RNG_CHUNK, and each chunk has one stream.
_RNG_META = {"rng-chunk": RNG_CHUNK}


def _params(args: argparse.Namespace) -> IGWParams:
    return IGWParams(args.law, args.theta)


# -- command paths: each declares the flags its handler reads ----------------------

#: every flag a command path can declare
_FLAGS = {
    "law": dict(required=True, help="binary:LAMBDA or pmf:k1=p1,k2=p2,..."),
    "theta": dict(type=float, required=True, help="thinning parameter in (0,1]"),
    "theta-grid": dict(help="comma list of thinning values"),
    "x": dict(type=int, default=1, help="start state"),
    "x-grid": dict(help="start states: 'a:b[:step]' or a comma list of integers"),
    "x0": dict(type=int, default=1, help="start state"),
    "y": dict(type=int, default=1, help="second start state"),
    "n": dict(type=int, default=1, help="horizon of the finite-horizon death probability"),
    "n-max": dict(type=int, default=12, help="last horizon checked"),
    "horizon": dict(type=int, default=256, help="steps simulated or swept"),
    "x-cap": dict(type=_cap, default=512, help="chain-state cap; results below it are exact"),
    "s-cap": dict(type=_cap, default=4096, help="total-progeny cap"),
    "q1": dict(type=float, required=True, help="certified bound on the state-1 death probability"),
    "tol": dict(
        type=float, default=1e-12,
        help="bisection stops at width min(tol, 1e-14), so any tol >= 1e-14 gives the same q*",
    ),
    "seed": dict(type=int, default=0, help="master seed"),
    "workers": dict(type=int, default=1, help="processes; the output does not depend on it"),
    "replicas": dict(type=int, default=10000),
    "threshold": dict(default="1e9", help="state at which a path counts as exploded"),
    "confidence": dict(type=float, default=0.99, help="level of the Wilson interval"),
}

_GROUP_HELP = {
    "exact": "exact distributions and certified intervals",
    "bounds": "analytic certificates",
    "mc": "Monte Carlo estimates",
    "verify": "inequality verification reports",
    "sweep": "grid sweeps, one CSV row per point",
}

#: (command, quantity or None, summary, flags, handler), in help order
_PATHS: list = []


def _command(command: str, quantity: Optional[str], summary: str, *flags: str):
    """Register the decorated handler as the path ``igw command [quantity]``
    with ``flags``, names from ``_FLAGS``: ``name!`` makes a flag required,
    ``name=value`` changes its default, and ``a|b`` makes two flags mutually
    exclusive (one of them required when ``a`` is)."""
    def register(func):
        _PATHS.append((command, quantity, summary, flags, func))
        return func
    return register


def _declare(p: _Parser, flags: Sequence[str]) -> None:
    for entry in flags:
        names = entry.split("|")
        target = p
        if len(names) > 1:
            target = p.add_mutually_exclusive_group(required=_FLAGS[names[0]].get("required", False))
        for name in names:
            name, _, default = name.partition("=")
            flag = name.rstrip("!")
            spec = dict(_FLAGS[flag])
            if default:
                spec["default"] = default  # argparse converts it with spec["type"]
            if name.endswith("!"):
                spec["required"] = True
            if target is not p:  # the group carries the requirement
                spec.pop("required", None)
            target.add_argument(f"--{flag}", **spec)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="key=value defaults file")


@_command("classify", None, "mean and almost-sure regime of (law, theta)", "law", "theta")
def _classify(args, out) -> int:
    report = classify_regimes(_params(args))
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


@_command(
    "simulate", None, "simulate trajectories to CSV",
    "law", "theta", "x0!", "horizon", "threshold", "replicas=1", "seed", "workers",
)
def _simulate(args, out) -> int:
    chunks = map_chunks(
        _trajectory_rows, args.x0, _params(args), args.horizon, _parse_threshold(args.threshold),
        args.seed, "simulate", args.replicas, workers=args.workers, record=True,
    )
    rows = [row for chunk in chunks for row in chunk]
    _emit(out, _meta(args, **_RNG_META),
          ["replica", "step", "state_mode", "state_value", "log_state", "y_ratio", "termination"],
          rows)
    return 0


def _emit_dist(out, args, dist: TruncatedDist) -> int:
    rows = [[k, _fmt(float(p))] for k, p in enumerate(dist.atoms) if p > 0.0]
    rows.append(["overflow", dist.overflow])
    _emit(out, _meta(args, warning=dist.warning or ""), ["value", "prob"], rows)
    return 0


@_command("exact", "total-progeny", "law of S_x, cut at --s-cap", "law", "x!", "s-cap")
def _exact_total_progeny(args, out) -> int:
    return _emit_dist(out, args, total_progeny_dist(args.law, args.x, s_cap=args.s_cap))


@_command("exact", "one-step", "law of X_1 from x, cut at --x-cap", "law", "theta", "x!", "x-cap")
def _exact_one_step(args, out) -> int:
    return _emit_dist(out, args, one_step_dist(args.x, _params(args), Caps(x_cap=args.x_cap)))


@_command("exact", "one-step-death", "P_x(X_1 = 0), untruncated", "law", "theta", "x!")
def _exact_one_step_death(args, out) -> int:
    _emit(out, _meta(args), ["value"], [[one_step_death_prob(args.x, _params(args))]])
    return 0


@_command(
    "exact", "finite-horizon-death", "certified enclosure of P_x(X_n = 0)",
    "law", "theta", "x!", "n", "x-cap",
)
def _exact_finite_horizon_death(args, out) -> int:
    params, caps = _params(args), Caps(x_cap=args.x_cap)
    iv = finite_horizon_death(args.x, params, args.n, caps)
    meta = _meta(args, **{"swept-states": swept_states(params, caps)})
    _emit(out, meta, ["lo", "hi"], [[iv.lo, iv.hi]])
    return 0


@_command(
    "exact", "death-interval", "certified enclosure of the death probability P_x(D)",
    "law", "theta", "x!", "x-cap", "horizon",
)
def _exact_death_interval(args, out) -> int:
    detail = death_interval_detail(args.x, _params(args), Caps(x_cap=args.x_cap), args.horizon)
    meta = _meta(args, **{
        "swept-states": detail.swept_states,
        "width-truncation": detail.truncation,
        "width-closure": detail.closure,
    })
    _emit(out, meta, ["lo", "hi"], [[detail.interval.lo, detail.interval.hi]])
    return 0


@_command("bounds", "q-star", "smallest fixed point of the thinned pgf", "law", "theta", "tol")
def _bounds_q_star(args, out) -> int:
    _emit(out, _meta(args), ["q_star"], [[fixed_point_q(_params(args), args.tol)]])
    return 0


@_command("bounds", "binary-death", "closed-form death bound of a binary law", "law", "theta")
def _bounds_binary_death(args, out) -> int:
    params = _params(args)
    lam = params.law.binary_lambda
    if lam is None:
        raise RegimeError("the closed form applies to binary laws only")
    _emit(out, _meta(args), ["death_bound"], [[binary_death_bound(lam, params.theta)]])
    return 0


@_command("bounds", "geometric-death", "the geometric chain bound q1^x", "q1", "x")
def _bounds_geometric_death(args, out) -> int:
    _emit(out, _meta(args), ["death_bound"], [[geometric_death_bound(args.q1, args.x)]])
    return 0


@_command("bounds", "explosion", "certified lower bound on P_x(explode)", "law", "theta", "x")
def _bounds_explosion(args, out) -> int:
    cert = explosion_lower_bound(args.x, _params(args))
    rows = [[s.x_k, s.gamma_raw, s.gamma, s.method] for s in cert.steps]
    meta = _meta(
        args, bound=cert.bound, valid=cert.valid, tail_sum=cert.tail_sum, tail_sup=cert.tail_sup,
        **{"harmonic-y": cert.harmonic_y, "harmonic-bound": cert.harmonic_bound},
    )
    _emit(out, meta, ["x_k", "gamma_raw", "gamma", "method"], rows)
    return 0


@_command(
    "mc", "death", "fraction of paths absorbed at 0, with a Wilson interval",
    "law", "theta", "x", "replicas", "horizon", "threshold", "confidence", "seed", "workers",
)
def _mc_death(args, out) -> int:
    result = mc_death_prob(
        args.x, _params(args), args.replicas, args.horizon, _parse_threshold(args.threshold),
        args.seed, confidence=args.confidence, workers=args.workers,
    )
    est = result.estimate
    row = [est.replicas, est.successes, est.point, est.ci_lo, est.ci_hi,
           result.exploded_fraction, result.undecided_fraction]
    _emit(out, _meta(args, **_RNG_META),
          ["replicas", "died", "point", "ci_lo", "ci_hi", "exploded", "undecided"], [row])
    return 0


@_command(
    "mc", "ratio", "growth ratio log(X_{n+1})/X_n on exploding paths",
    "law", "theta", "x0", "replicas", "horizon", "seed", "workers",
)
def _mc_ratio(args, out) -> int:
    rows = mc_ratio_convergence(
        _params(args), args.x0, args.replicas, args.seed, horizon=args.horizon, workers=args.workers,
    )
    _emit(out, _meta(args, **_RNG_META),
          ["step", "count", "median_y", "err_q10", "err_q50", "err_q90"],
          [[r.step, r.count, r.median_y, r.err_q10, r.err_q50, r.err_q90] for r in rows])
    return 0


@_command(
    "verify", "submult", "P_{x+y}(X_n = 0) <= P_x(X_n = 0) P_y(X_n = 0) on certified intervals",
    "law", "theta", "x", "y", "n", "x-cap",
)
def _verify_submult(args, out) -> int:
    report = submultiplicativity_check(_params(args), args.x, args.y, args.n, Caps(x_cap=args.x_cap))
    row = [report.x, report.y, report.n, report.interval_xy.hi, report.interval_x.hi,
           report.interval_y.hi, report.interval_x.lo, report.interval_y.lo, report.status]
    _emit(out, _meta(args), ["x", "y", "n", "hi_xy", "hi_x", "hi_y", "lo_x", "lo_y", "status"], [row])
    return 3 if report.status == "indeterminate" else 0


@_command(
    "verify", "absorption", "P_x(X_n != 0) <= (1 - p_0)^n for n = 1..n-max",
    "law", "theta", "x", "n-max", "x-cap",
)
def _verify_absorption(args, out) -> int:
    report = geometric_absorption_check(_params(args), args.x, args.n_max, Caps(x_cap=args.x_cap))
    rows = [[r.n, r.survival_lo, r.survival_hi, r.geometric_bound, r.status] for r in report.rows]
    _emit(out, _meta(args), ["n", "survival_lo", "survival_hi", "bound", "status"], rows)
    return 0 if report.all_certified else 3


def _parse_grid(text: str, kind: type) -> list:
    """Grid syntax: 'a:b' or 'a:b:step' for integer ranges, or a comma list
    of ``kind`` values."""
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
        return [kind(v) for v in range(start, stop + 1, step)]
    try:
        return [kind(token) for token in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"grid entry is not of type {kind.__name__}: {exc}") from None


def _grid(args) -> list[tuple[int, float, int]]:
    """(index, theta, x) for every grid point, x varying fastest."""
    thetas = [args.theta] if args.theta_grid is None else _parse_grid(args.theta_grid, float)
    if args.x_grid is None:
        xs = [args.x]
    else:
        xs, args.x = _parse_grid(args.x_grid, int), None  # the metadata echoes the grid alone
    if len(xs) * len(thetas) > 10**6:
        raise _UsageError("grid larger than 1e6 points; refuse to run")
    return [(i, theta, x) for i, (theta, x) in enumerate(itertools.product(thetas, xs))]


@_command(
    "sweep", "death-interval", "certified death intervals over a grid",
    "law", "theta|theta-grid", "x|x-grid", "x-cap", "horizon",
)
def _sweep_death_interval(args, out) -> int:
    caps = Caps(x_cap=args.x_cap)
    rows = []
    for index, theta, x in _grid(args):
        iv = death_prob_interval(x, IGWParams(args.law, theta), caps, args.horizon)
        rows.append([index, theta, x, iv.lo, iv.hi])
    _emit(out, _meta(args), ["index", "theta", "x", "lo", "hi"], rows)
    return 0


@_command(
    "sweep", "mc-death", "Monte Carlo death estimates over a grid",
    "law", "theta|theta-grid", "x|x-grid", "replicas", "horizon", "threshold", "confidence",
    "seed", "workers",
)
def _sweep_mc_death(args, out) -> int:
    threshold = _parse_threshold(args.threshold)
    rows = []
    for index, theta, x in _grid(args):
        result = mc_death_prob(
            x, IGWParams(args.law, theta), args.replicas, args.horizon, threshold,
            args.seed + index,  # per-point seed, deterministic in grid order
            confidence=args.confidence, workers=args.workers,
        )
        est = result.estimate
        rows.append([index, theta, x, est.point, est.ci_lo, est.ci_hi, result.undecided_fraction])
    _emit(out, _meta(args, **_RNG_META),
          ["index", "theta", "x", "point", "ci_lo", "ci_hi", "undecided"], rows)
    return 0


# -- wiring ------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="igw", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    quantities = {}
    for command, quantity, summary, flags, func in _PATHS:
        if quantity is None:
            p = commands.add_parser(command, help=summary)
        else:
            if command not in quantities:
                group = commands.add_parser(command, help=_GROUP_HELP[command])
                dest = "quantity" if command == "sweep" else "what"
                quantities[command] = group.add_subparsers(dest=dest, required=True)
            p = quantities[command].add_parser(quantity, help=summary)
        _declare(p, flags)
        p.set_defaults(func=func)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Splice --config file entries as flags right after the command path,
    the leading tokens that are not flags."""
    # the last --config wins, as argparse reads it; `--config=path` counts too
    idx = max((i for i, token in enumerate(argv) if token.partition("=")[0] == "--config"), default=None)
    if idx is None:
        return argv
    _, eq, path = argv[idx].partition("=")
    if not eq:
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
    path_end = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    return argv[:path_end] + injected + argv[path_end:]


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_apply_config(argv))
        if hasattr(args, "law"):
            args.law = parse_law_spec(args.law)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError) as exc:  # LawSpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
