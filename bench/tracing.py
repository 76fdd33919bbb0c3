"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from outside the package: around the benchmark's own
calls into ``igw`` (the root spans, one operation each) and around the names
that the ``igw`` modules import from one another (``WRAP_SITES``), which are
swapped for recording wrappers while a traced pass runs and restored
afterwards.  Nothing in the package is edited.

Spans live in flat arrays (a simulate pass records over a million of them)
and are written out once, when the pass ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

#: (module, attribute, span name, hook).  The span name is the layer that
#: owns the function; the module is the import site that is wrapped.
WRAP_SITES = (
    ("igw.analysis", "harmonic_moment", "gw_engine.harmonic_moment", "harmonic"),
    # death_prob_interval's deferred import reads this attribute at call time
    ("igw.analysis", "fixed_point_q", "analysis.fixed_point_q", None),
    ("igw.analysis", "simulate_trajectory", "igw_process.simulate_trajectory", "trajectory"),
    ("igw.analysis", "stream_for", "gw_engine.stream_for", None),
    ("igw.igw_process", "simulate_total_progeny", "gw_engine.simulate_total_progeny", "generations"),
    ("igw.igw_process", "thin", "gw_engine.thin", None),
    ("igw.gw_engine", "mean", "reproduction_laws.mean", None),
    ("igw.gw_engine", "variance", "reproduction_laws.variance", None),
    ("igw.igw_process", "mean", "reproduction_laws.mean", None),
)

#: a progeny generation slower than this counts as heavy
HEAVY_GENERATION_S = 0.1


class Tracer:
    """Records spans: name, start, end, parent span and operation id.

    Every root span (a benchmark call) starts a new operation; nested spans
    inherit its id.  Without ``install`` only root spans are recorded, which
    is how the untraced pass times its operations.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.tags: dict[int, dict] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.harmonic: list[tuple] = []
        self.broken_hooks: set[str] = set()
        self.absent_sites: list[str] = []
        self._stack: list[int] = []
        self._ops = 0
        self._restore: list[tuple[object, str, object]] = []
        self._np = None

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        if self._stack:
            parent = self._stack[-1]
            op = self.op[parent]
        else:
            parent = -1
            self._ops += 1
            op = self._ops
        self.name_of.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, tags: dict | None = None, **kwargs):
        """Run one benchmark operation under a root span."""
        sid = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)
            if tags:
                self.tags[sid] = tags

    # -- wrapping the modules' import sites ---------------------------------

    def install(self) -> None:
        for module_name, attr, span_name, hook in WRAP_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent_sites.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, span_name, hook))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def _wrapper(self, fn, span_name: str, hook):
        open_, close = self._open, self._close
        after = getattr(self, f"_after_{hook}") if hook else None

        def wrapped(*args, **kwargs):
            sid = open_(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # Hooks read facts off a wrapped call.  A call whose shape they do not
    # recognise marks the hook broken, so its metric is reported absent
    # instead of failing the program.

    def _after_harmonic(self, sid, args, kwargs, value) -> None:
        self.harmonic.append((sid, args, kwargs, value))

    def _after_trajectory(self, sid, args, kwargs, traj) -> None:
        states = getattr(traj, "states", None)
        if states is None:
            self.broken_hooks.add("trajectory")
        else:
            self.counters["replica_steps"] += len(states) - 1

    def _after_generations(self, sid, args, kwargs, result) -> None:
        x = args[1] if len(args) > 1 else kwargs.get("x")
        if isinstance(x, int):
            self.counters["generations_requested"] += x
        else:
            self.broken_hooks.add("generations")

    # -- summaries ------------------------------------------------------------

    def _arrays(self):
        if self._np is None:
            name = np.frombuffer(self.name_of, dtype=np.int32)
            dur = np.frombuffer(self.end) - np.frombuffer(self.start)
            parent = np.frombuffer(self.parent, dtype=np.int64)
            self._np = name, dur, parent
        return self._np

    def spans_named(self, name: str) -> np.ndarray:
        nid = self._name_ids.get(name, -1)
        return np.nonzero(self._arrays()[0] == nid)[0]

    def durations(self, name: str) -> list[float]:
        return self._arrays()[1][self.spans_named(name)].tolist()

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus the time their child
        spans cover (children nest properly: one thread)."""
        _, dur, parent = self._arrays()
        ids = self.spans_named(name)
        children = np.isin(parent, ids)
        return float(dur[ids].sum() - dur[children].sum())

    def dump(self) -> dict:
        """All spans as arrays, for writing out at the end of a pass."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.name_of),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent),
            "op": np.array(self.op),
        }


def harmonic_useful(tracer: Tracer) -> int | None:
    """Quadratures that actually set ``h_used`` in explosion_lower_bound.

    Replays its rule ``h_used = min(h_quad, h_used * contraction**dy)``, with
    ``h_quad = E(1/Z_y) + quad_tol``, on the recorded calls of each
    certificate (one operation each) and counts the quadratures that won
    the ``min``.  None if the calls do not have the expected shape.
    """
    useful = 0
    state: dict[int, tuple[float, int]] = {}
    for sid, args, kwargs, value in tracer.harmonic:
        try:
            law = args[0] if args else kwargs["law"]
            y = args[1] if len(args) > 1 else kwargs["x"]
            quad_tol = args[2] if len(args) > 2 else kwargs.get("quad_tol", 1e-10)
            contraction = 1.0 - (1.0 - law.p1) / 2.0
        except (KeyError, AttributeError):
            return None
        op = tracer.op[sid]
        h_quad = value + quad_tol
        prev = state.get(op)
        if prev is None:
            useful += 1
            state[op] = (h_quad, y)
            continue
        h_used, anchor = prev
        carried = h_used * contraction ** (y - anchor)
        if h_quad <= carried:  # min() keeps its first argument on a tie
            useful += 1
        state[op] = (min(h_quad, carried), y)
    return useful


def per_layer_metrics(tracer: Tracer, results: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and the names that are absent:
    their wrap site is missing, or recorded nothing on this workload.
    Absent metrics are reported as 0."""
    out: dict[str, dict] = {}
    absent: list[str] = []

    def put(name, value, unit, present=True):
        if not present or value is None:
            absent.append(name)
            value = 0
        out[name] = {"value": value, "unit": unit}

    # exact_dist: the progeny law, one generation per benchmark call
    gens = tracer.durations("exact_dist.total_progeny_dist")
    put("exact_dist.progeny_law_s", sum(gens), "s", bool(gens))
    put("exact_dist.progeny_gen_max_s", max(gens, default=0.0), "s", bool(gens))
    heavy = sum(d > HEAVY_GENERATION_S for d in gens)
    put("exact_dist.progeny_heavy_gens", heavy, "count", bool(gens))

    # exact_dist: envelope kernels (the first interval at each theta builds
    # them) and warm intervals
    firsts, warm = [], []
    for i in tracer.spans_named("exact_dist.death_prob_interval").tolist():
        d = tracer.end[i] - tracer.start[i]
        (firsts if tracer.tags.get(i, {}).get("first") else warm).append(d)
    warm_p50 = statistics.median(warm) if warm else None
    builds = [f - warm_p50 for f in firsts] if warm else []
    put("exact_dist.kernel_build_s", statistics.median(builds) if builds else None, "s")
    put("exact_dist.kernel_builds", len(firsts), "count", bool(firsts))
    put("exact_dist.interval_warm_s_p50", warm_p50, "s")
    put("exact_dist.intervals", len(firsts) + len(warm), "count", bool(firsts))
    rss = results.get("rss_after_theta_mb", [])
    per_theta = (rss[-1] - rss[0]) / (len(rss) - 1) if len(rss) > 1 else None
    put("exact_dist.rss_per_theta_mb", per_theta, "MB")

    # analysis: q*, the explosion certificate, the two MC drivers
    q = tracer.durations("analysis.fixed_point_q")
    put("analysis.fixed_point_q_s", sum(q), "s", bool(q))
    put("analysis.fixed_point_q_calls", len(q), "count", bool(q))
    cert = tracer.durations("analysis.explosion_lower_bound")
    put("analysis.explosion_cert_s", sum(cert), "s", bool(cert))
    put("analysis.cert_steps", results.get("cert_steps", 0), "count", bool(cert))
    mc = tracer.durations("analysis.mc_death_prob")
    put("analysis.mc_death_s", sum(mc), "s", bool(mc))
    ratio = tracer.durations("analysis.ratio_crossing_errors")
    put("analysis.ratio_s", sum(ratio), "s", bool(ratio))

    # gw_engine: harmonic moments inside the certificate
    hm = tracer.durations("gw_engine.harmonic_moment")
    useful = harmonic_useful(tracer) if hm else None
    put("gw_engine.harmonic_moment_s", sum(hm), "s", bool(hm))
    put("gw_engine.harmonic_moment_calls", len(hm), "count", bool(hm))
    put("gw_engine.harmonic_useful", useful, "count")
    put("gw_engine.harmonic_useful_ratio", None if useful is None else useful / len(hm), "ratio")

    # igw_process: trajectories
    traj = tracer.durations("igw_process.simulate_trajectory")
    steps = tracer.counters["replica_steps"]
    counted = bool(traj) and "trajectory" not in tracer.broken_hooks
    put("igw_process.trajectory_s", sum(traj), "s", bool(traj))
    self_s = tracer.self_time("igw_process.simulate_trajectory")
    put("igw_process.trajectory_self_s", self_s, "s", bool(traj))
    put("igw_process.replica_steps", int(steps), "count", counted)
    per_step = 1e6 * sum(traj) / steps if counted and steps else None
    put("igw_process.us_per_replica_step", per_step, "us")

    # gw_engine: the simulation primitives
    for metric, span in (
        ("gw_engine.stream_for", "gw_engine.stream_for"),
        ("gw_engine.total_progeny", "gw_engine.simulate_total_progeny"),
        ("gw_engine.thin", "gw_engine.thin"),
    ):
        d = tracer.durations(span)
        put(f"{metric}_s", sum(d), "s", bool(d))
        put(f"{metric}_calls", len(d), "count", bool(d))
    gens_req = tracer.counters["generations_requested"]
    counted = gens_req > 0 and "generations" not in tracer.broken_hooks
    put("gw_engine.generations_requested", int(gens_req), "count", counted)

    # reproduction_laws: moments recomputed at both import sites
    for fn in ("mean", "variance"):
        n = len(tracer.spans_named(f"reproduction_laws.{fn}"))
        put(f"reproduction_laws.{fn}_calls", n, "count", n > 0)

    return out, absent
