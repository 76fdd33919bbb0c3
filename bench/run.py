"""Benchmark of the igw package: certify, theta-grid and simulate workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout; the package is imported from ``src``.
Every pass of a workload runs in a fresh interpreter (``bench/worker.py``),
because a command-line user pays the cold caches on every call.

``--trace 0`` times interpreter start-up in ``SETUP_PROBES`` extra
interpreters plus each pass's own, then runs passes while another one fits
in ``--seconds`` (always at least one), and reports the end-to-end metrics:
medians over the samples.  Start-up and wall times are converted to the
reference speed of ``bench/speed.py``; the raw medians are in the summary.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, plus ``trace.overhead_s``, the traced
minus the untraced raw wall time.

A provenance and summary block goes to standard output and to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; the traced pass's spans
go to ``.bench_out/spans-<workload>-seed<seed>.npz``.  The last line of
standard output is the JSON result.  Exit code 0 means every pass ran;
failed operations are reported in the result, not by the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("certify", "theta-grid", "simulate")
SETUP_PROBES = 4
#: every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "interval_width_max": "prob"}
#: reported in the summary block only.  The raw times are too noisy on a
#: shared host to gate; the others are 0 or undefined on some workload.
SUMMARY_UNITS = {
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "failed_frac": "ratio",
    "explosion_bound_min": "prob",
    "replicas_per_s": "1/s",
}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def run_pass(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Start a worker, time it until it prints ``ready``, and collect its
    JSON line.  Returns start-up seconds, raw and at the reference speed,
    and the worker's result."""
    env = dict(os.environ, IGW_BENCH_SRC=str(SRC), PYTHONPATH="")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if code != 0 or first.strip() != "ready" or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    res = json.loads(lines[-1])
    setup_ref_s = (setup_s - res["setup_inside_s"]) * res["setup_speed"]
    return setup_s, setup_ref_s, res


def provenance(workload: str, seed: int, seconds: int, trace: int, versions: dict) -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted((SRC / "igw").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    """Untraced run: end-to-end metrics, summary values and the passes."""
    setups = [run_pass(["--probe"], deadline)[:2] for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    while True:
        setup_s, setup_ref_s, res = run_pass(["--workload", workload, "--seed", str(seed)], deadline)
        setups.append((setup_s, setup_ref_s))
        passes.append(res)
        spent = sum(p["wall_s"] for p in passes)
        if spent + spent / len(passes) > seconds:
            break
    wall_ref = statistics.median(p["wall_ref_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": wall_ref,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "interval_width_max": max(p["interval_width_max"] for p in passes),
    }
    summary = {
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "wall_raw_s": statistics.median(p["wall_s"] for p in passes),
        "setup_samples": len(setups),
        "passes": len(passes),
    }
    if "explosion_bound_min" in passes[0]:
        summary["explosion_bound_min"] = min(p["explosion_bound_min"] for p in passes)
    if "replicas" in passes[0]:
        summary["replicas_per_s"] = passes[0]["replicas"] / wall_ref
    return metrics, summary, passes


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, dict, list]:
    """Traced run: per-layer metrics from one traced pass, against one
    untraced pass for the tracing overhead."""
    _, _, plain = run_pass(["--workload", workload, "--seed", str(seed)], deadline)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    _, _, traced = run_pass(
        ["--workload", workload, "--seed", str(seed), "--trace", "--spans", str(spans)], deadline
    )
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    summary = {
        "absent": traced["absent"],
        "absent_sites": traced["absent_sites"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, summary, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "igw" / "__init__.py").is_file():
        print(f"no igw package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in workloads)


def run_workload(workload: str, seed: int, seconds: int, traced: int) -> int:
    """One run of one workload; prints its report and its JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    try:
        if traced:
            metrics, summary, passes = trace(workload, seed, deadline)
        else:
            raw, summary, passes = measure(workload, seed, seconds, deadline)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in raw.items()}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary["failed_frac"] = failed / attempted
    summary["failures"] = [f for p in passes for f in p["failures"]][:20]
    report = {
        "provenance": provenance(workload, seed, seconds, traced, passes[0]["versions"]),
        "summary": summary,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{workload}-seed{seed}-trace{traced}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")

    print("# " + json.dumps(report["provenance"]))
    shown = {k: (m["value"], m["unit"]) for k, m in metrics.items()}
    if not traced:
        for name, unit in SUMMARY_UNITS.items():
            shown[name] = (summary.get(name, "n/a"), unit)
    for name, (value, unit) in shown.items():
        absent = " (absent)" if name in summary.get("absent", ()) else ""
        print(f"{workload} {name} = {value} {unit}{absent}")
    for failure in summary["failures"]:
        print(f"{workload} FAILED {failure}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
