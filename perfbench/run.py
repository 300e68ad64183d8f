"""Benchmark launcher for freeform.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Verifies the workload's seeded shapes in
a closed loop: one client, one thread, the next shape only after the
previous one is verified. The loop runs in passes; each pass is a fresh
interpreter (worker.py) that imports freeform, builds every shape of the
workload and verifies them in turn, so every pass starts with the empty
caches of a CLI invocation. Passes repeat until the timed phases add up
to ``--seconds``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes, half the time each, and prints
the per-layer metrics of the traced passes. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("suites-profile", "charts-full", "proof-chain")
SETUP_SAMPLES = 5       # set-up is repeated until it has this many samples
P90_MIN_SAMPLES = 100   # at least ten samples beyond the 90th percentile
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, deadline: float, trace_out: Path | None = None,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t-spawn", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass started")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes until each kind's timed phases add up to
    its share of ``--seconds``. Traced passes alternate with untraced ones,
    so a drift in machine speed affects both alike."""
    kinds = (False, True) if args.trace else (False,)
    budget = args.seconds / len(kinds)
    passes = {traced: [] for traced in kinds}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        for old in OUT.glob(f"spans-{args.workload}-pass*.npz"):
            old.unlink()

    def short(traced):
        return sum(p["elapsed_s"] for p in passes[traced]) < budget

    while any(short(traced) for traced in kinds):
        for traced in kinds:
            if short(traced):
                trace_out = None
                if traced:
                    trace_out = OUT / f"spans-{args.workload}-pass{len(passes[True])}.npz"
                passes[traced].append(run_worker(args, deadline, trace_out))
    return passes[False], passes.get(True, [])


def throughput(passes: list[dict]) -> float:
    """Median over passes of shapes verified per second."""
    return statistics.median(len(p["latencies_s"]) / p["elapsed_s"] for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    lat_ms = [1e3 * t for p in passes for t in p["latencies_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "shapes_per_s": (throughput(passes), "1/s"),
        "shape_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = [f"samples: {len(lat_ms)} shapes in {len(passes)} passes, "
             f"{len(setups)} set-ups"]
    if len(lat_ms) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        notes.append(f"shape_p90_ms {p90:.4f} ms ({len(lat_ms)} samples)")
    else:
        notes.append(f"shape_p90_ms not reported: {len(lat_ms)} samples "
                     f"< {P90_MIN_SAMPLES}")
    return metrics, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of the traced passes, normalised per verified shape."""
    agg = [p["trace"] for p in traced]
    names = agg[0]["names"]
    shapes = sum(len(p["latencies_s"]) for p in traced)

    def total(key, name):
        i = names.index(name)
        return sum(a[key][i] for a in agg)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in names:
        m[f"{name}.calls"] = (total("calls", name) / shapes, "1/shape")
        m[f"{name}.self_ms"] = (1e3 * total("self_s", name) / shapes, "ms/shape")
    for name in ("geometry.frame_at", "geometry.surface_data",
                 "functionals.hypothesis_report", "functionals.check_main_inequality",
                 "functionals.check_corollary_low_dim",
                 "functionals.divergence_free_check", "reilly.solve_neumann",
                 "reilly.proof_chain_check", "reilly.reilly_residual",
                 "reilly.substatic_consistency", "cli.run_suite_on_shape"):
        m[f"{name}.total_ms"] = (1e3 * total("total_s", name) / shapes, "ms/shape")
    nested = {key: sum(a["nested"][key] for a in agg) for key in agg[0]["nested"]}
    frame_calls = total("calls", "geometry.frame_at")
    builds = total("calls", "geometry.SurfaceData")
    cap_calls = total("calls", "functionals.cap_function")
    solves = total("calls", "reilly.spsolve")
    shape_s = sum(p["elapsed_s"] for p in traced) / shapes
    m.update({
        "geometry.frame_at.us_per_call":
            (1e6 * ratio(total("total_s", "geometry.frame_at"), frame_calls), "us"),
        "geometry.frame_at.calls_in_solve_neumann":
            (nested["geometry.frame_at>reilly.solve_neumann"] / shapes, "1/shape"),
        "geometry.surface_data.nodes":
            (ratio(total("sizes", "geometry.SurfaceData"), builds), "nodes/build"),
        "geometry.surface_data.build_ratio":
            (ratio(builds, total("calls", "geometry.surface_data")), "builds/call"),
        "functionals.cap_function.build_ratio":
            (ratio(nested["geometry.make_cap>functionals.cap_function"], cap_calls),
             "builds/call"),
        "reilly.spsolve.unknowns": (ratio(total("sizes", "reilly.spsolve"), solves),
                                    "count"),
        "reilly.solve_neumann.share":
            (ratio(total("total_s", "reilly.solve_neumann") / shapes, shape_s), "frac"),
        "trace.shape_ms": (1e3 * shape_s, "ms"),
        "trace.overhead_frac": (throughput(untraced) / throughput(traced) - 1.0, "frac"),
        "trace.spans": (sum(a["spans"] for a in agg), "count"),
    })
    for layer in ("geometry", "symalg", "spaceform", "functionals", "reilly", "cli"):
        m[f"{layer}.errors"] = (sum(total("errors", n) for n in names
                                    if n.startswith(layer + ".")), "count")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "freeform" / "__init__.py").is_file():
        print(f"perfbench: no freeform sources under {ROOT / 'src'}; "
              "run from the root of a freeform checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        untraced, traced = run_passes(args, deadline)
        passes = untraced + traced
        setups = [p["setup_s"] for p in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(args, deadline, setup_only=True)["setup_s"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = passes[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    v = first["versions"]
    nproc = len(os.sched_getaffinity(0))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={nproc} python={v['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} threads: BLAS/OpenMP pinned to 1")
    print(f"inputs: {first['items']} shapes per pass, {first['constructed']} "
          f"constructed, {first['construction_failed']} constructions failed "
          f"and redrawn")
    print("loop: closed, one client, one thread, no I/O in the timed phase; "
          "no layer waits on another, so no wait time is reported")
    for msg in sorted({m for p in passes for m in p["problems"]})[:20]:
        print(f"check failed: {msg}")
    e2e, notes = end_to_end(untraced, setups)
    for note in notes:
        print(note)
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} records)")
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = dict(e2e)
        metrics["records_ok_frac"] = (1.0 - failed / attempted, "frac")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
