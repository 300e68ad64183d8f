"""One pass of a workload in a fresh interpreter.

Imports freeform from the checkout's ``src``, builds the workload's shapes
from the seed, verifies them one after another in a closed loop on one
thread, checks the outputs, and prints one JSON line with the timings,
the checks and, when traced, the per-name trace aggregates.

Started by run.py; not meant to be run by hand. ``--t-spawn`` is the
launcher's CLOCK_MONOTONIC reading just before it started this process,
so set-up time includes interpreter start and imports.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from freeform import reilly  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def capture_proof_chains(reports: list):
    """Keep every ProofChainReport: the CLI record drops its residuals."""
    chain = reilly.proof_chain_check

    def proof_chain_check(*args, **kwargs):
        rep = chain(*args, **kwargs)
        reports.append(rep)
        return rep
    reilly.proof_chain_check = proof_chain_check


def chain_extra(rep) -> dict:
    return {"pairing_residual": rep.pairing_residual,
            "slack_residual": rep.slack_residual,
            "pde_residual": rep.pde_residual, "trace_slack": rep.trace_slack,
            "final_lhs": rep.final_lhs, "final_rhs": rep.final_rhs,
            "cauchy_schwarz_ok": bool(rep.cauchy_schwarz_ok),
            "final_ok": bool(rep.final_ok)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace-out", default=None,
                    help="trace this pass and write its spans here (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    reports: list = []
    capture_proof_chains(reports)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()

    items, gen = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t_spawn
    out = {"setup_s": setup_s, "constructed": gen.constructed,
           "construction_failed": gen.failed, "items": len(items)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    suite_args = [workloads.suite_args(item, args.seed) for item in items]
    outputs, latencies, chain_reports = [], [], []
    t_start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.shape_id = i
        before = len(reports)
        t0 = time.perf_counter()
        try:
            result = workloads.run_item(item, suite_args[i])
        except Exception as exc:  # a raising verification is a failed record
            result = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(result)
        chain_reports.append(reports[before:])
    elapsed = time.perf_counter() - t_start

    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
        out["trace"] = tracer.aggregates()

    reference = checks.load_reference(args.workload) \
        if args.seed == checks.DEFAULT_SEED else None
    problems, records_out, attempted, failed = [], [], 0, 0
    for i, (item, result) in enumerate(zip(items, outputs)):
        if isinstance(result, Exception):
            attempted += 1
            failed += 1
            problems.append(f"{item.label}: raised {type(result).__name__}: {result}")
            records_out.append({"label": item.label, "records": None})
            continue
        for rec, rep in zip(result, chain_reports[i]):
            rec["extra"].update(chain_extra(rep))
        bad = checks.invariants(item, result)
        if reference is not None:
            bad += checks.against_reference(reference[i], item, result)
        attempted += len(result)
        failed += len({index for index, _ in bad})
        problems += [message for _, message in bad]
        records_out.append({"label": item.label, "records": result})

    out.update({
        "elapsed_s": elapsed, "latencies_s": latencies,
        "labels": [item.label for item in items],
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "records": records_out,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
