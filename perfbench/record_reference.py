"""Record the reference numbers of the default seed into reference.json.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at the default seed and stores
each item's records (lhs, rhs, status and residual extras). Re-record only
when a change is meant to alter the numbers, and say so in the change.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import ROOT, WORKLOADS, BenchError, run_worker  # noqa: E402
from checks import DEFAULT_SEED, REFERENCE  # noqa: E402


def main() -> int:
    if not REFERENCE.exists():
        REFERENCE.write_text("{}\n")
    reference = {}
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED)
        try:
            res = run_worker(args, deadline=time.monotonic() + 600.0)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        if any(item["records"] is None for item in res["records"]):
            print(f"{workload}: an item raised; not recording", file=sys.stderr)
            return 1
        reference[workload] = res["records"]
        print(f"{workload}: {res['attempted']} records")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
