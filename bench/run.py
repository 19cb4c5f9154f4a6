"""folint benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh worker process (worker.py) with BLAS/OpenMP
threads pinned to one, and prints the worker's summary lines followed by a
last line holding one JSON object with the keys correct, attempted, failed
and metrics.  Untraced runs report the end-to-end metrics; --trace 1 reports
the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from worker import PLAN

WORKER = Path(__file__).resolve().parent / "worker.py"
TIME_LIMIT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv],
                              env=dict(os.environ, **PINNED), text=True,
                              stdout=subprocess.PIPE, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran out of time", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"error: worker exited with {proc.returncode} and no result",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    for key, m in sorted(result["metrics"].items()):
        print(f"# {args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
