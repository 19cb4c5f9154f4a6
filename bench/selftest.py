"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. Traces a small sample of every workload's items and fails if any wrapped
   folint function recorded no call, so that a renamed function fails here
   instead of reading zero in the per-layer metrics.
2. Checks that the span self times of each traced item add up to its wall
   time as timed outside the tracer.
3. Corrupts reports one way at a time and checks that the output check
   rejects each one and that a timed pass counts it as a failed item.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker

sys.path.insert(0, str(worker.ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from folint import cli  # noqa: E402

SEED = 1
# A few cheap items per workload that together reach every wrapped function.
SAMPLE = {
    "symbolic-deep": ("reversible-2", "classical-y2-m6", "baseline-melnikov-13"),
    "oracle-grid": ("poly-1x1-0", "example3-oracle"),
}


def _edit(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _first(items, prefix):
    for index, item in enumerate(items):
        if item.name.startswith(prefix):
            return index
    raise LookupError(f"no sampled item named {prefix}*")


def corruptions(workload, items, outputs):
    """(label, item index, corrupted output) for every case to be caught."""
    nan = float("nan")
    if workload == "symbolic-deep":
        gv = _first(items, "reversible")
        mel = _first(items, "baseline-melnikov")
        cls = _first(items, "classical")
        edits = (
            ("defect flipped", gv, lambda d: d["defect_zero"].update({"0": False})),
            ("factor not a unit", gv,
             lambda d: d.update(integrating_factor="2" + d["integrating_factor"])),
            ("factor 1/2", gv,
             lambda d: d.update(integrating_factor="1/2" + d["integrating_factor"][1:])),
            ("Melnikov value nonzero", mel, lambda d: d["melnikov"].__setitem__(0, "π·t")),
            ("eta_0 not dF/r_1", cls, lambda d: d.update(r1="2" + d["r1"])),
        )
    else:
        poly = _first(items, "poly")
        rat = _first(items, "example3")
        edits = (
            ("NaN in the table", poly,
             lambda d: d["oracle_table"]["rows"][0].__setitem__(2, nan)),
            ("cross-check disagrees", poly,
             lambda d: d["cross_check"][0].update(agrees=False)),
            ("rational delta too large", rat,
             lambda d: d["oracle_table"]["rows"][0].__setitem__(2, 1e-3)),
        )
    cases = [(label, i, (outputs[i][0], _edit(outputs[i][1], change)))
             for label, i, change in edits]
    cases.append(("unexpected exit code", 0, (cli.EXIT_INTERNAL, outputs[0][1])))
    cases.append(("item raised", 0, (None, "RuntimeError: injected\n")))
    return cases


def main() -> int:
    problems = []
    called: dict[str, int] = {label: 0 for label, _, _ in spans.TARGETS}
    worker.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.WORK))
    try:
        for workload, names in SAMPLE.items():
            sub = workdir / workload
            sub.mkdir()
            items = [i for i in workloads.build(workload, SEED, sub) if i.name in names]
            if len(items) != len(names):
                problems.append(f"{workload}: sample items missing")
                continue
            warm, _, _ = worker.run_pass(items)
            run = worker.Run(workload, items, warm)
            problems += [f"{workload}: {n}" for n in run.notes]

            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, item_times, _ = worker.run_pass(items, tracer)
            finally:
                tracer.uninstall()
            if traced != warm:
                problems.append(f"{workload}: tracing changed an output")
            gap = tracer.item_accounting(item_times)
            if gap > worker.ACCOUNTING_TOLERANCE:
                problems.append(f"{workload}: span self times miss {gap:.2%} of item time")
            for label, totals in tracer.layer_totals().items():
                if label in called:
                    called[label] += totals["calls"]

            for label, index, bad in corruptions(workload, items, warm):
                if worker.check_outputs([items[index]], [bad])[0] is None:
                    problems.append(f"{workload}: check accepts a corrupted report ({label})")
                outputs = list(warm)
                outputs[index] = bad
                before = run.failed
                run.tally(outputs)
                if run.failed - before != 1:
                    problems.append(f"{workload}: corrupted report not counted ({label})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += [f"{label} recorded no call" for label, n in called.items() if n == 0]
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(called)} wrapped functions, "
          f"{'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
