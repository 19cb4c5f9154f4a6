"""Run one benchmark workload in this process and print its result.

run.py starts this script in a fresh process per run, with BLAS/OpenMP
threads pinned to one.  It is a closed loop with a single client: each item
starts when the previous one has returned.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

The last line of stdout is one JSON object.  Set-up (importing folint,
generating the items from the seed, writing and parsing their documents) is
timed on its own; an untraced run also times it in set-up-only processes
started between its timed passes.  One untimed warm-up pass fills the process-wide caches
(``monomial_period`` keeps an lru_cache) and its outputs are checked; the
timed passes must reproduce them byte for byte.  Untraced runs give the
end-to-end metrics; a traced run (--trace 1) repeats a pass untraced and
then traced, and gives the per-layer metrics.

On a shared host an item's time switches between a fast and a slow level,
about 1.7x apart, as other tenants load the machine; the share of a run
spent at the slow level ranged from about a tenth to all of it between runs.
A mean over the run moves with that share.  items_per_s and item_p50_ms are
therefore taken from each item's upper-decile time over the timed passes,
which sits at the slow level whenever the run spends more than a tenth of
its time there.  The run's plain mean rate is printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Timed passes per untraced run: at least min_passes, and after that another
# pass only while the timed wall time plus half a mean pass stays within
# --seconds, so that a run measures for --seconds give or take half a pass.
# The tail percentile is fixed per workload so that it stays comparable
# when a faster program fits more passes; min_passes guarantees at least
# ten samples beyond it.  It sits near the top of an item class, so that it
# reads that class's slow level: on symbolic-deep p75 is the top of the
# reversible forms, and on oracle-grid p90 falls among the 2x2 and rational
# items, below the one 2x3 item.
PLAN = {
    "symbolic-deep": {"min_passes": 3, "tail": 75},
    "oracle-grid": {"min_passes": 8, "tail": 90},
}
# Percentile of an item's times over the timed passes that items_per_s and
# item_p50_ms are taken from.
ITEM_LEVEL = 90
# setup_s is the median over this many set-up-only processes plus the
# measuring one.  They run in batches between the timed passes (never inside
# one), because the host's speed drifts over seconds: probes taken back to
# back all land in one phase of the drift, probes spread over the run do not.
SETUP_PROBES = 12
PROBES_PER_BATCH = 3
# Largest share of an item's wall time, measured outside the tracer, that
# its spans' self times may leave unaccounted for.
ACCOUNTING_TOLERANCE = 0.01
# Seed whose concatenated reports must match the digests in expected.json:
# folint promises byte-identical reports, so any change to them shows.
# oracle-grid has no digest, because its reports hold floats that a change of
# integrator may move in the last digits while staying correct.
DEFAULT_SEED = 1


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def calibrate_ms() -> float:
    """A fixed pure-Python loop; shows host drift, never rescales a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def run_pass(items, tracer=None, first_id=0):
    """Run every item once; return [(code, text)], per-item seconds, wall."""
    outputs, times = [], []
    wall0 = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = item.run()
            else:
                out = tracer.run_item(first_id + i, item.run)
        except Exception as exc:  # an item that raises is a failed item
            out = (None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, times, time.perf_counter() - wall0


def check_outputs(items, outputs) -> list[str | None]:
    verdicts = []
    for item, (code, text) in zip(items, outputs):
        if code is None:
            verdicts.append(f"raised {text.splitlines()[0]}")
            continue
        try:
            verdicts.append(item.check(code, text))
        except Exception as exc:  # a report the check cannot read is wrong
            verdicts.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return verdicts


def digest(outputs) -> str:
    h = hashlib.sha256()
    for _, text in outputs:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def percentile(values, pct):
    """Nearest-rank percentile, with the count of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    """Outputs of one worker run and the failures found in them."""

    def __init__(self, workload, items, warm):
        self.workload = workload
        self.items = items
        self.reference = warm
        self.verdicts = check_outputs(items, warm)
        self.attempted = 0
        self.failed = 0
        self.harness_ok = True  # whole-run checks: report digest, span accounting
        self.notes: list[str] = []
        for item, verdict in zip(items, self.verdicts):
            if verdict is not None:
                self.note(f"{item.name}: {verdict}")

    def note(self, message):
        if len(self.notes) < 10:
            self.notes.append(message)

    def tally(self, outputs):
        """Count a timed pass: an item fails its check or differs from warm-up."""
        for item, ref, out, verdict in zip(self.items, self.reference, outputs,
                                           self.verdicts):
            self.attempted += 1
            if verdict is not None or out != ref:
                self.failed += 1
                if verdict is None:
                    self.note(f"{item.name}: output differs from the warm-up pass")

    def check_digest(self, seed) -> None:
        got = digest(self.reference)
        print(f"# reports sha256 {got}")
        expected = json.loads((BENCH / "expected.json").read_text())
        want = expected.get(self.workload)
        if seed == DEFAULT_SEED and want is not None and got != want:
            self.harness_ok = False
            self.note(f"report digest {got} differs from expected {want}")

    @property
    def correct(self) -> bool:
        return self.harness_ok and self.failed == 0 and all(
            v is None for v in self.verdicts)


def probe_setup(workload, seed, setups):
    """Time set-up in fresh processes: a batch of PROBES_PER_BATCH at most."""
    for _ in range(min(PROBES_PER_BATCH, SETUP_PROBES + 1 - len(setups))):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"], stdout=subprocess.PIPE, text=True, check=True)
        setups.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def untraced(run, seed, seconds, calib, setups):
    plan = PLAN[run.workload]
    per_pass, wall = [], 0.0
    while (len(per_pass) < plan["min_passes"]
           or wall + 0.5 * wall / len(per_pass) < seconds):
        probe_setup(run.workload, seed, setups)
        calib.append(calibrate_ms())
        outputs, pass_times, pass_wall = run_pass(run.items)
        run.tally(outputs)
        per_pass.append(pass_times)
        wall += pass_wall
    times = [t for pass_times in per_pass for t in pass_times]
    # each item's upper-decile time over the passes
    levels = [percentile(item_times, ITEM_LEVEL)[0] for item_times in zip(*per_pass)]
    tail, beyond = percentile(times, plan["tail"])
    print(f"# {len(per_pass)} passes, {len(times)} items in {wall:.2f} s "
          f"(mean rate {len(times) / wall:.4f} items/s), "
          f"failed {run.failed}/{run.attempted} "
          f"(failed_ratio {run.failed / run.attempted:.4f})")
    print(f"# items_per_s and item_p50_ms use each item's p{ITEM_LEVEL} over "
          f"{len(per_pass)} passes; item_tail_ms is p{plan['tail']} of "
          f"{len(times)} samples, {beyond} beyond it")
    probe_setup(run.workload, seed, setups)
    print(f"# host.calib_ms median {statistics.median(calib):.3f}")
    print(f"# setup_s median of {len(setups)} processes: "
          + " ".join(f"{s:.4f}" for s in setups))
    if run.workload == "oracle-grid":
        print(f"# oracle_m1_err {m1_error(run):.6g}")
    return {
        "items_per_s": len(levels) / sum(levels),
        "item_p50_ms": statistics.median(levels) * 1e3,
        "item_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
    }


def m1_error(run) -> float:
    """Largest relative error of the fitted M_1 over every oracle (form, t)."""
    from workloads import oracle_m1_error

    if run.workload != "oracle-grid":
        return 0.0
    return max(oracle_m1_error(item, text)
               for item, (_, text) in zip(run.items, run.reference))


def traced(run, seed, calib):
    import spans
    from folint import abelian

    calib.append(calibrate_ms())
    outputs, _, wall_untraced = run_pass(run.items)
    run.tally(outputs)
    calib.append(calibrate_ms())

    tracer = spans.Tracer()
    tracer.install()
    before = abelian.monomial_period.cache_info()
    try:
        outputs, item_times, wall_traced = run_pass(run.items, tracer)
    finally:
        tracer.uninstall()
    after = abelian.monomial_period.cache_info()
    run.tally(outputs)
    calib.append(calibrate_ms())

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{run.workload}-seed{seed}.npz")
    gap = tracer.item_accounting(item_times)
    if gap > ACCOUNTING_TOLERANCE:
        run.harness_ok = False
        run.note(f"span self times miss {gap:.2%} of an item's wall time")

    totals = tracer.layer_totals()
    derived = spans.derived_counters(tracer)
    metrics = {f"{label}.{field}": value
               for label, fields in totals.items() for field, value in fields.items()}
    metrics.update(derived)
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    metrics["abelian.monomial_period.lookups"] = lookups
    metrics["abelian.monomial_period.hit_ratio"] = hits / lookups if lookups else 0.0
    integrate_s = sum(totals[label]["busy_s"] for label in (
        "oracle.holonomy_return", "oracle.melnikov_estimate",
        "oracle.first_melnikov_richardson"))
    steps, lane_steps = derived["oracle.steps"], derived["oracle.lane_steps"]
    metrics["oracle.us_per_step"] = integrate_s / steps * 1e6 if steps else 0.0
    metrics["oracle.us_per_lane_step"] = (
        integrate_s / lane_steps * 1e6 if lane_steps else 0.0)
    metrics["oracle.m1_err"] = m1_error(run)
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced
    metrics["host.calib_ms"] = statistics.median(calib)

    item_total = totals[spans.ITEM]["busy_s"]
    ranked = sorted(((v["self_s"], k) for k, v in totals.items() if k != spans.ITEM),
                    reverse=True)
    print(f"# traced {len(run.items)} items: {wall_traced:.2f} s traced, "
          f"{wall_untraced:.2f} s untraced; span self times account for all "
          f"but {gap:.4%} of each item's wall time; wrapped folint functions "
          f"cover {1 - totals[spans.ITEM]['self_s'] / item_total:.1%} of it")
    for self_s, label in ranked[:5]:
        print(f"#   self {self_s:9.4f} s  {label}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import folint from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        items = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        calib = [calibrate_ms()]
        warm, _, _ = run_pass(items)
        run = Run(args.workload, items, warm)
        run.check_digest(args.seed)
        if args.trace:
            metrics = traced(run, args.seed, calib)
        else:
            metrics = untraced(run, args.seed, args.seconds, calib, [setup_s])
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in run.notes:
        print(f"FAIL {message}", file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared_metrics(args.trace).items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
