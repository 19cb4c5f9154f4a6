"""Time one benchmark workload per item across source trees, in process.

    python3 tools/pass_time.py [--workload NAME] [--seed N] [--passes N]
                               [--procs P] TREE [TREE ...]

Each TREE is a checkout holding ``src/folint``.  For each of P rounds the
trees take turns, each in a fresh process that imports folint from that
tree, builds the workload's items from the seed with ``bench/workloads.py``
(read from this repository, never written), runs one untimed warm-up pass
and then N timed passes.  The table gives each item's best time over every
pass of every process of a tree, the best pass, and the sha256 of a pass's
report texts (the digest ``bench/worker.py`` prints); a tree whose
processes disagree on the digest prints each one.  With several trees the
last column is the first tree's time over the last one's.

A best-of-N time in one process is far less sensitive to a shared host's
load than a rate over a run, so two trees compared this way, in alternating
processes, show a change of a few percent that whole runs do not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def one_process(tree: Path, workload: str, seed: int, passes: int) -> dict:
    """Warm-up pass and timed passes of one tree in this process."""
    sys.path[:0] = [str(tree / "src"), str(BENCH)]
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        items = workloads.build(workload, seed, Path(workdir))
        texts = [item.run()[1] for item in items]
        best = [float("inf")] * len(items)
        pass_best = float("inf")
        for _ in range(passes):
            t_pass = time.perf_counter()
            for i, item in enumerate(items):
                t0 = time.perf_counter()
                if item.run()[1] != texts[i]:
                    raise SystemExit(f"{item.name}: a timed pass changed the report")
                best[i] = min(best[i], time.perf_counter() - t0)
            pass_best = min(pass_best, time.perf_counter() - t_pass)
    digest = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
    return {
        "items": [item.name for item in items],
        "item_s": best,
        "pass_s": pass_best,
        "digest": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--workload", default="symbolic-deep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--procs", type=int, default=3)
    ap.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        result = one_process(args.trees[0].resolve(), args.workload, args.seed, args.passes)
        print(json.dumps(result))
        return 0

    runs: dict[Path, list[dict]] = {tree: [] for tree in args.trees}
    for _ in range(args.procs):
        for tree in args.trees:
            cmd = [sys.executable, __file__, "--one", str(tree), "--workload", args.workload,
                   "--seed", str(args.seed), "--passes", str(args.passes)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            runs[tree].append(json.loads(out.splitlines()[-1]))

    names = runs[args.trees[0]][0]["items"]
    best = {t: [min(r["item_s"][i] for r in rs) for i in range(len(names))]
            for t, rs in runs.items()}
    width = max(len(n) for n in names + ["pass"])
    print(f"# {args.workload} seed {args.seed}: best of {args.passes} passes "
          f"x {args.procs} processes per tree, ms")
    for k, tree in enumerate(args.trees):
        print(f"# tree {k}: {tree}")
    head = "".join(f"{f'tree {k}':>10}" for k in range(len(args.trees)))
    ratio = len(args.trees) > 1
    print(f"{'item':<{width}}{head}" + (f"{'ratio':>8}" if ratio else ""))
    rows = [(n, [best[t][i] for t in args.trees]) for i, n in enumerate(names)]
    rows.append(("pass", [min(r["pass_s"] for r in runs[t]) for t in args.trees]))
    for name, times in rows:
        cells = "".join(f"{s * 1e3:10.2f}" for s in times)
        print(f"{name:<{width}}{cells}" + (f"{times[0] / times[-1]:8.2f}" if ratio else ""))
    for k, tree in enumerate(args.trees):
        digests = sorted({r["digest"] for r in runs[tree]})
        print(f"digest tree {k}: {' '.join(digests)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
