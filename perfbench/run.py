"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each in a fresh child process (the
catalog memo and the field cache would turn a repeated round into a cache
hit), until S seconds have passed.  Prints, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: with
--trace 0 the end-to-end metrics (medians over rounds), with --trace 1
the per-layer metrics of traced rounds, interleaved with untraced rounds
that give the tracing overhead.  The inputs are fixed, so the seed only
labels the run.
"""

from __future__ import annotations

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
ROUND_TIMEOUT_S = 150
# start no round after this much of the run has passed, so a run ends
# well inside its 180 s limit
LAST_START_S = 100
# per-layer metrics a traced run adds to those of child.layer_metric_names
TRACE_METRICS = ("trace.self_share_pct", "trace.overhead_s")

sys.path.insert(0, str(HERE))


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, trace: bool) -> dict:
    # a fixed hash seed gives every round the same set and dict layouts
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload,
             "1" if trace else "0", str(OUT)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        raise RoundFailed("round of %s timed out" % workload)
    if proc.returncode != 0:
        raise RoundFailed("round of %s exited %d:\n%s"
                          % (workload, proc.returncode, proc.stderr[-2000:]))
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - spawned
    return doc


def run_rounds(workload: str, seconds: int, trace: bool) -> tuple:
    """Rounds until `seconds` have passed; with trace, traced and untraced
    rounds alternate, starting traced, and there is at least one of each."""
    start = time.monotonic()
    traced: list = []
    plain: list = []
    while True:
        take_traced = trace and len(traced) <= len(plain)
        (traced if take_traced else plain).append(
            run_round(workload, take_traced))
        elapsed = time.monotonic() - start
        if elapsed >= LAST_START_S or (elapsed >= seconds and plain):
            return traced, plain


def summarize(workload: str, seconds: int, trace: bool) -> dict:
    from child import layer_metric_names, layer_unit

    traced, plain = run_rounds(workload, seconds, trace)
    rounds = traced + plain
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print("check failed: %s" % e, file=sys.stderr)
    med = statistics.median
    if trace:
        wall_traced = med(r["wall_s"] for r in traced)
        wall_plain = med(r["wall_s"] for r in plain)
        metrics = {name: {"value": med(r["layers"][name] for r in traced),
                          "unit": layer_unit(name)}
                   for name in layer_metric_names()}
        self_total = med(r["layers"]["trace.self_s_total"] / r["wall_s"]
                         for r in traced)
        for name, value in zip(TRACE_METRICS, (100 * self_total,
                                               wall_traced - wall_plain)):
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        metrics = {
            "wall_s": {"value": med(r["wall_s"] for r in plain),
                       "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": med(r["setup_s"] for r in plain),
                        "unit": "s"},
        }
    return {"correct": not errors,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
            "round_walls": [round(r["wall_s"], 3) for r in rounds]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cretan" / "__init__.py").is_file():
        print("no cretan sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        doc = summarize(args.workload, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    walls = doc.pop("round_walls")
    print("workload %s seed %d: %d rounds, wall_s %s"
          % (args.workload, args.seed, len(walls), walls), file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
