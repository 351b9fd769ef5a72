"""One round of one workload, in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD TRACE OUTDIR

Prints one JSON line: the monotonic time at which set-up ended, the timed
wall time, peak RSS, operation counts, check errors and, when TRACE is 1,
per-layer self times and counts.  With TRACE 1 the spans are also written
once, at the end, to OUTDIR/trace-WORKLOAD.json (the latest traced
round of a workload overwrites the one before).
"""

from __future__ import annotations

import os

# before numpy loads: verify calls BLAS and LAPACK, and the host has few
# cores shared with other jobs
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

# (module, function) pairs that get a timed span in a traced round
TIMED = (
    ("catalog", "construct_best"), ("catalog", "catalog_table"),
    ("verify", "verify_cretan"), ("verify", "check_det_identity"),
    ("verify", "exact_abs_det"),
    ("designs", "DifferenceSet.develop"), ("designs", "make_difference_set"),
    ("designs", "build_family"),
    ("fields", "trace_to_prime"), ("fields", "relative_trace"),
    ("fields", "make_field"),
    ("hadamard", "regular_hadamard"),
    ("constructions", "sbibd_two_level"),
    ("constructions", "kronecker_cretan"),
    ("constructions", "basic_family"), ("constructions", "bordered_solver"),
    ("constructions", "gh_from_field"),
    ("constructions", "group_orthogonality_check"),
    ("files", "serialize_matrix"), ("files", "parse_matrix"),
    ("cli", "main"),
)
# hot, tiny functions: counted, not timed
COUNTED = (("scalar", "parse_scalar"), ("scalar", "format_scalar"))
# counts read from arguments or results
EXTRA_COUNTS = ("verify.gram_exact_certs", "verify.gram_float_certs",
                "files.bytes")


def _count_cert(counts, args, kwargs, cert):
    counts["verify.gram_%s_certs" % cert.mode] += 1


def _count_written(counts, args, kwargs, text):
    counts["files.bytes"] += len(text.encode("utf-8"))


def _count_read(counts, args, kwargs, result):
    counts["files.bytes"] += len(args[0].encode("utf-8"))


ON_CALL = {
    ("verify", "verify_cretan"): _count_cert,
    ("files", "serialize_matrix"): _count_written,
    ("files", "parse_matrix"): _count_read,
}


def layer_metric_names() -> list:
    """Every per-layer metric a traced round reports, in a fixed order."""
    names = []
    for mod, fn in TIMED:
        names += ["%s.%s.self_s" % (mod, fn), "%s.%s.calls" % (mod, fn)]
    names += ["%s.%s.calls" % (mod, fn) for mod, fn in COUNTED]
    return names + list(EXTRA_COUNTS)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "bytes" if name == "files.bytes" else "count"


def install_tracer():
    import importlib

    from spans import Tracer, install

    tracer = Tracer()
    targets = []
    for mod, fn in TIMED:
        name = "%s.%s" % (mod, fn)
        on_call = ON_CALL.get((mod, fn))
        targets.append((importlib.import_module("cretan." + mod), fn,
                        lambda f, n=name, c=on_call: tracer.timed(n, f, c)))
    for mod, fn in COUNTED:
        name = "%s.%s.calls" % (mod, fn)
        targets.append((importlib.import_module("cretan." + mod), fn,
                        lambda f, n=name: tracer.counted(n, f)))
    return tracer, install(targets)


def layer_metrics(tracer) -> dict:
    from spans import self_times

    times = self_times(tracer.spans)
    out = {}
    for mod, fn in TIMED:
        s, c = times.get("%s.%s" % (mod, fn), (0.0, 0))
        out["%s.%s.self_s" % (mod, fn)] = s
        out["%s.%s.calls" % (mod, fn)] = c
    for mod, fn in COUNTED:
        name = "%s.%s.calls" % (mod, fn)
        out[name] = tracer.counts[name]
    for name in EXTRA_COUNTS:
        out[name] = tracer.counts[name]
    out["trace.self_s_total"] = sum(s for s, _ in times.values())
    return out


def main(argv) -> int:
    name, trace, outdir = argv[0], argv[1] == "1", Path(argv[2])
    import cretan.cli  # noqa: F401  (loads every cretan module)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = outdir / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.setup(workdir)
        ready = time.monotonic()
        tracer = restore = None
        if trace:
            tracer, restore = install_tracer()
        t0 = time.perf_counter()
        result = workload.run(state)
        wall = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if restore is not None:
            restore()
        failed, errors = workload.check(state, result)
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()
    doc = {"ready": ready, "wall_s": wall, "peak_rss_mb": rss_mb,
           "attempted": workload.ops, "failed": failed, "errors": errors}
    if trace:
        doc["layers"] = layer_metrics(tracer)
        with open(outdir / ("trace-%s.json" % name),
                  "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "wall_s": wall,
                       "spans": tracer.spans}, fh)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
