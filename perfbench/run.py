"""hcalc benchmark.

    python3 perfbench/run.py --workload {verify,brackets,cover} --seed N --seconds S --trace {0,1}

Run from the root of a source tree; hcalc is imported from ``src/`` beside
this directory, never from an installed copy.  The workload's inputs are
made from ``--seed``.

``--trace 0`` repeats the workload's fixed job until ``--seconds`` have
passed (at least once) with tracing off and reports the end-to-end metrics:
``setup_s`` (median fresh-process import of hcalc, over several processes),
``peak_rss_mb`` and ``job_s`` (median wall time of one pass of the job).

``--trace 1`` repeats the job untraced for half of ``--seconds`` (at least
once), then runs it once traced, and reports the per-layer metrics of the
traced pass (see ``layers.py``) and the tracing overhead.  Spans are written to ``perfbench/out/``.

Both modes print the workload's named figures and the result of every
correctness check, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_PROCESSES = 5

_IMPORT_PROBE = (
    "import sys, time, json\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hcalc.suites\n"
    "print(json.dumps({'s': time.perf_counter() - t0, 'file': hcalc.__file__}))\n"
)


def _under_src(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def measure_setup() -> list:
    """Seconds from a fresh interpreter's first statement until hcalc is imported."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not _under_src(probe["file"]):
            raise RuntimeError(f"setup probe imported hcalc from {probe['file']}, not from {SRC}")
        samples.append(probe["s"])
    return samples


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args) -> dict:
    import numpy as np

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hcalc", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "brackets", "cover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hcalc", "__init__.py")):
        print(f"error: no hcalc sources under {SRC}; run from a full source tree", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, SRC)
    import hcalc.suites

    if not _under_src(hcalc.__file__):
        print(f"error: imported hcalc from {hcalc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    from spans import Tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    info = provenance(args)
    job = WORKLOADS[args.workload](hcalc, args.seed, OUT)
    deadline = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)
    while not job.passes or time.perf_counter() < deadline:
        job.run_pass()
    figures = job.figures()
    if args.trace:
        # the untraced passes above are the reference for the tracing overhead
        untraced_s = statistics.median(p["job_s"] for p in job.passes)
        tracer = Tracer()
        layers.instrument(tracer, hcalc)
        try:
            traced_s = job.run_pass()["job_s"]
        finally:
            tracer.uninstall()
        tracer.save(os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.npz"))
        values = layers.layer_metrics(tracer, traced_s, untraced_s)
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "job_s": {"value": statistics.median(p["job_s"] for p in job.passes), "unit": "s"},
        }

    attempted, failed = job.checks.totals()
    failing = {name for name, count in job.checks.failed.items() if count}
    correct = not (failing - KNOWN_DEFECTS.get(args.workload, set()))
    figures["failed_frac"] = (failed / attempted, "ratio")
    figures["passes"] = (len(job.passes), "count")
    if setup:
        figures["setup_samples"] = (len(setup), "count")

    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"{args.workload}: figures")
    for name, (value, unit) in figures.items():
        print(f"  {name:48s} {value!s:>24} {unit}")
    print(f"{args.workload}: checks (failed / attempted)")
    for name in job.checks.attempted:
        mark = "known defect" if name in KNOWN_DEFECTS.get(args.workload, set()) else ""
        print(f"  {name:56s} {job.checks.failed[name]:>6d} / {job.checks.attempted[name]:<8d} {mark}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": info, "figures": figures, "checks": {"attempted": job.checks.attempted,
                   "failed": job.checks.failed}, "passes": job.passes, **result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
