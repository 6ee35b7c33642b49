"""Run one workload of the A3C-S benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload rollout --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace 1``
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it list every figure by name with its unit, and the host and
kernel fingerprint.  The exit code is 1 when a correctness check failed, 2
when the benchmark could not run, 3 when the open-loop generator fell behind
its schedule in every run of a phase and 4 when a traced run's layer spans do
not account for its time (no result line then).  ``perfbench/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Per-checkout state: the previous run's kernel choices, per workload.
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("rollout", "cosearch", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(native_loaded):
    from repro.runtime.kernels import blas_thread_count, selection_table
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_thread_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "native_loaded": native_loaded,
        "git_commit": git_commit(),
        "kernels": {sig: row.get("kernel") for sig, row in sorted(selection_table().items())},
    }


def compare_kernels(workload, kernels):
    """Kernel choices that differ from the previous run of ``workload`` here."""
    path = os.path.join(STATE_DIR, "kernels-{}.json".format(workload))
    previous = None
    try:
        with open(path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        pass
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(kernels, handle, indent=1, sort_keys=True)
    if previous is None:
        return {}
    return {
        sig: [previous.get(sig), kernels.get(sig)]
        for sig in sorted(set(previous) | set(kernels))
        if previous.get(sig) != kernels.get(sig)
    }


def fresh_setup(workloads, name, seed):
    """Build one workload from cold kernel caches; returns (workload, seconds)."""
    from repro.runtime.kernels import clear_autotune_cache, reset_selections

    clear_autotune_cache()
    reset_selections()
    workload = workloads.WORKLOADS[name](seed)
    started = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - started


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no package sources at {}".format(SRC), file=sys.stderr)
        return 2
    if args.workload == "serve":
        # The client thread and the server's worker share the host's two
        # cores; a second BLAS thread under the worker would oversubscribe them.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # The one-time native-library build is not part of any timed figure.
    from repro.runtime.kernels import _native
    import figures
    import workloads

    native_loaded = _native.available()
    seconds = args.seconds
    if args.trace:
        workload, _ = fresh_setup(workloads, args.workload, args.seed)
        result = figures.traced_run(workload, seconds)
    else:
        setups = []
        workload = None
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
                # Free the discarded set-up now, not during the timed phase.
                workload = None
                gc.collect()
            workload, elapsed = fresh_setup(workloads, args.workload, args.seed)
            setups.append(elapsed)
        result = figures.untraced_run(workload, seconds)
        result["report"]["setup_s"] = (statistics.median(setups), "s")
    # Peak memory of the workload itself, before the checks' reference passes.
    result["report"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    result["failed"] += workload.check()
    workload.close()
    result["report"]["ops_failed_share"] = (result["failed"] / max(1, result["attempted"]), "1")

    prints = fingerprint(native_loaded)
    changed = compare_kernels(args.workload, prints["kernels"])
    for name, (value, unit) in sorted(result["report"].items()):
        print("{:<32} {:>14} {}".format(name, figures.format_value(value), unit))
    for note in result.get("notes", []):
        print("note: " + note)
    if changed:
        print("note: kernel choices differ from the previous {} run on {} signature(s); "
              "do not compare the two runs' timings: {}".format(
                  args.workload, len(changed), json.dumps(changed)))
    print("fingerprint: " + json.dumps(prints, sort_keys=True))

    if result["refuse"] is not None:
        code, reason = result["refuse"]
        print("perfbench: " + reason, file=sys.stderr)
        return code
    contract = figures.contract_metrics(result["report"], args.workload, args.trace)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": contract,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
