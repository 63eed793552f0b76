"""Record baseline runs of the benchmark in perfbench/baselines.json.

    python3 perfbench/record.py

Runs every workload once untraced and once traced per seed in SEEDS, one
run at a time, for the run_seconds of BENCHMARK.json, and stores what each run reported (with the unscaled times of the
untraced run and the layer shares of the traced one) and the machine it
ran on. The first seed is the one the benchmark was tuned on; the others
are held out, so that a later speed claim can be checked on a seed its
author did not tune against.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baselines.json")

# The seed the benchmark was tuned on, then the held-out seed.
SEEDS = (0, 1000003)

# What the workloads deliberately leave unmeasured.
UNCOVERED = {
    "logistic loss": "LossKind.LOGISTIC; no experiments path uses it",
    "q = 1": "prox_l1 soft threshold; no experiments path uses it",
    "reg_path": "the solver's own path driver; the workloads follow "
                "run_path_experiment, which calls solve directly",
    "cli": "argument parsing and file I/O of the groupprox command",
}


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment():
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    l2 = _read("/sys/devices/system/cpu/cpu0/cache/index2/size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2_per_core": l2.strip() if l2 else None,
        "blas_threads": "1 (run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS "
                        "and MKL_NUM_THREADS)",
    }


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the line before: unscaled times (untraced) or layer shares (traced)
    result.update(json.loads(lines[-2]))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            runs.setdefault(workload, {})[f"seed_{seed}"] = {
                "end_to_end": run_once(workload, seed, seconds, 0),
                "per_layer": run_once(workload, seed, seconds, 1),
            }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    record = {
        "environment": environment(),
        "tuned_seed": SEEDS[0],
        "held_out_seeds": list(SEEDS[1:]),
        "run_seconds": seconds,
        "uncovered": UNCOVERED,
        "runs": runs,
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
