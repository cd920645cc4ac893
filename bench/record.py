"""Record the benchmark's reference data from the current sources.

    python3 bench/record.py digests    # bench/digests.json: per-op output digests, seeds 0-15
    python3 bench/record.py baseline   # bench/baseline.json: each workload at seed 0, both --trace

Digests are recorded from one full-size repetition per (workload, seed), with
every output check on; recording stops if any check fails.  Re-record them
only in a change whose purpose is to alter emitted values.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

import run

DIGEST_SEEDS = range(16)
BASELINE_SECONDS = 25


def record_digests() -> None:
    out = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for workload in run.WORKLOADS:
            out[workload] = {}
            for seed in DIGEST_SEEDS:
                rep = run.spawn({"mode": "rep", "workload": workload, "seed": seed,
                                 "size": "full", "trace": False, "full_check": True,
                                 "workdir": workdir}, run.DEADLINE_S)
                problems = [p for u in rep["units"] for p in u["problems"]]
                if problems:
                    sys.exit(f"{workload} seed {seed}: {problems}")
                out[workload][str(seed)] = [u["digest"] for u in rep["units"]]
                print(f"{workload} seed {seed}: {len(rep['units'])} digests", flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def record_baseline() -> None:
    results = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", str(BASELINE_SECONDS), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            results[f"{workload}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} trace {trace} done", flush=True)
    doc = {
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "seed": 0, "seconds": BASELINE_SECONDS, "results": results,
    }
    (run.HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    {"digests": record_digests, "baseline": record_baseline}[sys.argv[1]]()
