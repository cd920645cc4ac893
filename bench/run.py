"""transbound benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Each repetition of the workload's fixed batch runs in a
new interpreter (``worker.py``) with BLAS/OpenMP threads set to 1, one at a
time, until ``--seconds`` have passed (and at least a minimum number ran).

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions,
reports the tracing overhead and how much of the untraced wall time the
layers' self times account for, then runs the layer probe (``probe.py``)
for the per-layer metrics.  Progress and a summary, including the error
ratio, go to stderr; the last line of stdout is the JSON result.

``--size tiny`` runs the same code at toy sizes, one repetition of each
kind; the benchmark's tests use it.
"""

import argparse
import json
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BENCHMARK.json at the checkout root declares the workloads and every metric with its unit
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

TIME_UNITS = ("s", "ms", "us")

MIN_REPS = {"full": 3, "tiny": 1}  # per kind: untraced, and traced when --trace 1
DEADLINE_S = 170.0  # the whole run must end well inside 180 s
PROBE_RESERVE_S = 25.0

THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def spawn(spec: dict, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_ENV)
    spec = dict(spec, spawned_at=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_recorded_digests(workload: str, seed: int, size: str):
    path = HERE / "digests.json"
    if size != "full" or not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def count_failures(reps: list[dict], recorded) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a unit fails on a problem or a digest mismatch.

    Every repetition must emit the same digests as the first one, and all of
    them must match the digests recorded for this seed, when there are any.
    """
    attempted = failed = 0
    messages = []
    reference = [u["digest"] for u in reps[0]["units"]]
    if recorded is not None and len(recorded) != len(reference):
        messages.append(f"recorded {len(recorded)} digests for {len(reference)} units")
        recorded = [None] * len(reference)
    for r, rep in enumerate(reps):
        for j, unit in enumerate(rep["units"]):
            attempted += unit["ops"]
            problems = list(unit["problems"])
            if unit["digest"] != reference[j]:
                problems.append(f"digest {unit['digest']} differs from repetition 0")
            if recorded is not None and unit["digest"] != recorded[j]:
                problems.append(f"digest {unit['digest']} != recorded {recorded[j]}")
            if problems:
                failed += unit["ops"]
                messages.append(f"rep {r} unit {unit['label']}: " + "; ".join(problems))
    return attempted, failed, messages


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def measure(args, workdir: Path) -> tuple[dict, list[dict], list[dict]]:
    """Repetitions until --seconds have passed; returns (probe or None, untraced, traced)."""
    start = time.monotonic()
    plain, traced = [], []
    reserve = PROBE_RESERVE_S if args.trace else 0.0
    longest = 0.0
    while True:
        trace = bool(args.trace) and len(plain) > len(traced)
        spec = {"mode": "rep", "workload": args.workload, "seed": args.seed, "size": args.size,
                "trace": trace, "full_check": not plain and not traced,
                "workdir": str(workdir)}
        t = time.monotonic()
        rep = spawn(spec, DEADLINE_S - reserve - (t - start))
        longest = max(longest, time.monotonic() - t)
        (traced if trace else plain).append(rep)
        log(f"  rep {len(plain) + len(traced) - 1} {'traced' if trace else 'untraced'}: "
            f"setup {rep['setup_s']:.3f} s, wall {rep['wall_s']:.3f} s, "
            f"rss {rep['peak_rss_mb']:.1f} MB")
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_REPS[args.size] and (
            not args.trace or len(traced) >= MIN_REPS[args.size])
        if enough and elapsed >= args.seconds:
            break
        if elapsed + longest > DEADLINE_S - reserve:
            if not enough:
                raise WorkerError("not enough repetitions fit in the deadline")
            break
    probe = None
    if args.trace:
        spec = {"mode": "probe", "seed": args.seed, "size": args.size, "workdir": str(workdir)}
        probe = spawn(spec, DEADLINE_S - (time.monotonic() - start))
    return probe, plain, traced


def speed(rep: dict) -> float:
    """The repetition's typical calibration time relative to the reference machine's."""
    return statistics.median(rep["cal_s"]) / REF_S


def batch_time(reps: list[dict], op_times=lambda rep: rep["unit_s"]) -> float:
    """Time of the fixed batch at reference speed.

    Each op's time is divided by the calibrations taken around it (see
    ``calibration.py``), the median over the repetitions is taken op by
    op, and the medians are summed.  ``op_times`` picks which time of an op
    to use: by default its wall time, for a traced run a layer's self time.
    """
    per_rep = [[t * REF_S / c for t, c in zip(op_times(r), r["cal_s"])] for r in reps]
    return sum(statistics.median(times) for times in zip(*per_rep))


def summarize(args, probe, plain, traced) -> dict:
    median = statistics.median
    wall = batch_time(plain)
    ops = sum(u["ops"] for u in plain[0]["units"])
    if not args.trace:
        metrics = {
            "setup_s": median(r["setup_s"] / speed(r) for r in plain),
            "wall_s": wall,
            "ops_per_s": ops / wall,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    else:
        by_layer = traced[0]["trace"]["layer_self_by_op"]
        self_time = {layer: batch_time(traced, lambda r: r["trace"]["layer_self_by_op"][layer])
                     for layer in by_layer}
        covered = batch_time(traced, lambda r: [
            sum(ops) for ops in zip(*(t for layer, t in r["trace"]["layer_self_by_op"].items()
                                     if layer != "bench"))])
        probe_speed = speed(probe)
        metrics = {name: value / probe_speed if PER_LAYER_UNITS.get(name) in TIME_UNITS else value
                   for name, value in probe["metrics"].items()}
        metrics["trace.overhead_ratio"] = batch_time(traced) / wall - 1.0
        metrics["trace.self_time_coverage"] = covered / wall
        units = PER_LAYER_UNITS
        log(f"  layer self time (median of {len(traced)} traced reps; untraced wall {wall:.3f} s):")
        for layer, t in self_time.items():
            log(f"    {layer:13s} {t:9.4f} s  {t / wall:7.1%}")
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "untraced_wall_s": wall, "layer_self_s": self_time,
            "last_traced_rep": traced[-1]["trace"]}, indent=1, sort_keys=True))
    if set(metrics) != set(units):
        raise WorkerError(f"measured metrics differ from BENCHMARK.json: {sorted(metrics)}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(MIN_REPS), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "transbound" / "__init__.py").is_file():
        log(f"error: no transbound sources under {SRC}; run from a source checkout")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    log(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    try:
        probe, plain, traced = measure(args, workdir)
    except WorkerError as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"untraced": plain, "traced": traced, "probe": probe}))
    attempted, failed, messages = count_failures(plain + traced,
                                                 load_recorded_digests(args.workload, args.seed,
                                                                       args.size))
    for msg in messages:
        log(f"  FAILED {msg}")
    try:
        metrics = summarize(args, probe, plain, traced)
    except WorkerError as exc:
        log(f"error: {exc}")
        return 1
    log(f"  {len(plain)} untraced + {len(traced)} traced reps; "
        f"error_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, rec in metrics.items():
        log(f"  {name} = {rec['value']:.6g} {rec['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
