"""One measured process: a workload repetition or the layer probe.

``run.py`` starts this script in a fresh interpreter for every repetition, so
the split-table cache and every other in-process cache start cold, as they
do for a command-line user.  The last line of stdout is a JSON record.

    python3 bench/worker.py SPEC_JSON

SPEC_JSON holds ``mode`` ("rep" or "probe"), ``workload``, ``seed``,
``size``, ``trace`` (rep only), ``full_check`` (rep only), ``spawned_at``
(the parent's ``time.monotonic()`` just before it started this process) and
``workdir`` (a directory inside the checkout for inputs and outputs).
"""

from contextlib import nullcontext
import importlib
import json
from pathlib import Path
import resource
import sys
import time
import traceback

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import transbound  # noqa: E402

if not Path(transbound.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"transbound imported from {transbound.__file__}, not from {SRC}")

# the package attribute ``transbound.transduce`` is the function, so import the modules by name
LAYER_MODULES = (transbound,) + tuple(
    importlib.import_module(f"transbound.{name}")
    for name in ("hypergeom", "concentration", "pac_bayes", "priors", "clustering",
                 "transduce", "validation", "cli"))

from calibration import calibrate  # noqa: E402
from spans import Tracer  # noqa: E402
import workloads  # noqa: E402


def run_rep(spec: dict) -> dict:
    workdir = Path(spec["workdir"])
    units = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["size"], workdir)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(LAYER_MODULES)

    setup_s = time.monotonic() - spec["spawned_at"]
    outputs, errors, unit_s, cal_s = [], [], [], []
    for i, unit in enumerate(units):
        out = err = None
        if tracer:
            tracer.current_op = i
        before = calibrate()
        t = time.perf_counter()
        with tracer.span("bench.op") if tracer else nullcontext():
            try:
                out = unit.run()
            except Exception:
                err = traceback.format_exc(limit=3)
        unit_s.append(time.perf_counter() - t)
        cal_s.append((before + calibrate()) / 2)
        outputs.append(out)
        errors.append(err)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace = None
    if tracer:
        tracer.uninstall()
        totals = tracer.totals()
        tracer.dump(workdir.parent / f"spans-{spec['workload']}-seed{spec['seed']}.npz")
        trace = {"spans": len(tracer.start), "totals": totals,
                 "layer_self_by_op": tracer.layer_self_by_op(len(units))}

    records = []
    for unit, out, err in zip(units, outputs, errors):
        if err is None:
            try:
                problems = unit.check(out, spec["full_check"])
                dig = workloads.digest(unit.encode(out))
            except Exception:
                problems, dig = [traceback.format_exc(limit=3)], None
        else:
            problems, dig = [err], None
        records.append({"label": unit.label, "ops": unit.ops, "digest": dig, "problems": problems})
    return {"setup_s": setup_s, "wall_s": sum(unit_s), "unit_s": unit_s, "cal_s": cal_s,
            "peak_rss_mb": peak_rss_mb, "units": records, "trace": trace}


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "probe":
        import probe
        result = probe.run(spec["seed"], spec["size"], Path(spec["workdir"]))
    else:
        result = run_rep(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
