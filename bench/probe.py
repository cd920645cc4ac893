"""Layer probe: the per-layer metrics of a traced run.

Runs in its own fresh process after the traced repetitions, with the same
fixed calls whichever workload is being traced, so every layer metric is
defined (and nonzero) on every workload.  The probe times the benchmark's
own calls into each module's public functions; where a metric needs the
time of a call made inside the library (the clustering inside
``cluster_sweep``, the ``sample_split`` calls inside the Monte-Carlo
harness), it wraps that one function with a span and nothing else.

Times are scaled to reference speed in ``run.py`` by the calibrations taken
between the probe's sections.

Which end-to-end metric each of these should move, on which workload, is in
README.md.
"""

import importlib
from pathlib import Path
import statistics
import time
import tracemalloc

import numpy as np

import transbound as tb
from transbound import cli

transduce = importlib.import_module("transbound.transduce")
validation = importlib.import_module("transbound.validation")

from calibration import calibrate
from spans import Tracer
import workloads
from workloads import DELTA, CLUSTER_PRIOR_MASS

SIZES = {
    "full": {
        "build_shapes": ((250, 250), (500, 500), (1000, 1000), (2000, 500)),
        "big_shape": (2000, 2000),
        "micro_calls": 400, "micro_blocks": 7,
        "sweep_n": 3000, "sweep_c": 20,
        "select_n": 400, "select_c": 20,
        "mc_trials": 2000,
        "cli_n": 1000, "cli_c": 10, "cli_pairs": 3,
    },
    "tiny": {
        "build_shapes": ((20, 20), (40, 10)),
        "big_shape": (40, 40),
        "micro_calls": 20, "micro_blocks": 3,
        "sweep_n": 120, "sweep_c": 5,
        "select_n": 60, "select_c": 5,
        "mc_trials": 1000,
        "cli_n": 80, "cli_c": 4, "cli_pairs": 1,
    },
}


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


def _per_call_us(fn, inputs, blocks: int) -> float:
    """Median over ``blocks`` passes of the mean time per call, in microseconds."""
    times = []
    for _ in range(blocks):
        t = time.perf_counter()
        for args in inputs:
            fn(*args)
        times.append((time.perf_counter() - t) / len(inputs))
    return statistics.median(times) * 1e6


def _hypergeom(s, rng, metrics, workdir):
    build = 0.0
    for m, u in s["build_shapes"]:
        build += _timed(tb.hypergeom_pmf, 0, tb.HypergeomSpec(m=m, u=u, k=0))[0]
    metrics["hypergeom.table_build_s"] = build

    m, u = s["big_shape"]
    tracemalloc.start()
    tb.hypergeom_pmf(0, tb.HypergeomSpec(m=m, u=u, k=0))
    metrics["hypergeom.table_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    query, calls, abs_value = 0.0, 0, None
    for variant in ("relative", "absolute"):
        for mass in (1.0, CLUSTER_PRIOR_MASS):
            dt, star = _timed(tb.epsilon_star, mass, DELTA, m, u, variant)
            query += dt
            calls += 1
            if variant == "absolute" and mass == 1.0:
                abs_value = star.value
    metrics["hypergeom.epsilon_star_s"] = query
    metrics["hypergeom.epsilon_star_calls"] = calls
    metrics["hypergeom.gamma_ms"] = 1e3 * statistics.median(
        _timed(tb.gamma, abs_value, m, u, "absolute")[0] for _ in range(5))


def _formulas(s, rng, metrics, workdir):
    n, blocks = s["micro_calls"], s["micro_blocks"]
    m, u = 500, 500
    risks = rng.uniform(0.0, 0.3, size=n)
    det_in = [(tb.BoundInputs(m=m, u=u, delta=DELTA, emp_risk=float(r),
                              prior_mass=CLUSTER_PRIOR_MASS),) for r in risks]
    gibbs_in = [(tb.BoundInputs(m=m, u=u, delta=DELTA, emp_risk=float(r), kl_value=2.0),)
                for r in risks]
    metrics["pac_bayes.det_bound_serfling_us"] = _per_call_us(
        lambda x: tb.det_bound(x, "serfling"), det_in, blocks)
    metrics["pac_bayes.det_bound_direct_us"] = _per_call_us(
        lambda x: tb.det_bound(x, "direct"), det_in, blocks)
    metrics["pac_bayes.gibbs_bound_us"] = _per_call_us(
        lambda x: tb.gibbs_bound(x, "direct"), gibbs_in, blocks)
    metrics["priors.clustering_bound_us"] = _per_call_us(
        tb.clustering_bound,
        [(float(r), 1 + i % 20, 20, m, u, DELTA, 3, "printed") for i, r in enumerate(risks)],
        blocks)

    pop = tb.PopulationSummary(n_total=100, mean=0.3, binary=True)
    queries = [tb.DeviationQuery(m=50, eps=float(e)) for e in rng.uniform(0.0, 0.4, size=n)]

    def tails(q):
        tb.hoeffding_bound(pop, q, "kl")
        tb.hoeffding_bound(pop, q, "squared")
        tb.serfling_bound(pop, q)
        tb.direct_binary_bound(pop, q)

    metrics["concentration.tail_bounds_us"] = _per_call_us(tails, [(q,) for q in queries], blocks)


def _pipeline(s, rng, metrics, workdir: Path):
    n, c = s["sweep_n"], s["sweep_c"]
    points, _ = workloads.gaussian_blobs(n, 2, 6, rng)
    data = tb.Dataset(points=points, ids=np.arange(n))
    sweep_self = 0.0
    for algo in workloads.BLOBS_ALGORITHMS:
        tracer = Tracer()
        tracer.patch(transduce, "kmeans_labels")
        tracer.patch(transduce, "agglomerative_sweep")
        tracer.patch(tb, "cluster_sweep")
        try:
            tb.cluster_sweep(data, algo, c)
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        metrics[f"clustering.{algo}_s"] = sum(
            rec["total_s"] for name, rec in totals.items() if name.startswith("clustering."))
        sweep_self += totals["transduce.cluster_sweep"]["self_s"]
    metrics["transduce.sweep_self_s"] = sweep_self

    n, c = s["select_n"], s["select_c"]
    points, truth = workloads.gaussian_blobs(n, 2, 6, rng)
    ids = workloads.training_ids(n, rng)
    data = tb.Dataset(points=points, ids=np.arange(n))
    labeled = tb.LabeledSubset(indices=ids, labels=truth[ids])
    partitions = []
    for i, algo in enumerate(workloads.VAPNIK_ALGORITHMS):
        partitions += tb.cluster_sweep(data, algo, c, clusterer_id=i)
    tb.hypergeom_pmf(0, tb.HypergeomSpec(m=len(ids), u=n - len(ids), k=0))  # warm table
    metrics["transduce.select_by_bound_s"] = _timed(
        tb.select_by_bound, partitions, labeled, DELTA, "vapnik_absolute")[0]
    metrics["transduce.partitions"] = len(partitions)

    _cli_overhead(s, rng, metrics, workdir)


def _cli_overhead(s, rng, metrics, workdir: Path):
    n, c = s["cli_n"], s["cli_c"]
    points, truth = workloads.gaussian_blobs(n, 2, 6, rng)
    ids = workloads.training_ids(n, rng)
    data_path, labels_path = workloads.write_inputs(workdir, "probe", points, ids, truth)
    argv = ["transduce", "--data", str(data_path), "--labels", str(labels_path),
            "--max-clusters", str(c), "--predictions-out", str(workdir / "probe_pred.csv"),
            "--certificate-out", str(workdir / "probe_cert.json")]
    data = tb.Dataset(points=points, ids=np.arange(n))
    labeled = tb.LabeledSubset(indices=ids, labels=truth[ids])
    config = tb.TransduceConfig(algorithms=("kmeans",), c=c, delta=DELTA)
    diffs = []
    for _ in range(s["cli_pairs"]):
        t_cli, rc = _timed(cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"cli transduce exited with {rc}")
        diffs.append(t_cli - _timed(tb.transduce, data, labeled, config)[0])
    metrics["cli.transduce_overhead_s"] = statistics.median(diffs)


def _validation(s, rng, metrics, workdir):
    trials = s["mc_trials"]
    instances, split_seed = workloads.validity_instances(rng, 100, 10)
    tracer = Tracer()
    tracer.patch(validation, "sample_split")
    try:
        for scenario, inst in instances.items():
            metrics[f"validation.mc_bound_validity_s.{scenario}"] = _timed(
                tb.mc_bound_validity, scenario, inst, DELTA, trials, split_seed)[0]
        metrics["validation.mc_concentration_s"] = _timed(
            tb.mc_concentration, workloads.concentration_population(),
            workloads.CONCENTRATION_M, workloads.CONCENTRATION_EPS, trials, split_seed)[0]
    finally:
        tracer.uninstall()
    metrics["validation.sample_split_s"] = tracer.totals()["validation.sample_split"]["total_s"]


def run(seed: int, size: str, workdir: Path) -> dict:
    s = SIZES[size]
    rng = np.random.default_rng([seed, 5])
    metrics: dict = {}
    cal_s = [calibrate()]
    for section in (_hypergeom, _formulas, _pipeline, _validation):
        section(s, rng, metrics, workdir)
        cal_s.append(calibrate())
    return {"metrics": metrics, "cal_s": cal_s}
