"""The four benchmark workloads: seeded inputs, the timed units and their checks.

A workload is a list of units.  A unit is one call sequence the timed section
runs (one bound row, one certificate, or one Monte-Carlo report) and counts
``ops`` operations: 1 for a row or a certificate, the trial count for a
report.  Inputs come only from the seed; the library receives generated
arrays or files, never the seed itself, except as the split master seed of
the Monte-Carlo harness, which is an input of that API.

Every call goes through a module attribute (``tb.epsilon_star``,
``cli.main``) so that the wrappers of a traced run see it.
"""

from dataclasses import dataclass
import hashlib
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

import transbound as tb
from transbound import cli

DELTA = 0.05
CLUSTER_PRIOR_MASS = 2.0 ** -10 / 20  # clustering prior mass of tau = 10 at c = 20
VALIDITY_SCENARIOS = ("vapnik_absolute", "vapnik_relative", "serfling", "direct",
                      "gibbs_reduction", "gibbs_direct", "clustering")

# Problem sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps the
# same call structure at toy sizes for the smoke tests.
SIZES = {
    "full": {
        "grid_m": (250, 500, 1000, 2000),
        "blobs_n": 3000, "blobs_dims": (2, 8), "blobs_c": 20,
        "vapnik_n": 2000, "vapnik_c": 20,
        "mc_trials": 10_000, "mc_cluster_n": 100, "mc_cluster_c": 10,
    },
    "tiny": {
        "grid_m": (20, 40),
        "blobs_n": 120, "blobs_dims": (2, 8), "blobs_c": 5,
        "vapnik_n": 80, "vapnik_c": 5,
        "mc_trials": 1000, "mc_cluster_n": 40, "mc_cluster_c": 4,
    },
}


@dataclass
class Unit:
    label: str
    ops: int
    run: Callable[[], object]
    # check(output, full) -> list of problems; ``full`` adds the expensive checks
    check: Callable[[object, bool], list]
    encode: Callable[[object], bytes]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _enc(*values) -> bytes:
    return repr(values).encode()


def gaussian_blobs(n: int, d: int, centres: int, rng: np.random.Generator):
    """n points around unit-variance Gaussian centres, and a +-1 label per point.

    The cloud's shape is fixed by (n, d, centres); ``rng`` rotates it, orders
    its rows and assigns the labels, alternating over the centres.  Every
    input value changes with the seed, but the clustering work does not: it
    depends only on distances, while k-means work on fresh draws of the
    cloud varies by about 15%, which would swamp the benchmark's bounds.
    """
    shape = np.random.default_rng([n, d, centres])
    centre_xy = shape.uniform(-8.0, 8.0, size=(centres, d))
    which = shape.integers(0, centres, size=n)
    cloud = centre_xy[which] + shape.normal(size=(n, d))
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    rotation = q * np.sign(np.diag(r))
    order = rng.permutation(n)
    centre_label = rng.permutation(np.where(np.arange(centres) % 2 == 0, 1, -1))
    return (cloud @ rotation)[order], centre_label[which][order].astype(np.int64)


def training_ids(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly drawn half of 0..n-1, sorted."""
    return np.sort(rng.choice(n, size=n // 2, replace=False))


def write_inputs(workdir: Path, stem: str, points, ids, truth) -> tuple[Path, Path]:
    """The CLI's input files: points (exact decimal) and ``id,label`` rows for training ids."""
    data_path, labels_path = workdir / f"{stem}_points.csv", workdir / f"{stem}_labels.csv"
    np.savetxt(data_path, points, delimiter=",", fmt="%.17g")
    labels_path.write_text("".join(f"{i},{truth[i]}\n" for i in ids))
    return data_path, labels_path


# ---------------------------------------------------------------- bound_grid

def bound_grid(seed: int, size: str, workdir: Path) -> list[Unit]:
    """Rows of ``curve`` / ``prior-sweep`` / ``epsilon-star`` traffic over cold shapes."""
    rng = np.random.default_rng([seed, 1])
    units = []
    for m in SIZES[size]["grid_m"]:
        for u in (m, m // 4):
            first = True
            for variant in ("relative", "absolute"):
                for mass in (1.0, CLUSTER_PRIOR_MASS):
                    emp = float(rng.uniform(0.0, 0.3))
                    kl = float(rng.uniform(0.0, 5.0))
                    units.append(_grid_row(m, u, variant, mass, emp, kl, cold=first))
                    first = False
    return units


def _grid_row(m, u, variant, mass, emp, kl, cold) -> Unit:
    def run():
        if cold:  # the first call on a fresh shape builds its split table
            tb.hypergeom_pmf(0, tb.HypergeomSpec(m=m, u=u, k=0))
        star = tb.epsilon_star(mass, DELTA, m, u, variant)
        bounds = [tb.vapnik_bound(emp, star, m, u)]
        det_in = tb.BoundInputs(m=m, u=u, delta=DELTA, emp_risk=emp, prior_mass=mass)
        bounds += [tb.det_bound(det_in, v) for v in ("serfling", "reduction", "direct")]
        gibbs_in = tb.BoundInputs(m=m, u=u, delta=DELTA, emp_risk=emp, kl_value=kl)
        bounds += [tb.gibbs_bound(gibbs_in, v) for v in ("reduction", "direct")]
        return star, bounds

    def check(out, full):
        star, bounds = out
        problems = []
        if star.variant != variant or not 0 <= star.achieving_k <= m + u:
            problems.append(f"bad epsilon_star record {star}")
        g = tb.gamma(star.value, m, u, variant)
        if not g <= mass * DELTA:
            problems.append(f"gamma({star.value}) = {g} > p*delta = {mass * DELTA}")
        problems += [f"{b.name} = {b.raw} below emp risk {emp}" for b in bounds if not b.raw >= emp]
        return problems

    def encode(out):
        star, bounds = out
        return _enc(m, u, variant, mass, emp, kl, star.value, star.achieving_k,
                    [(b.name, b.raw, b.clamped, b.valid) for b in bounds])

    return Unit(f"{m}x{u}/{variant}/p={mass:.3g}", 1, run, check, encode)


# ------------------------------------------------------ transduce workloads

def _certificate_problems(cert, labeled: tb.LabeledSubset, n: int) -> list:
    problems = []
    if not cert.bound.raw >= cert.emp_risk:
        problems.append(f"bound {cert.bound.raw} below emp risk {cert.emp_risk}")
    expected = np.setdiff1d(np.arange(n), labeled.indices)
    if not np.array_equal(np.asarray(cert.test_ids), expected):
        problems.append("test ids are not the complement of the training ids")
    if len(cert.predictions) != len(expected):
        problems.append("one prediction per test id expected")
    return problems


def _reselect(data, labeled, algorithms, c, bound_name):
    """The certificate rebuilt from its parts: cluster_sweep per clusterer, then select."""
    partitions = []
    for i, algo in enumerate(algorithms):
        partitions += tb.cluster_sweep(data, algo, c, clusterer_id=i)
    return tb.select_by_bound(partitions, labeled, DELTA, bound_name, dict(enumerate(algorithms)))


def _cert_fields(cert) -> tuple:
    return (cert.algorithm, cert.chosen_tau, cert.clusterer_id, cert.emp_risk, cert.bound.raw,
            cert.bound.clamped, cert.bound_name, cert.c, cert.k_ensemble,
            [int(i) for i in cert.test_ids], [int(y) for y in cert.predictions])


BLOBS_ALGORITHMS = ("kmeans", "agglomerative_single", "agglomerative_complete")


def transduce_blobs(seed: int, size: str, workdir: Path) -> list[Unit]:
    """``transbound transduce`` through the CLI on Gaussian blobs, serfling_printed bound."""
    s = SIZES[size]
    n, c = s["blobs_n"], s["blobs_c"]
    units = []
    for d in s["blobs_dims"]:
        rng = np.random.default_rng([seed, 2, d])
        points, truth = gaussian_blobs(n, d, 6, rng)
        ids = training_ids(n, rng)
        name = f"blobs_d{d}"
        data_path, labels_path = write_inputs(workdir, name, points, ids, truth)
        units.append(_cli_transduce(name, points, ids, truth[ids], c, data_path, labels_path,
                                       workdir))
    return units


def _cli_transduce(name, points, ids, labels, c, data_path, labels_path, workdir) -> Unit:
    pred_path = workdir / f"{name}_predictions.csv"
    cert_path = workdir / f"{name}_certificate.json"
    argv = ["transduce", "--data", str(data_path), "--labels", str(labels_path)]
    for algo in BLOBS_ALGORITHMS:
        argv += ["--clusterer", algo]
    argv += ["--max-clusters", str(c), "--delta", str(DELTA), "--bound", "serfling_printed",
             "--predictions-out", str(pred_path), "--certificate-out", str(cert_path)]
    labeled = tb.LabeledSubset(indices=ids, labels=labels)
    n = len(points)

    def run():
        rc = cli.main(argv)
        return rc, cert_path.read_text(), pred_path.read_text()

    def check(out, full):
        rc, cert_text, pred_text = out
        if rc != 0:
            return [f"cli exit code {rc}"]
        doc = json.loads(cert_text)
        problems = []
        if not doc["bound_raw"] >= doc["emp_risk"]:
            problems.append(f"bound {doc['bound_raw']} below emp risk {doc['emp_risk']}")
        test_ids = [int(line.split(",")[0]) for line in pred_text.splitlines()[1:]]
        if test_ids != [i for i, _ in doc["predictions"]]:
            problems.append("predictions file and certificate disagree")
        if test_ids != np.setdiff1d(np.arange(n), ids).tolist():
            problems.append("test ids are not the complement of the training ids")
        if doc["m"] != len(ids) or doc["u"] != n - len(ids):
            problems.append("certificate m/u do not match the split")
        if full:
            data = tb.Dataset(points=points, ids=np.arange(n))
            ref = _reselect(data, labeled, BLOBS_ALGORITHMS, c, "serfling_printed")
            got = (doc["algorithm"], doc["chosen_tau"], doc["clusterer_id"], doc["emp_risk"],
                   doc["bound_raw"], doc["bound_clamped"], doc["bound_name"], doc["c"],
                   doc["k_ensemble"], [i for i, _ in doc["predictions"]],
                   [y for _, y in doc["predictions"]])
            if got != _cert_fields(ref):
                problems.append("cluster_sweep + select_by_bound gives another certificate")
        return problems

    def encode(out):
        rc, cert_text, pred_text = out
        return _enc(rc) + cert_text.encode() + pred_text.encode()

    return Unit(name, 1, run, check, encode)


VAPNIK_ALGORITHMS = ("agglomerative_single", "agglomerative_complete")


def transduce_vapnik(seed: int, size: str, workdir: Path) -> list[Unit]:
    """Library ``transduce`` with the vapnik_absolute bound: one table, many queries."""
    s = SIZES[size]
    units = []
    for d in s["blobs_dims"]:
        rng = np.random.default_rng([seed, 3, d])
        points, truth = gaussian_blobs(s["vapnik_n"], d, 6, rng)
        units.append(_library_transduce(f"d={d}", points, truth, s["vapnik_c"], rng))
    return units


def _library_transduce(label, points, truth, c, rng) -> Unit:
    n = len(points)
    ids = training_ids(n, rng)
    data = tb.Dataset(points=points, ids=np.arange(n))
    labeled = tb.LabeledSubset(indices=ids, labels=truth[ids])
    config = tb.TransduceConfig(algorithms=VAPNIK_ALGORITHMS, c=c, delta=DELTA,
                                bound_name="vapnik_absolute")

    def run():
        return tb.transduce(data, labeled, config)

    def check(cert, full):
        problems = _certificate_problems(cert, labeled, n)
        if full:
            ref = _reselect(data, labeled, VAPNIK_ALGORITHMS, c, "vapnik_absolute")
            if _cert_fields(ref) != _cert_fields(cert):
                problems.append("cluster_sweep + select_by_bound gives another certificate")
        return problems

    def encode(cert):
        return _enc(*_cert_fields(cert))

    return Unit(label, 1, run, check, encode)


# --------------------------------------------------------------- mc_validity

def _report_problems(rep, trials: int) -> list:
    problems = []
    if rep.trials != trials or not 0 <= rep.violations <= trials:
        problems.append(f"trial accounting off: {rep}")
    if rep.empirical != rep.violations / trials or rep.analytic != DELTA:
        problems.append(f"empirical/analytic inconsistent: {rep}")
    tol = 3.0 * math.sqrt(rep.empirical * (1.0 - rep.empirical) / trials)
    if rep.tolerance != tol or rep.passed != (rep.empirical <= rep.analytic + rep.tolerance):
        problems.append(f"tolerance/passed inconsistent: {rep}")
    if not 0 <= rep.boundary_hits <= trials:
        problems.append(f"boundary hits out of range: {rep}")
    if not rep.passed:
        problems.append(f"violation rate {rep.empirical} exceeds delta: {rep}")
    return problems


def validity_instances(rng: np.random.Generator, cluster_n: int, cluster_c: int):
    """({scenario: instance}, split master seed) for the delta-validity scenarios."""
    instance_seed, split_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    instance = tb.random_hypothesis_instance(n_total=40, m=20, n_hyp=16, seed=instance_seed)
    points, truth = gaussian_blobs(cluster_n, 2, 2, rng)
    clustering = tb.ClusteringInstance(points=points, target=truth, m=cluster_n // 2,
                                       c=cluster_c)
    return {sc: clustering if sc == "clustering" else instance
            for sc in VALIDITY_SCENARIOS}, split_seed


def concentration_population() -> np.ndarray:
    population = np.zeros(100, dtype=np.int64)
    population[:30] = 1
    return population


CONCENTRATION_M = 50
CONCENTRATION_EPS = [i * 0.07 for i in range(11)]


def mc_validity(seed: int, size: str, workdir: Path) -> list[Unit]:
    """``validate`` traffic: every delta-validity scenario plus ``mc-concentration``."""
    s = SIZES[size]
    trials = s["mc_trials"]
    instances, split_seed = validity_instances(np.random.default_rng([seed, 4]),
                                               s["mc_cluster_n"], s["mc_cluster_c"])
    units = []
    for scenario, inst in instances.items():
        units.append(_validity_unit(scenario, inst, trials, split_seed))
    units.append(_concentration_unit(trials, split_seed))
    return units


def _validity_unit(scenario, instance, trials, split_seed) -> Unit:
    def run():
        return tb.mc_bound_validity(scenario, instance, DELTA, trials, split_seed)

    def encode(rep):
        return _enc(scenario, rep.trials, rep.violations, rep.empirical, rep.analytic,
                    rep.tolerance, rep.passed, rep.boundary_hits)

    return Unit(scenario, trials, run, lambda rep, full: _report_problems(rep, trials), encode)


def _concentration_unit(trials, split_seed) -> Unit:
    population = concentration_population()

    def run():
        return tb.mc_concentration(population, CONCENTRATION_M, CONCENTRATION_EPS, trials,
                                   split_seed)

    def check(reports, full):
        problems = []
        for r in reports:
            if r.trials != trials or r.empirical != r.exceed_count / trials:
                problems.append(f"trial accounting off at eps={r.eps}")
            if not 0.0 <= r.exact <= 1.0 or not r.exact_below_bounds:
                problems.append(f"exact tail {r.exact} above a closed-form bound at eps={r.eps}")
        return problems

    def encode(reports):
        return _enc([tuple(vars(r).values()) for r in reports])

    return Unit("mc_concentration", trials, run, check, encode)


WORKLOADS = {
    "bound_grid": bound_grid,
    "transduce_blobs": transduce_blobs,
    "transduce_vapnik": transduce_vapnik,
    "mc_validity": mc_validity,
}
