"""Non-finite scalar arguments at the public entry points: each is a ValueError naming it.

One table lists every public function or record that takes float arguments,
with a strategy for each valid argument and the float arguments it reads.
The test puts NaN, +inf or -inf into one read argument at a time, the others
drawn valid, and expects a ValueError whose message starts with that
argument's name.  A second table gives sizes m or u below 1, which must also
raise a ValueError naming the size, and a third finite values outside an
argument's range, fractional labels among them, each rule's message coming
from its one checker in ``records``.  A fourth lists every public entry point
that takes a count, with valid arguments and the counts it takes: each count
set to 2.5 or to the whole float 10.0 must raise a ValueError naming it, and
every count given as an ``np.int64`` or ``np.int32`` must be accepted.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transbound.clustering import agglomerative_sweep, kmeans_labels

from transbound.concentration import (
    DeviationQuery,
    PopulationSummary,
    binary_entropy,
    direct_binary_bound,
    hoeffding_bound,
    kl_binary,
    serfling_bound,
)
from transbound.hypergeom import (
    EpsilonStar,
    HypergeomSpec,
    deviation_tail,
    epsilon_star,
    gamma,
    log_binomial,
    vapnik_bound,
)
from transbound.pac_bayes import (
    EVAL_BOUNDS,
    BoundInputs,
    evaluate_bound,
    full_to_test,
    gibbs_raw,
    graepel_inductive_bound,
    invert_self_bounding,
    risk_mix,
)
from transbound.priors import (
    clustering_bound,
    clustering_complexity,
    compression_bound,
    compression_complexity,
)
from transbound.transduce import Dataset, LabeledSubset, Partition, TransduceConfig, cluster_sweep
from transbound.validation import (
    ClusteringInstance,
    FiniteHypothesisInstance,
    SplitSampler,
    check_unbiasedness,
    mc_bound_validity,
    mc_concentration,
    random_hypothesis_instance,
)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)

PROB = st.floats(0.01, 0.99)
UNIT = st.floats(0.0, 1.0)
MASS = st.floats(0.01, 1.0)
SMALL = st.floats(0.0, 5.0)
LOSS = st.floats(1.0, 5.0)


# name: (callable, {argument: strategy of valid values}, float arguments it reads)
TABLE = {
    "deviation_tail": (deviation_tail,
                       {"eps": SMALL, "spec": st.just(HypergeomSpec(m=5, u=5, k=3))},
                       ("eps",)),
    "gamma": (gamma, {"eps": SMALL, "m": st.just(20), "u": st.just(20)}, ("eps",)),
    "epsilon_star": (epsilon_star,
                     {"prior_mass": MASS, "delta": PROB, "m": st.just(20), "u": st.just(20)},
                     ("prior_mass", "delta")),
    "vapnik_bound": (vapnik_bound,
                     {"emp_risk": UNIT, "m": st.just(20), "u": st.just(20),
                      "eps_star": st.just(EpsilonStar(value=0.2, variant="absolute",
                                                      achieving_k=3))},
                     ("emp_risk",)),
    "full_to_test": (full_to_test, {"full_excess": SMALL, "m": st.just(10), "u": st.just(5)},
                     ("full_excess",)),
    "risk_mix": (risk_mix, {"r_m": UNIT, "r_u": UNIT, "m": st.just(10), "u": st.just(5)},
                 ("r_m", "r_u")),
    "invert_self_bounding": (invert_self_bounding, {"a": SMALL, "b": SMALL}, ("a", "b")),
    "graepel_inductive_bound": (graepel_inductive_bound,
                                {"emp_risk": UNIT, "m": st.just(100), "s": st.just(10),
                                 "delta": PROB},
                                ("emp_risk", "delta")),
    "clustering_bound": (clustering_bound,
                         {"emp_risk": UNIT, "tau": st.just(2), "c": st.just(5), "m": st.just(20),
                          "u": st.just(20), "delta": PROB},
                         ("emp_risk", "delta")),
    "compression_bound": (compression_bound,
                          {"emp_risk": UNIT, "s": st.just(3), "m": st.just(20), "u": st.just(20),
                           "delta": PROB},
                          ("emp_risk", "delta")),
    "binary_entropy": (binary_entropy, {"nu": UNIT}, ("nu",)),
    "kl_binary": (kl_binary, {"nu": UNIT, "mu": UNIT}, ("nu", "mu")),
    "DeviationQuery": (DeviationQuery, {"m": st.just(5), "eps": SMALL}, ("eps",)),
    "PopulationSummary": (PopulationSummary,
                          {"n_total": st.just(10), "mean": UNIT, "loss_bound": LOSS},
                          ("mean", "loss_bound")),
    "BoundInputs-prior_mass": (BoundInputs,
                               {"m": st.just(10), "u": st.just(10), "delta": PROB, "emp_risk": UNIT,
                                "prior_mass": MASS, "loss_bound": LOSS},
                               ("delta", "emp_risk", "prior_mass", "loss_bound")),
    "BoundInputs-kl_value": (BoundInputs,
                             {"m": st.just(10), "u": st.just(10), "delta": PROB, "emp_risk": UNIT,
                              "kl_value": SMALL, "loss_bound": LOSS},
                             ("delta", "emp_risk", "kl_value", "loss_bound")),
}

# evaluate_bound reads kl_value only for gibbs_*, prior_mass only for the others,
# and loss_bound for all but vapnik_*
for _name in EVAL_BOUNDS:
    _reads = ("delta", "emp_risk",
              "kl_value" if _name.startswith("gibbs") else "prior_mass")
    if not _name.startswith("vapnik"):
        _reads += ("loss_bound",)
    TABLE[f"evaluate_bound-{_name}"] = (
        functools.partial(evaluate_bound, _name),
        {"m": st.just(20), "u": st.just(20), "delta": PROB, "emp_risk": UNIT, "prior_mass": MASS,
         "kl_value": SMALL, "loss_bound": st.just(1.0)},
        _reads)

CASES = [(case, arg) for case, (_, _, reads) in TABLE.items() for arg in reads]


@pytest.mark.parametrize("case,arg", CASES, ids=[f"{c}-{a}" for c, a in CASES])
@SETTINGS
@given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_argument_is_named(case, arg, data, bad):
    func, strategies, _ = TABLE[case]
    kwargs = data.draw(st.fixed_dictionaries(strategies))
    kwargs[arg] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(arg)} "):
        func(**kwargs)


# name: (callable, arguments with a size below 1, the size argument named)
BAD_SIZES = {
    "risk_mix": (risk_mix, (0.1, 0.2, 0, 0), "m"),
    "full_to_test": (full_to_test, (0.1, -5, 5), "m"),
    "clustering_bound": (clustering_bound, (0.1, 2, 5, 20, 0, 0.05), "u"),
    "compression_bound": (compression_bound, (0.1, 3, 20, 0, 0.05), "u"),
}


@pytest.mark.parametrize("case", BAD_SIZES)
def test_size_below_one_is_named(case):
    func, args, named = BAD_SIZES[case]
    with pytest.raises(ValueError, match=f"^{named} must be a positive integer"):
        func(*args)


_POP = PopulationSummary(n_total=10, mean=0.3, binary=True)
_OVERSIZED = DeviationQuery(m=11, eps=0.1)
_BOUND_INPUTS = {"m": 10, "u": 10, "delta": 0.05, "emp_risk": 0.1}

# name: (callable, keyword arguments with one out of its range, the message's start)
OUT_OF_RANGE = {
    "epsilon_star-zero_mass": (epsilon_star, {"prior_mass": 0.0, "delta": 0.05, "m": 20, "u": 20},
                               "prior_mass must be in (0, 1], got 0.0"),
    "epsilon_star-mass_above_one": (epsilon_star,
                                    {"prior_mass": 1.5, "delta": 0.05, "m": 20, "u": 20},
                                    "prior_mass must be in (0, 1], got 1.5"),
    "BoundInputs-zero_mass": (BoundInputs, {**_BOUND_INPUTS, "prior_mass": 0.0},
                              "prior_mass must be in (0, 1], got 0.0"),
    "BoundInputs-mass_above_one": (BoundInputs, {**_BOUND_INPUTS, "prior_mass": 1.5},
                                   "prior_mass must be in (0, 1], got 1.5"),
    "BoundInputs-zero_loss_bound": (BoundInputs,
                                    {**_BOUND_INPUTS, "prior_mass": 0.5, "loss_bound": 0.0},
                                    "loss_bound must be positive and finite, got 0.0"),
    "PopulationSummary-negative_loss_bound": (PopulationSummary,
                                              {"n_total": 10, "mean": 0.0, "loss_bound": -1.0},
                                              "loss_bound must be positive and finite, got -1.0"),
    "hoeffding_bound": (hoeffding_bound, {"pop": _POP, "q": _OVERSIZED},
                        "m must be an integer in 1..10, got 11"),
    "serfling_bound": (serfling_bound, {"pop": _POP, "q": _OVERSIZED},
                       "m must be an integer in 1..10, got 11"),
    "direct_binary_bound": (direct_binary_bound, {"pop": _POP, "q": _OVERSIZED},
                            "m must be an integer in 1..10, got 11"),
    # fractional labels, which an int64 cast would truncate to valid ones
    "mc_concentration-fractional": (mc_concentration,
                                    {"population": [0.5] * 50 + [1.7] * 50, "m": 50,
                                     "eps_grid": [0.1], "trials": 1000, "seed": 0},
                                    "population must hold only 0 and 1, got 0.5"),
    "FiniteHypothesisInstance-fractional": (FiniteHypothesisInstance,
                                            {"errors": [[0, 1.2, 0.5, 1]], "prior": [1.0], "m": 2},
                                            "errors must hold only 0 and 1, got 1.2"),
    "ClusteringInstance-fractional": (ClusteringInstance,
                                      {"points": [[0.0], [1.0], [2.0], [3.0]],
                                       "target": [1.5, -1, 1, -1.9], "m": 2, "c": 1},
                                      "target must hold only -1 and 1, got 1.5"),
    "check_unbiasedness-fractional": (check_unbiasedness, {"errors": [1, 0, 0.5], "m": 2},
                                      "errors must hold only 0 and 1, got 0.5"),
    "LabeledSubset-fractional_labels": (LabeledSubset, {"indices": [0, 1], "labels": [1.7, -1.2]},
                                        "labels must hold only -1 and 1, got 1.7"),
    # and ids, which the same cast would truncate to valid ones, or wrap when negative
    "LabeledSubset-fractional_indices": (LabeledSubset,
                                         {"indices": [0.0, 1.9], "labels": [1, -1]},
                                         "indices must hold only integers, got 1.9"),
    "LabeledSubset-negative_index": (LabeledSubset,
                                     {"indices": [-1, 4, 0], "labels": [1, -1, 1]},
                                     "indices must be nonnegative, got -1"),
    "Dataset-fractional_ids": (Dataset, {"points": [[0.0], [1.0]], "ids": [0.4, 1.3]},
                               "ids must hold only integers, got 0.4"),
    "Partition-fractional_assignment": (Partition,
                                        {"tau": 2, "assignment": [0.5, 1.5], "clusterer_id": 0},
                                        "assignment must hold only integers, got 0.5"),
    "Partition-empty_assignment": (Partition, {"tau": 1, "assignment": [], "clusterer_id": 0},
                                   "assignment must be nonempty"),
    # whole floats beyond int64, which the cast would wrap to a negative number
    "LabeledSubset-index_beyond_int64": (LabeledSubset, {"indices": [0, 1e20], "labels": [1, -1]},
                                         "indices must lie in the int64 range, got 1e+20"),
    "Dataset-id_beyond_int64": (Dataset, {"points": [[0.0], [1.0]], "ids": [0, -1e19]},
                                "ids must lie in the int64 range, got -1e+19"),
    "Partition-assignment_beyond_int64": (Partition, {"tau": 2, "assignment": [0, 2.0 ** 63],
                                                      "clusterer_id": 0},
                                          "assignment must lie in the int64 range, "
                                          "got 9.223372036854776e+18"),
    # a Python int beyond uint64, which numpy holds as an object
    "LabeledSubset-python_int_beyond_int64": (LabeledSubset,
                                              {"indices": [0, 2 ** 70], "labels": [1, -1]},
                                              "indices must lie in the int64 range, "
                                              "got 1180591620717411303424"),
    # counts outside their range
    "kmeans_labels-more_clusters_than_points": (kmeans_labels,
                                                {"points": np.zeros((3, 2)), "tau": 5},
                                                "tau must be an integer in 1..3, got 5"),
    "cluster_sweep-no_clusters": (cluster_sweep,
                                  {"data": Dataset(points=[[0.0], [1.0]], ids=[0, 1]),
                                   "algorithm": "kmeans", "c": 0},
                                  "c must be a positive integer, got 0"),
    "ClusteringInstance-c_above_m": (ClusteringInstance,
                                     {"points": [[0.0], [1.0], [2.0], [3.0]],
                                      "target": [1, -1, 1, -1], "m": 2, "c": 3},
                                     "c must be an integer in 1..2, got 3"),
    "mc_concentration-too_few_trials": (mc_concentration,
                                        {"population": [0, 1] * 20, "m": 20, "eps_grid": [0.1],
                                         "trials": 999, "seed": 0},
                                        "trials must be an integer >= 1000, got 999"),
    "log_binomial-r_above_n": (log_binomial, {"n": 4, "r": 5},
                               "r must be an integer in 0..4, got 5"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_argument_is_named(case):
    func, kwargs, message = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        func(**kwargs)


_POINTS = [[0.0], [1.0], [2.0], [3.0]]
_TARGET = [1, -1, 1, -1]
_HYPOTHESES = FiniteHypothesisInstance(errors=[[0, 1, 0, 1], [1, 1, 0, 0]], prior=[0.5, 0.5],
                                       m=2)

# name: (callable, valid keyword arguments, the counts among them)
COUNTS = {
    "HypergeomSpec": (HypergeomSpec, {"m": 5, "u": 5, "k": 3}, ("m", "u", "k")),
    "log_binomial": (log_binomial, {"n": 10, "r": 3}, ("n", "r")),
    "gamma": (gamma, {"eps": 0.1, "m": 20, "u": 20}, ("m", "u")),
    "epsilon_star": (epsilon_star, {"prior_mass": 0.5, "delta": 0.05, "m": 20, "u": 20},
                     ("m", "u")),
    "vapnik_bound": (vapnik_bound,
                     {"emp_risk": 0.1, "m": 20, "u": 20,
                      "eps_star": EpsilonStar(value=0.2, variant="absolute", achieving_k=3)},
                     ("m", "u")),
    "BoundInputs": (BoundInputs, {**_BOUND_INPUTS, "prior_mass": 0.5}, ("m", "u")),
    "gibbs_raw": (functools.partial(gibbs_raw, "direct"),
                  {"emp_risk": 0.1, "kl_value": 0.5, "m": 10, "u": 10, "delta": 0.05}, ("m",)),
    "full_to_test": (full_to_test, {"full_excess": 0.1, "m": 10, "u": 5}, ("m", "u")),
    "risk_mix": (risk_mix, {"r_m": 0.1, "r_u": 0.2, "m": 10, "u": 5}, ("m", "u")),
    "graepel_inductive_bound": (graepel_inductive_bound,
                                {"emp_risk": 0.1, "m": 100, "s": 10, "delta": 0.05},
                                ("m", "s")),
    "compression_complexity": (compression_complexity, {"s": 3, "m": 20, "u": 20}, ("s", "m")),
    "compression_bound": (compression_bound,
                          {"emp_risk": 0.1, "s": 3, "m": 20, "u": 20, "delta": 0.05},
                          ("s", "m", "u")),
    "clustering_complexity": (clustering_complexity, {"tau": 2, "c": 5, "k_ensemble": 2},
                              ("tau", "c", "k_ensemble")),
    "clustering_bound": (clustering_bound,
                         {"emp_risk": 0.1, "tau": 2, "c": 5, "m": 20, "u": 20, "delta": 0.05,
                          "k_ensemble": 2},
                         ("tau", "c", "m", "u", "k_ensemble")),
    "DeviationQuery": (DeviationQuery, {"m": 5, "eps": 0.1}, ("m",)),
    "PopulationSummary": (PopulationSummary, {"n_total": 10, "mean": 0.3}, ("n_total",)),
    "Partition": (Partition, {"tau": 2, "assignment": [0, 1], "clusterer_id": 0}, ("tau",)),
    "TransduceConfig": (TransduceConfig, {"algorithms": ("kmeans",), "c": 2, "delta": 0.05},
                        ("c",)),
    "cluster_sweep": (cluster_sweep,
                      {"data": Dataset(points=_POINTS, ids=[0, 1, 2, 3]), "algorithm": "kmeans",
                       "c": 2},
                      ("c",)),
    "kmeans_labels": (kmeans_labels, {"points": _POINTS, "tau": 2}, ("tau",)),
    "agglomerative_sweep": (agglomerative_sweep, {"points": _POINTS, "c": 2, "method": "single"},
                            ("c",)),
    "SplitSampler": (SplitSampler, {"n_total": 10, "m": 5, "master_seed": 0}, ("n_total", "m")),
    "check_unbiasedness": (check_unbiasedness, {"errors": [1, 0, 0, 1], "m": 2}, ("m",)),
    "mc_concentration": (mc_concentration,
                         {"population": [0, 1] * 20, "m": 20, "eps_grid": [0.1], "trials": 1000,
                          "seed": 0},
                         ("m", "trials")),
    "FiniteHypothesisInstance": (FiniteHypothesisInstance,
                                 {"errors": [[0, 1, 0, 1]], "prior": [1.0], "m": 2}, ("m",)),
    "ClusteringInstance": (ClusteringInstance,
                           {"points": _POINTS, "target": _TARGET, "m": 2, "c": 1}, ("m", "c")),
    "random_hypothesis_instance": (random_hypothesis_instance,
                                   {"n_total": 20, "m": 10, "n_hyp": 4, "seed": 0},
                                   ("n_total", "m", "n_hyp")),
    "mc_bound_validity-serfling": (mc_bound_validity,
                                   {"scenario": "serfling", "instance": _HYPOTHESES,
                                    "delta": 0.05, "trials": 50, "seed": 0},
                                   ("trials",)),
    "mc_bound_validity-clustering": (mc_bound_validity,
                                     {"scenario": "clustering",
                                      "instance": ClusteringInstance(points=_POINTS,
                                                                     target=_TARGET, m=2, c=1),
                                      "delta": 0.05, "trials": 50, "seed": 0},
                                     ("trials",)),
}

for _name in EVAL_BOUNDS:
    COUNTS[f"evaluate_bound-{_name}"] = (
        functools.partial(evaluate_bound, _name),
        {"m": 20, "u": 20, "delta": 0.05, "emp_risk": 0.1, "prior_mass": 0.5, "kl_value": 0.5},
        ("m", "u"))

COUNT_CASES = [(case, count) for case, (_, _, counts) in COUNTS.items() for count in counts]


@pytest.mark.parametrize("bad", [2.5, 10.0])
@pytest.mark.parametrize("case,count", COUNT_CASES, ids=[f"{c}-{n}" for c, n in COUNT_CASES])
def test_non_integer_count_is_named(case, count, bad):
    func, kwargs, _ = COUNTS[case]
    with pytest.raises(ValueError, match=rf"^{count} must be (a positive integer|an integer .*), "
                                         rf"got {re.escape(str(bad))}$"):
        func(**{**kwargs, count: bad})


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("case", COUNTS)
def test_numpy_integer_counts_are_accepted(case, dtype):
    func, kwargs, counts = COUNTS[case]
    func(**{**kwargs, **{count: dtype(kwargs[count]) for count in counts}})
