"""Transductive error bounds, exact and explicit, with empirical validation.

Implicit bounds invert the exact hypergeometric deviation tail of a random
train/test split; explicit PAC-Bayesian bounds trade tightness for closed
forms; data-dependent priors make both usable for compression schemes and
for cluster-then-label transduction, whose full pipeline (with bound-driven
model selection and certificates) lives in :mod:`transbound.transduce`.
"""

from .concentration import (
    DeviationQuery,
    PopulationSummary,
    TailBound,
    binary_entropy,
    direct_binary_bound,
    hoeffding_bound,
    kl_binary,
    serfling_bound,
)
from .hypergeom import (
    EpsilonStar,
    HypergeomSpec,
    deviation_tail,
    epsilon_star,
    gamma,
    hypergeom_pmf,
    log_binomial,
    vapnik_bound,
)
from .pac_bayes import (
    BoundInputs,
    BoundValue,
    GibbsEnsemble,
    det_bound,
    full_to_test,
    gibbs_bound,
    gibbs_risk,
    graepel_inductive_bound,
    invert_self_bounding,
    kl_divergence,
    risk_mix,
)
from .priors import (
    clustering_bound,
    clustering_complexity,
    compression_bound,
    compression_complexity,
)
from .transduce import (
    Certificate,
    Dataset,
    LabeledSubset,
    Partition,
    TransduceConfig,
    cluster_sweep,
    select_by_bound,
    transduce,
)
from .validation import (
    ClusteringInstance,
    ConcentrationReport,
    FiniteHypothesisInstance,
    McReport,
    SplitSampler,
    check_unbiasedness,
    mc_bound_validity,
    mc_concentration,
    random_hypothesis_instance,
    sample_split,
)

__version__ = "0.1.0"
