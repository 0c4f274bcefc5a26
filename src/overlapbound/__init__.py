"""Distribution-free overlap bounds from finite samples.

The library estimates an upper bound on the overlap index between two
unknown distributions using only sample norms, mean vectors, and a family
of 0/1 condition functions. The same computation doubles as a training-free
one-class confidence score and as an accuracy ceiling under domain shift.
An exact discrete-distribution oracle backs every numerical claim.
"""

from .bound import BoundReport, ConditionStat, compute_bound, pooled_radius_family
from .classifier import FittedScorer, ScoreRecord, fit, iterative_scores_batch, score
from .core import (
    ConditionFunction,
    DegenerateDomainError,
    DimensionMismatchError,
    InputError,
    MetricUndefinedError,
    NormKind,
    RadiusFamily,
    RadiusIndicator,
    SampleSet,
    make_sample_set,
    norms,
)
from .metrics import LabeledScores, aupr, auroc, roc_curve, tpr_at_in_rate
from .oracle import (
    DiscreteDistribution,
    JointSupport,
    indicator_bound,
    overlap,
    subset_bound,
    subset_variation,
    total_variation,
)
from .shift import (
    accuracy_ceiling,
    backdoor_ceiling,
    fixed_accuracy_rule,
    mixture_overlap_bound,
    simulate_accuracy,
    sweep_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConditionFunction",
    "ConditionStat",
    "DegenerateDomainError",
    "DimensionMismatchError",
    "DiscreteDistribution",
    "FittedScorer",
    "InputError",
    "JointSupport",
    "LabeledScores",
    "MetricUndefinedError",
    "NormKind",
    "RadiusFamily",
    "RadiusIndicator",
    "SampleSet",
    "ScoreRecord",
    "accuracy_ceiling",
    "aupr",
    "auroc",
    "backdoor_ceiling",
    "compute_bound",
    "fit",
    "fixed_accuracy_rule",
    "indicator_bound",
    "iterative_scores_batch",
    "make_sample_set",
    "mixture_overlap_bound",
    "norms",
    "overlap",
    "pooled_radius_family",
    "roc_curve",
    "score",
    "simulate_accuracy",
    "subset_bound",
    "subset_variation",
    "sweep_sigma",
    "total_variation",
    "tpr_at_in_rate",
]
