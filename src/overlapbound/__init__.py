"""Distribution-free overlap bounds from finite samples.

The library estimates an upper bound on the overlap index between two
unknown distributions using only sample norms, mean vectors, and a family
of 0/1 condition functions. The same computation doubles as a training-free
one-class confidence score and as an accuracy ceiling under domain shift.
An exact discrete-distribution oracle backs every numerical claim.

Submodules load on first access (PEP 562): ``import overlapbound`` runs
only ``core``, which every command needs and which holds the exceptions.
"""

import importlib

from . import core

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(("BoundReport", "ConditionStat", "compute_bound", "pooled_radius_family"),
                    "bound"),
    **dict.fromkeys(("FittedScorer", "ScoreRecord", "fit", "iterative_scores_batch", "score"),
                    "classifier"),
    **dict.fromkeys(("ConditionFunction", "DegenerateDomainError", "DimensionMismatchError",
                     "InputError", "MetricUndefinedError", "NormKind", "RadiusFamily",
                     "RadiusIndicator", "SampleSet", "make_sample_set", "norms"), "core"),
    **dict.fromkeys(("LabeledScores", "aupr", "auroc", "roc_curve", "tpr_at_in_rate"), "metrics"),
    **dict.fromkeys(("DiscreteDistribution", "JointSupport", "indicator_bound", "overlap",
                     "subset_bound", "subset_variation", "total_variation"), "oracle"),
    **dict.fromkeys(("fixed_accuracy_rule", "simulate_accuracy", "sweep_sigma"), "shift"),
}
_SUBMODULES = frozenset(("bound", "classifier", "cli", "dataio", "metrics", "oracle", "shift"))

__all__ = sorted(_HOMES)

globals().update({name: getattr(core, name) for name, home in _HOMES.items() if home == "core"})


def __getattr__(name):
    # not cached here, so a name always reads its submodule's current binding
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
