import importlib.util
from pathlib import Path

import overlapbound
import overlapbound.cli  # noqa: F401  (the package does not import its CLI)

PUBLIC_NAMES = [
    "BoundReport", "ConditionFunction", "ConditionStat", "DegenerateDomainError",
    "DimensionMismatchError", "DiscreteDistribution", "FittedScorer", "InputError",
    "JointSupport", "LabeledScores", "MetricUndefinedError", "NormKind", "RadiusFamily",
    "RadiusIndicator", "SampleSet", "ScoreRecord", "accuracy_ceiling", "aupr", "auroc",
    "backdoor_ceiling", "compute_bound", "fit",
    "fixed_accuracy_rule", "indicator_bound", "iterative_scores_batch", "make_sample_set",
    "mixture_overlap_bound", "norms", "overlap", "pooled_radius_family",
    "roc_curve", "score", "simulate_accuracy", "subset_bound", "subset_variation", "sweep_sigma",
    "total_variation", "tpr_at_in_rate",
]


def test_public_names_are_pinned():
    names = overlapbound.__all__
    assert names == PUBLIC_NAMES and len(names) == 38
    assert names == sorted(names) and len(set(names)) == len(names)
    for name in names:
        assert getattr(overlapbound, name) is not None


def test_every_layer_the_benchmark_traces_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    specs = spans._layer_specs(overlapbound)
    assert specs
    for owner, attr, name, *_ in specs:
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, (name, owner, attr)
