"""One-class confidence scoring from cached statistics.

Fitting stores the in-class mean plus, for each of k nested balls, the
in-class acceptance rate and in-ball max norm. That is the whole model:
its size does not depend on how many samples were fitted, and scoring a
query costs one mean-gap norm plus k scalar updates. The cached path is an
exact refactoring of running the pooled bound against the query singleton,
not an approximation, and tests pin the two paths together. The iterative
second pass is a second fitted scorer, over first-pass scores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bound import _closed_form, _separation
from .core import (
    DimensionMismatchError,
    InputError,
    NormKind,
    RadiusFamily,
    ball_stats,
    clamp_unit,
    make_sample_set,
    norms,
)

MODEL_FORMAT_VERSION = 1
# Query values per scoring block: each temporary is about 512 KB, small enough
# to stay in cache, so a large batch runs faster in blocks than in one piece.
_BLOCK_VALUES = 1 << 16

# The model file after "format_version", in file order: (JSON key, attribute,
# what from_json_dict accepts). "radii" is optional: it is written only when
# it differs from the default family j/k * rFit, j = 1..k.
_MODEL_FIELDS = (
    ("norm", "norm", "a norm name"),
    ("k", "k", "an integer >= 1"),
    ("dimension", "dimension", "an integer >= 1"),
    ("mean", "mean", "a list of `dimension` finite numbers"),
    ("rFit", "fit_radius", "a finite number >= 0"),
    ("gMeans", "accept_rates", "a list of k numbers in [0, 1]"),
    ("gMaxNorms", "region_radii", "a list of k finite numbers >= 0"),
    ("degenerate", "degenerate", "true or false"),
    ("radii", "radii", "a list of k strictly increasing finite numbers >= 0"),
)


def _model_value(attr: str, value, fields: dict):
    """A model field's value if it is what ``_MODEL_FIELDS`` accepts, else None.

    ``fields`` holds the fields read so far; k and dimension fix list lengths.
    """
    if attr == "norm":
        return NormKind.from_string(value) if isinstance(value, str) else None
    if attr == "degenerate":
        return value if isinstance(value, bool) else None
    if attr in ("k", "dimension"):
        return value if type(value) is int and value >= 1 else None
    items = [value] if attr == "fit_radius" else value
    if not isinstance(items, list) or not all(type(v) in (int, float) for v in items):
        return None
    try:
        values = tuple(float(v) for v in items)
    except OverflowError:  # an integer beyond float64
        return None
    size = {"fit_radius": 1, "mean": fields["dimension"]}.get(attr, fields["k"])
    if len(values) != size or not all(map(math.isfinite, values)):
        return None
    if attr != "mean" and min(values) < 0.0 or attr == "accept_rates" and max(values) > 1.0:
        return None
    if attr == "radii" and any(b <= a for a, b in zip(values, values[1:])):
        return None
    return values[0] if attr == "fit_radius" else values


@dataclass(frozen=True)
class ScoreRecord:
    """One query's confidence score, its [0, 1] clamp, and optional verdict."""

    score: float
    clamped: float
    verdict: str | None = None  # "in" / "out", present iff a threshold was supplied


@dataclass(frozen=True, eq=False)
class FittedScorer:
    """Precomputed in-class statistics enabling constant-space scoring.

    Stores exactly the mean vector plus 2k + 1 scalars, independent of the
    training-set size. ``degenerate`` flags a fit where every sample sat at
    the origin (all radii collapse to zero).
    """

    norm: NormKind
    dimension: int
    k: int
    mean: np.ndarray
    fit_radius: float
    radii: tuple[float, ...]
    accept_rates: tuple[float, ...]
    region_radii: tuple[float, ...]
    degenerate: bool

    def __post_init__(self) -> None:
        # The mean and the k-vectors as read-only arrays, built once so that
        # raw_scores converts nothing per call.
        for name, values in (("mean", self.mean), ("_radii", self.radii),
                             ("_rates", self.accept_rates), ("_region", self.region_radii)):
            arr = np.array(values, dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def raw_scores(self, points) -> np.ndarray:
        """Vectorized raw confidence scores for a (l, d) query block.

        The one copy of the scorer's formula: ``score`` and the iterative
        pass both call it. Raises InputError when a query's norm or
        its gap to the mean overflows float64.
        """
        queries = np.asarray(points, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries.reshape(-1, 1) if self.dimension == 1 else queries.reshape(1, -1)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"queries have shape {queries.shape}, scorer expects dimension {self.dimension}"
            )
        out = np.empty(queries.shape[0], dtype=np.float64)
        rows = max(1, _BLOCK_VALUES // self.dimension)
        for lo in range(0, queries.shape[0], rows):
            block = queries[lo : lo + rows]
            # A non-finite entry or an overflowing norm leaves a non-finite
            # score, which is caught below.
            with np.errstate(all="ignore"):
                qn = norms(block, self.norm)
                gaps = norms(block - self.mean, self.norm)
                pool = np.maximum(qn, self.fit_radius)
                col = qn[:, None]
                inside = col <= self._radii
                # Pooled in-ball max norm: the cached value, or the query norm
                # if the query joined the ball.
                region = col * inside
                np.maximum(region, self._region, out=region)
                sep = _separation(region, inside - self._rates, pool[:, None])
                raw = _closed_form(gaps, pool, sep.max(axis=1))
            if self.fit_radius == 0.0:
                # An all-origin pool means both sides are the same point mass.
                raw[pool == 0.0] = 1.0
            if not np.isfinite(raw).all():
                if not np.isfinite(block).all():
                    raise InputError("query block has non-finite entries")
                raise InputError(f"query {self.norm.value} norms overflow float64")
            out[lo : lo + rows] = raw
        return out

    def clamped_scores(self, points) -> np.ndarray:
        return np.clip(self.raw_scores(points), 0.0, 1.0)

    def to_json_dict(self) -> dict:
        doc = {"format_version": MODEL_FORMAT_VERSION}
        for key, attr, _ in _MODEL_FIELDS:
            value = getattr(self, attr)
            if isinstance(value, NormKind):
                value = value.value
            elif isinstance(value, (tuple, np.ndarray)):
                value = np.asarray(value, dtype=np.float64).tolist()
            doc[key] = value
        if self.radii == RadiusFamily(k=self.k, top=self.fit_radius).radii:
            del doc["radii"]
        return doc

    def to_json_text(self) -> str:
        """Model JSON with fixed-width floats.

        18 significant digits round-trip float64 exactly, and the constant
        field width keeps the file size independent of the fitted data (up
        to sign characters), which pins the constant-space contract.
        """

        def text(value) -> str:
            if isinstance(value, list):
                return "[" + ", ".join(format(v, ".17e") for v in value) + "]"
            return format(value, ".17e") if isinstance(value, float) else json.dumps(value)

        return "{" + ", ".join(f'"{key}": {text(v)}' for key, v in self.to_json_dict().items()) + "}"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json_text())
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict, source: str = "<memory>") -> "FittedScorer":
        """Rebuild a scorer, checking every field against its kind in ``_MODEL_FIELDS``."""
        if not isinstance(doc, dict):
            raise InputError(f"{source}: model JSON must be an object")
        version = doc.get("format_version")
        for key, _, _ in _MODEL_FIELDS[:-1]:
            if key not in doc:
                raise InputError(
                    f"{source}: model file (format_version={version!r}) is missing field {key!r}"
                )
        if version != MODEL_FORMAT_VERSION:
            raise InputError(
                f"{source}: unsupported model format_version {version!r}, "
                f"expected {MODEL_FORMAT_VERSION}"
            )
        fields = {}
        for key, attr, accepted in _MODEL_FIELDS:
            if key in doc:
                value = _model_value(attr, doc[key], fields)
                if value is None:
                    raise InputError(f"{source}: model field {key!r} must be {accepted}")
                fields[attr] = value
        if "radii" not in fields:
            fields["radii"] = RadiusFamily(k=fields["k"], top=fields["fit_radius"]).radii
        # what every fitted model satisfies
        rates, region, top = fields["accept_rates"], fields["region_radii"], fields["fit_radius"]
        for holds, rule in (
            (all(g <= min(r, top) for g, r in zip(region, fields["radii"])),
             "each 'gMaxNorms' entry must be <= its radius and <= 'rFit'"),
            (all(a <= b for v in (rates, region) for a, b in zip(v, v[1:])),
             "'gMeans' and 'gMaxNorms' must be nondecreasing"),
            (fields["degenerate"] == (top == 0.0), "'degenerate' must be true exactly when 'rFit' is 0"),
        ):
            if not holds:
                raise InputError(f"{source}: model fields are inconsistent: {rule}")
        return cls(**fields)

    @classmethod
    def load(cls, path) -> "FittedScorer":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
            raise InputError(f"{path}: cannot read model JSON: {exc}") from exc
        return cls.from_json_dict(doc, source=str(path))


def fit(
    in_class,
    k: int = 50,
    norm: NormKind | str | None = None,
    radii=None,
) -> FittedScorer:
    """Cache the in-class statistics needed for constant-space scoring.

    One pass over the data. ``radii`` overrides the default evenly spaced
    family (j/k of the in-class max norm, j = 1..k); when given, k is its
    length.
    """
    samples = make_sample_set(in_class, norm)
    if radii is not None:
        family = tuple(float(r) for r in radii)
        if len(family) == 0:
            raise InputError("custom radius family must be nonempty")
        if any(not math.isfinite(r) or r < 0 for r in family):
            raise InputError("custom radii must be finite and >= 0")
        if any(b <= a for a, b in zip(family, family[1:])):
            raise InputError("custom radii must be strictly increasing")
        k = len(family)
    else:
        family = RadiusFamily(k=k, top=samples.max_norm, norm=samples.norm).radii
    counts, region = ball_stats(samples.sorted_norms, family)
    return FittedScorer(
        norm=samples.norm,
        dimension=samples.dimension,
        k=k,
        mean=samples.mean,
        fit_radius=samples.max_norm,
        radii=family,
        accept_rates=tuple((counts / len(samples)).tolist()),
        region_radii=tuple(region.tolist()),
        degenerate=samples.max_norm == 0.0,
    )


def score(scorer: FittedScorer, x, threshold: float | None = None) -> ScoreRecord:
    """Confidence that x came from the fitted in-class distribution.

    Equal to running the pooled-bound computation between the singleton {x}
    and the full fit set, evaluated from the cached statistics alone: a
    one-row ``raw_scores`` call. With a threshold, the verdict is "in" iff
    the score reaches it (the boundary counts as in).
    """
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise InputError(f"expected a nonempty 1-D vector, got shape {vec.shape}")
    if vec.size != scorer.dimension:
        raise DimensionMismatchError(f"expected dimension {scorer.dimension}, got {vec.size}")
    raw = float(scorer.raw_scores(vec[None])[0])
    verdict = None if threshold is None else ("in" if raw >= threshold else "out")
    return ScoreRecord(score=raw, clamped=clamp_unit(raw), verdict=verdict)


def iterative_scores_batch(
    scorer: FittedScorer, in_class, queries, k2: int | None = None
) -> np.ndarray:
    """Second-pass confidences computed in the space of first-pass scores.

    Every fitted sample and query is mapped to its clamped first-pass score.
    A second scorer, fitted on the samples' scores with the k2 balls
    |s| <= j/k2, then scores the queries' scores. Clamped scores are
    nonnegative, so those balls are the predicates score <= j/k2, and the
    result equals the pooled bound between each query's score and the
    samples' scores.
    """
    samples = make_sample_set(in_class, scorer.norm)
    if samples.dimension != scorer.dimension:
        raise DimensionMismatchError(
            f"fit set has dimension {samples.dimension}, scorer expects {scorer.dimension}"
        )
    k2 = scorer.k if k2 is None else k2
    if k2 < 1:
        raise InputError(f"k2 must be >= 1, got {k2}")
    second = fit(scorer.clamped_scores(samples.samples), norm=NormKind.L2,
                 radii=[j / k2 for j in range(1, k2 + 1)])
    return second.raw_scores(scorer.clamped_scores(queries))
