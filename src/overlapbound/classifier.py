"""One-class confidence scoring from cached statistics.

Fitting stores the in-class mean plus, for each of k nested balls, the
in-class acceptance rate and in-ball max norm. That is the whole model:
its size does not depend on how many samples were fitted, and scoring a
query within the fit ball costs one mean-gap norm plus finding the first
ball that holds it: O(1) for evenly spaced radii, a binary search over the k
radii otherwise. The cached path is an exact refactoring of running the
pooled bound against the query singleton, not an approximation, and tests
pin the two paths together. The iterative second pass is a second fitted
scorer, over first-pass scores.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bound import _closed_form, _separation
from .core import (
    DimensionMismatchError,
    InputError,
    NormKind,
    RadiusFamily,
    SampleSet,
    _block_rows,
    _naming,
    _sample_rows,
    _vector_norm,
    ball_stats,
    clamp_unit,
    freeze,
    make_sample_set,
    norms,
)
from .dataio import read_json

MODEL_FORMAT_VERSION = 1

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
    """A model field's value if its JSON type and length are what
    ``_MODEL_FIELDS`` accepts, else None; the scorer checks the numbers.

    ``fields`` holds the fields read so far; k and dimension fix list lengths.
    """
    if attr == "norm":
        try:
            return NormKind.from_string(value) if isinstance(value, str) else None
        except InputError:  # an unknown name: the field's message names the file
            return None
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
    if len(values) != size:
        return None
    return values[0] if attr == "fit_radius" else values


def _mean_norm_limit(norm: NormKind, top: float, d: int) -> float:
    """The largest computed norm that the mean of samples whose computed max
    norm is ``top`` > 0 can have.

    Exactly, the mean lies within the max norm. Computed, each of the two
    norms is off by a relative (d + 2) * 2**-53 in l2 (and by sqrt(d) *
    2**-537 where squares underflow), d * 2**-53 in l1 and 0 in linf, and
    the mean by two roundings, relative 2**-53 each or 2**-1074 per entry
    where it is subnormal.
    """
    relative = {NormKind.L1: d, NormKind.L2: d + 2, NormKind.LINF: 0}[norm]
    limit = top * (1.0 + (2 * relative + 4) * 2.0**-53) + d * 2.0**-1073
    if norm is NormKind.L2:
        limit += 3.0 * math.sqrt(d) * 2.0**-537
    return limit


def _broken_rule(norm, mean, top, radii, rates, region) -> str | None:
    """The first rule of every fitted model that a scorer's values break, if any.

    raw_scores relies on them: it finds the first radius at or above a query's
    norm and takes the separation's maximum over the balls holding the query
    at that ball.
    """
    if not isinstance(norm, NormKind):
        return f"'norm' must be a NormKind, got {type(norm).__name__}"
    if mean.ndim != 1 or mean.size == 0 or not np.isfinite(mean).all():
        return "'mean' must be a nonempty 1-D vector of finite numbers"
    if not (math.isfinite(top) and top >= 0.0):
        return "'rFit' must be a finite number >= 0"
    with np.errstate(over="ignore"):
        mean_norm = _vector_norm(mean, norm)
    if top == 0.0:
        # every fitted norm is 0, so the mean's is too (an l2 mean of tiny
        # entries may be nonzero where every square underflows)
        if mean_norm != 0.0:
            return "'mean' must have norm 0 when 'rFit' is 0"
    elif mean_norm > _mean_norm_limit(norm, top, mean.size):
        return "'mean' must have a norm <= 'rFit', up to rounding"
    if not (radii.ndim == 1 and radii.shape == rates.shape == region.shape and radii.size):
        return "'radii', 'gMeans' and 'gMaxNorms' must have k >= 1 entries each"
    if not all(np.isfinite(v).all() and v.min() >= 0.0 for v in (radii, region)):
        return "'radii' and 'gMaxNorms' entries must be finite numbers >= 0"
    if not np.all((rates >= 0.0) & (rates <= 1.0)):
        return "'gMeans' must lie in [0, 1]"
    # a file omits the default family, and the radii it holds must increase strictly
    if not np.all(radii[1:] > radii[:-1]) and radii.tolist() != list(
            RadiusFamily(k=len(radii), top=top).radii):
        return "'radii' must be nondecreasing, and strictly increasing unless they are j/k * 'rFit'"
    if not np.all(region <= np.minimum(radii, top)):
        return "each 'gMaxNorms' entry must be <= its radius and <= 'rFit'"
    if not (np.all(rates[1:] >= rates[:-1]) and np.all(region[1:] >= region[:-1])):
        return "'gMeans' and 'gMaxNorms' must be nondecreasing"
    return None


def _ball_guess(qn: np.ndarray, scale: float, k: int) -> np.ndarray:
    """int(min(q * scale - 1/2, k)) per norm q, and k for NaN (``fmin`` drops it)."""
    return np.fmin(qn * scale - 0.5, k).astype(np.intp)


def _ball_scale(radii: np.ndarray) -> float | None:
    """k / r_k if its ``_ball_guess`` is J = ``searchsorted(radii, q)`` or J - 1
    for every norm q >= 0 and NaN, else None.

    For evenly spaced radii, q * k / r_k lies in (J, J + 1] up to rounding,
    hence the half. Both are nondecreasing step functions of q, and J is
    constant on [0, r_1], on each (r_j, r_j+1] and on (r_k, inf]. So the guess
    is J or J - 1 everywhere if it is at the ends of those intervals: 0, each
    r_j, the float after it, and inf. NaN guesses k, where searchsorted puts it.
    """
    k = len(radii)
    with np.errstate(all="ignore"):  # k / 0 and probes that overflow
        scale = k / radii[-1]
        probes = np.concatenate(([0.0], radii, np.nextafter(radii, np.inf), [np.inf]))
        below = np.searchsorted(radii, probes) - _ball_guess(probes, scale, k)
    return float(scale) if np.isfinite(scale) and 0 <= below.min() <= below.max() <= 1 else None


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
    training-set size. ``dimension``, ``k`` and ``degenerate`` (every sample
    at the origin, all radii zero) follow from the other fields. Construction
    raises InputError for the first rule of a fitted model that they break.
    """

    norm: NormKind
    mean: np.ndarray
    fit_radius: float
    radii: tuple[float, ...]
    accept_rates: tuple[float, ...]
    region_radii: tuple[float, ...]
    dimension: int = field(init=False)
    k: int = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self) -> None:
        mean, radii, rates, region = (np.array(v, dtype=np.float64) for v in (
            self.mean, self.radii, self.accept_rates, self.region_radii))
        top = float(self.fit_radius)
        if (rule := _broken_rule(self.norm, mean, top, radii, rates, region)) is not None:
            raise InputError(f"model fields are inconsistent: {rule}")
        # Per j, the separation of a query outside ball j whose pool is rFit;
        # rFit = 0 divides by zero, but such a pool scores 1 regardless.
        with np.errstate(all="ignore"):
            outside = _separation(region, rates, top)
        # Read-only arrays built once, so that raw_scores converts nothing per
        # call. Index J of the k + 1 vectors serves a query inside balls J..k-1:
        # the best separation of the balls before J, and ball J's region radius
        # and |1 - rate| (0 past the last ball). ``score`` reads them at J too.
        outside_best = np.maximum.accumulate(np.append(-np.inf, outside))
        first_region, first_gap = np.append(region, 0.0), np.append(np.abs(1.0 - rates), 0.0)
        # The radii and an inf past them, for ``_ball_index``'s step.
        radii_inf = np.append(radii, np.inf)
        freeze(self, mean=mean, fit_radius=top, radii=tuple(radii.tolist()),
               accept_rates=tuple(rates.tolist()), region_radii=tuple(region.tolist()),
               dimension=len(mean), k=len(radii), degenerate=top == 0.0, _radii=radii_inf[:-1],
               _radii_inf=radii_inf, _scale=_ball_scale(radii), _rates=rates,
               _outside_best=outside_best, _first_region=first_region, _first_gap=first_gap)

    def __reduce__(self):
        # Pickled as its fields, so that the rebuilt scorer checks its rules
        # and freezes its arrays again.
        return type(self), (self.norm, self.mean, self.fit_radius, self.radii,
                            self.accept_rates, self.region_radii)

    def _ball_index(self, qn: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._radii, qn)``: per norm, the first ball that
        holds it (k for none, and for NaN).

        Where ``_ball_scale`` proved its guess J or J - 1, one step up makes
        it exact; unevenly spaced radii are searched.
        """
        if self._scale is None:
            return np.searchsorted(self._radii, qn)
        first = _ball_guess(qn, self._scale, self.k)
        first += self._radii_inf[first] < qn
        return first

    def raw_scores(self, points) -> np.ndarray:
        """Vectorized raw confidence scores for a (l, d) query block.

        The one copy of the scorer's formula: ``score`` and the iterative
        pass both call it. A query within the fit ball costs O(1) for evenly
        spaced radii and a binary search over them otherwise, whatever k is.
        Raises InputError when a query's norm or its gap to the mean
        overflows float64.
        """
        queries = np.asarray(points, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries.reshape(-1, 1) if self.dimension == 1 else queries.reshape(1, -1)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"queries have shape {queries.shape}, scorer expects dimension {self.dimension}"
            )
        n, d = queries.shape
        qn, gaps, rows = np.empty(n), np.empty(n), _block_rows(d)
        # One block of scratch per call, so that a shared scorer stays safe to use from
        # several threads. The mean is tiled to a block's shape, so that each gap is one flat
        # subtraction. One allocation: two can sit 16 bytes apart modulo 4096, where its loads
        # alias. Each buffer starts on a 64-byte line, as the loop is slower off one.
        size = min(rows, n) * d  # the values of a block of scratch
        line = -(-size // 8) * 8  # ... in whole 64-byte lines of 8
        flat = np.empty(line + size + 7)  # 7 spare values reach the first line
        flat = flat[-flat.ctypes.data % 64 // 8:]
        tiled_mean, scratch = (flat[lo:lo + size].reshape(-1, d) for lo in (0, line))
        tiled_mean[...] = self.mean
        # A non-finite entry or an overflowing norm leaves a non-finite
        # score, which is caught below.
        with np.errstate(all="ignore"):
            for lo in range(0, n, rows):
                block = queries[lo : lo + rows]
                m = len(block)
                qn[lo : lo + rows] = norms(block, self.norm)
                gaps[lo : lo + rows] = norms(
                    np.subtract(block, tiled_mean[:m], out=scratch[:m]), self.norm)
            pool = np.maximum(qn, self.fit_radius)
            # Ball j holds the query iff j >= first. Over those balls the
            # pooled region radius max(qn, gMaxNorms_j) never decreases and
            # the rate gap 1 - gMeans_j never increases, so both nonnegative
            # factors of the separation never increase (rounding is
            # monotone) and ball `first` holds their maximum. The balls
            # below the query give their prefix maximum at pool rFit,
            # precomputed.
            first = self._ball_index(qn)
            before = self._outside_best[first]
            # Beyond the fit ball the pool is qn: a ball that holds the query
            # gives 0, as ball `first` does, and the balls below it are swept
            # a chunk of rows at a time (no more rows than a query block, no
            # more (row, ball) pairs than a block has values). NaN is not far.
            far_rows = np.flatnonzero(qn > self.fit_radius)
            chunk = min(rows, _block_rows(self.k))
            for lo in range(0, far_rows.size, chunk):
                far = far_rows[lo : lo + chunk]
                col = qn[far, None]
                before[far] = np.where(col > self._radii, _separation(
                    self._first_region[:-1], self._rates, col), -np.inf).max(axis=1)
            best = np.maximum(before, _separation(
                np.maximum(qn, self._first_region[first]), self._first_gap[first], pool))
            raw = _closed_form(gaps, pool, best)
        if self.fit_radius == 0.0:
            # An all-origin pool means both sides are the same point mass.
            raw[pool == 0.0] = 1.0
        finite = np.isfinite(raw)
        if not finite.all():
            # The first block holding a non-finite score names the fault.
            lo = int(finite.argmin()) // rows * rows
            if not np.isfinite(queries[lo : lo + rows]).all():
                raise InputError("query block has non-finite entries")
            raise InputError(f"query {self.norm.value} norms overflow float64")
        return raw

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
    def from_json_dict(cls, doc: dict) -> "FittedScorer":
        """Rebuild a scorer, checking every field against its kind in ``_MODEL_FIELDS``."""
        if not isinstance(doc, dict):
            raise InputError("model JSON must be an object")
        version = doc.get("format_version")
        for key, _, _ in _MODEL_FIELDS[:-1]:
            if key not in doc:
                raise InputError(f"model file (format_version={version!r}) is missing field {key!r}")
        if version != MODEL_FORMAT_VERSION:
            raise InputError(f"unsupported model format_version {version!r}, "
                             f"expected {MODEL_FORMAT_VERSION}")
        fields = {}
        for key, attr, accepted in _MODEL_FIELDS:
            if key in doc:
                value = _model_value(attr, doc[key], fields)
                if value is None:
                    raise InputError(f"model field {key!r} must be {accepted}")
                fields[attr] = value
        k, _, degenerate = (fields.pop(attr) for attr in ("k", "dimension", "degenerate"))
        if "radii" not in fields:
            try:
                fields["radii"] = RadiusFamily(k=k, top=fields["fit_radius"]).radii
            except InputError:  # no family for a bad rFit: the scorer names the rule
                fields["radii"] = ()
        scorer = cls(**fields)
        if scorer.degenerate != degenerate:
            raise InputError("model fields are inconsistent: "
                             "'degenerate' must be true exactly when 'rFit' is 0")
        return scorer

    @classmethod
    def load(cls, path) -> "FittedScorer":
        with _naming(path):
            return cls.from_json_dict(read_json(path, "model"))


def fit(
    in_class,
    k: int = 50,
    norm: NormKind | str | None = None,
    radii=None,
) -> FittedScorer:
    """Cache the in-class statistics needed for constant-space scoring.

    The statistics are ``make_sample_set(in_class, norm)``: one pass over
    rows, a float64 array read in place, not copied, and a SampleSet in its
    own norm as it is (``norm=None`` keeps it); another norm is an InputError,
    as a set keeps no rows. ``radii`` overrides the default evenly spaced
    family (j/k of the in-class max norm, j = 1..k); when given, k is its length.
    """
    stats = make_sample_set(in_class, norm)
    if radii is not None:  # FittedScorer refuses radii that break its rules
        family = tuple(float(r) for r in radii)
    else:
        family = RadiusFamily(k=k, top=stats.max_norm, norm=stats.norm).radii
    counts, region = ball_stats(stats.sorted_norms, family)
    return FittedScorer(norm=stats.norm, mean=stats.mean, fit_radius=stats.max_norm, radii=family,
                        accept_rates=counts / len(stats), region_radii=region)


def score(scorer: FittedScorer, x, threshold: float | None = None) -> ScoreRecord:
    """Confidence that x came from the fitted in-class distribution.

    Equal to running the pooled-bound computation between the singleton {x}
    and the full fit set, evaluated from the cached statistics alone, and
    bitwise equal to ``scorer.raw_scores(x[None])[0]``. A query within the
    fit ball costs two 1-D norms (two BLAS dot products for l2) and the
    ``raw_scores`` formula on Python floats, and only such a query takes its
    gap to the mean. Every other query (beyond the fit ball, against an
    all-origin fit, non-finite or overflowing) is a one-row ``raw_scores``
    call, which also reports its errors. With a threshold, the verdict is
    "in" iff the score reaches it (the boundary counts as in); a non-finite
    threshold is an InputError.
    """
    if threshold is not None and not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold!r}")
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise InputError(f"expected a nonempty 1-D vector, got shape {vec.shape}")
    if vec.size != scorer.dimension:
        raise DimensionMismatchError(f"expected dimension {scorer.dimension}, got {vec.size}")
    raw = _in_ball_raw(scorer, vec)
    if not math.isfinite(raw):
        raw = float(scorer.raw_scores(vec[None])[0])
    verdict = None if threshold is None else ("in" if raw >= threshold else "out")
    return ScoreRecord(raw, clamp_unit(raw), verdict)


@np.errstate(all="ignore")  # as a decorator, each call sets and resets its own state
def _in_ball_raw(scorer: FittedScorer, vec: np.ndarray) -> float:
    """``raw_scores``' formula on Python floats for one query within the fit
    ball, and NaN for any other query.

    A row's norm has the same bits as a 1-D vector or in a batch, so both are
    bitwise those of raw_scores.
    """
    top, qn = scorer.fit_radius, _vector_norm(vec, scorer.norm)
    if not (0.0 < top and qn <= top):
        return math.nan
    j = bisect.bisect_left(scorer.radii, qn)  # searchsorted's side="left"
    gap = _vector_norm(vec - scorer.mean, scorer.norm)
    return _closed_form(gap, top, max(scorer._outside_best.item(j), _separation(
        max(qn, scorer._first_region.item(j)), scorer._first_gap.item(j), top)))


def iterative_scores_batch(
    scorer: FittedScorer, in_class, queries, k2: int | None = None
) -> np.ndarray:
    """Second-pass confidences computed in the space of first-pass scores.

    Every fitted sample and query is mapped to its clamped first-pass score.
    A second scorer, fitted on the samples' scores with the k2 balls
    |s| <= j/k2, then scores the queries' scores. Clamped scores are
    nonnegative, so those balls are the predicates score <= j/k2, and the
    result equals the pooled bound between each query's score and the
    samples' scores. ``in_class`` is the rows the scorer was fitted on, not a
    SampleSet: norms that overflow float64 are an InputError, and a mean other
    than the scorer's (a correctly rounded sum over n, the same bits on every
    platform) a DimensionMismatchError. Rows with the same mean, such as a
    permutation, are scored.
    """
    rows = _sample_rows(in_class)
    mean = SampleSet(rows, scorer.norm).mean  # the finite check: entries, then norms
    if rows.shape[1] != scorer.dimension:
        raise DimensionMismatchError(
            f"fit set has dimension {rows.shape[1]}, scorer expects {scorer.dimension}"
        )
    k2 = scorer.k if k2 is None else k2
    if k2 < 1:
        raise InputError(f"k2 must be >= 1, got {k2}")
    if mean.tobytes() != scorer.mean.tobytes():
        raise DimensionMismatchError("fit set is not the data the model was fitted on: "
                                     "its mean differs from the model's")
    first = scorer.clamped_scores(rows)  # the norms fit, so an overflow names the query
    second = fit(first, norm=NormKind.L2, radii=RadiusFamily(k=k2, top=1.0).radii)
    return second.raw_scores(scorer.clamped_scores(queries))
