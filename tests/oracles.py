"""Independent brute-force reference implementations used as test oracles.

Everything down to the retired-paths section is deliberately naive pure
Python (explicit loops over points, pairs, and thresholds) so it shares no
code path with the package. The retired-paths section keeps earlier package
code paths (per-radius and per-query loops, the k-wide scoring sweep, the former
closed forms, the by-value accuracy rule with its per-row simulator, the
per-call ranking sorts, the per-call subset bound, the hand-indexed joint
support and the per-cell CSV parser), which the code that replaced them must match
bitwise, and the removed helpers that tests still use to build their data or
to state a property.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from overlapbound import (
    DegenerateDomainError,
    InputError,
    JointSupport,
    NormKind,
    RadiusIndicator,
    SampleSet,
    compute_bound,
    norms,
)
from overlapbound.core import _block_rows


def norm_of(row, kind: str) -> float:
    if kind == "l1":
        return sum(abs(v) for v in row)
    if kind == "l2":
        return math.sqrt(sum(v * v for v in row))
    if kind == "linf":
        return max(abs(v) for v in row)
    raise ValueError(kind)


def exact_square_sum(row) -> Fraction:
    """The exact sum of squares of a row of floats, as a fraction."""
    return sum((Fraction(v) ** 2 for v in row), Fraction(0))


def exact_sum(values) -> float | None:
    """The sum of floats, correctly rounded from the exact integer count of
    2**-1074 units; None when it rounds beyond float64."""
    units = 0
    for v in values:
        num, den = v.as_integer_ratio()  # den is a power of two <= 2**1074
        units += num * (2**1074 // den)
    try:
        return units / 2**1074
    except OverflowError:
        return None


def brute_overlap(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return sum(min(p.get(k, 0.0), q.get(k, 0.0)) for k in keys)


def brute_total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def brute_subset_variation(p: dict, q: dict, member) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys if member(k))


def brute_bound(pos, neg, conditions, kind: str) -> float:
    """Direct transcription of the pooled-bound algorithm, loops only.

    pos/neg are lists of coordinate tuples; conditions are callables
    returning 0 or 1 for a tuple.
    """
    pool = list(pos) + list(neg)
    r_pool = max(norm_of(x, kind) for x in pool)
    d = len(pos[0])
    mean_pos = [sum(x[i] for x in pos) / len(pos) for i in range(d)]
    mean_neg = [sum(x[i] for x in neg) / len(neg) for i in range(d)]
    gap = norm_of([a - b for a, b in zip(mean_pos, mean_neg)], kind)
    best = 0.0
    for g in conditions:
        accepted = [x for x in pool if g(x)]
        r_region = max((norm_of(x, kind) for x in accepted), default=0.0)
        rate_pos = sum(g(x) for x in pos) / len(pos)
        rate_neg = sum(g(x) for x in neg) / len(neg)
        if r_pool > 0:
            s = (1.0 - r_region / r_pool) * abs(rate_pos - rate_neg)
            best = max(best, s)
    if r_pool == 0.0:
        return 1.0
    return 1.0 - gap / (2.0 * r_pool) - 0.5 * best


def brute_auroc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auroc_trapezoid(fpr, tpr) -> float:
    """Trapezoidal area under an ROC curve given as point lists."""
    return math.fsum(
        0.5 * (tpr[i] + tpr[i - 1]) * (fpr[i] - fpr[i - 1]) for i in range(1, len(fpr))
    )


def brute_aupr(scores, labels) -> float:
    n_pos = sum(1 for y in labels if y)
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if y and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if not y and s >= t)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def brute_tpr_at(scores, labels, in_rate: float) -> float:
    n_pos = sum(1 for y in labels if y)
    n_neg = len(labels) - n_pos
    threshold = None
    for t in sorted(set(scores), reverse=True):
        retained = sum(1 for s, y in zip(scores, labels) if y and s >= t) / n_pos
        if retained >= in_rate:
            threshold = t
            break
    return sum(1 for s, y in zip(scores, labels) if not y and s < threshold) / n_neg


def brute_scorer_score(in_class, query, radii, kind: str) -> float:
    """First-pass confidence by direct pooled-bound evaluation."""
    conditions = [
        (lambda x, r=r: 1 if norm_of(x, kind) <= r else 0) for r in radii
    ]
    return brute_bound([tuple(query)], [tuple(x) for x in in_class], conditions, kind)


# Retired package paths.


def mask_ball_stats(norms, radii) -> tuple[list[int], list[float]]:
    """Per radius, a boolean mask over the norms: accepted count and the
    largest accepted norm (0 if none)."""
    norms = np.asarray(norms, dtype=np.float64)
    counts, region = [], []
    for r in radii:
        mask = norms <= r
        counts.append(int(np.count_nonzero(mask)))
        region.append(float(norms[mask].max()) if mask.any() else 0.0)
    return counts, region


def sweep_raw_scores(scorer, points) -> np.ndarray:
    """``FittedScorer.raw_scores`` as a sweep over all k balls per query, in
    the same blocks and with the same errors."""
    queries = np.asarray(points, dtype=np.float64).reshape(-1, scorer.dimension)
    radii, rates, region_radii = (np.array(v, dtype=np.float64) for v in
                                  (scorer.radii, scorer.accept_rates, scorer.region_radii))
    out = np.empty(queries.shape[0], dtype=np.float64)
    rows = _block_rows(scorer.dimension)
    for lo in range(0, queries.shape[0], rows):
        block = queries[lo : lo + rows]
        with np.errstate(all="ignore"):
            qn = norms(block, scorer.norm)
            gaps = norms(block - scorer.mean, scorer.norm)
            pool = np.maximum(qn, scorer.fit_radius)
            inside = qn[:, None] <= radii
            region = np.maximum(qn[:, None] * inside, region_radii)
            sep = (1.0 - region / pool[:, None]) * np.abs(inside - rates)
            raw = 1.0 - 0.5 * (gaps / pool) - 0.5 * sep.max(axis=1)
        if scorer.fit_radius == 0.0:
            raw[pool == 0.0] = 1.0
        if not np.isfinite(raw).all():
            if not np.isfinite(block).all():
                raise InputError("query block has non-finite entries")
            raise InputError(f"query {scorer.norm.value} norms overflow float64")
        out[lo : lo + rows] = raw
    return out


def iterative_scores_loop(scorer, in_class, queries, k2: int) -> np.ndarray:
    """Second-pass scores as one pooled bound per query: the query's clamped
    first-pass score against those of the fit samples, under the k2
    predicates score <= j/k2."""
    rows = np.asarray(in_class, dtype=np.float64)
    neg = SampleSet(scorer.clamped_scores(rows).reshape(-1, 1), NormKind.L2)
    predicates = [RadiusIndicator(j / k2, NormKind.L2) for j in range(1, k2 + 1)]
    query_first = scorer.clamped_scores(queries)
    out = np.empty(query_first.shape[0], dtype=np.float64)
    for i, s in enumerate(query_first):
        pos = SampleSet(np.array([[s]]), NormKind.L2)
        out[i] = compute_bound(pos, neg, predicates).raw_bound
    return out


def retired_bound_terms(report) -> tuple[list[float], int, float]:
    """Per-condition separations, best index and raw bound recomputed from a
    report's fields by the former per-condition loop and closed form."""
    pool = report.pool_radius
    separations, best_index, best = [], 0, -1.0
    for i, c in enumerate(report.conditions):
        s = (1.0 - c.region_radius / pool) * abs(c.pos_rate - c.neg_rate) if pool > 0.0 else 0.0
        separations.append(s)
        if s > best:
            best, best_index = s, i
    raw = 1.0 if pool == 0.0 else 1.0 - report.mean_gap / (2.0 * pool) - 0.5 * best
    return separations, best_index, raw


def retired_mixture_bound(report, sigma: float) -> float:
    """The mixture bound from one clean-vs-poisoned report: affine in sigma."""
    if report.pool_radius == 0.0:
        return 1.0
    mean_term = report.mean_gap / (2.0 * report.pool_radius)
    best_term = 0.5 * report.conditions[report.best_index].separation
    return 1.0 - (1.0 - sigma) * mean_term - (1.0 - sigma) * best_term


def mixture_row_indices(n_clean_rows: int, n_poisoned_rows: int, sigma: float,
                        n_total: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows a seeded mixture draws: floor(sigma*n) clean, then the rest
    poisoned, with an RNG call only for a nonempty part."""
    n_clean = math.floor(sigma * n_total)
    rng = np.random.default_rng(seed)
    empty = np.zeros(0, dtype=np.int64)
    clean_rows = rng.integers(0, n_clean_rows, size=n_clean) if n_clean else empty
    n_pois = n_total - n_clean
    poisoned_rows = rng.integers(0, n_poisoned_rows, size=n_pois) if n_pois else empty
    return clean_rows, poisoned_rows


def value_rule(clean: np.ndarray, poisoned: np.ndarray, p: float, q: float, seed: int = 0):
    """The former fixed-accuracy rule: a callable that is right on rows whose
    values were picked, an exact p and q fraction of each array's rows."""
    rng = np.random.default_rng(seed)
    tagged: set[bytes] = set()
    for samples, frac in ((clean, p), (poisoned, q)):
        n = samples.shape[0]
        for i in rng.permutation(n)[: round(frac * n)]:
            tagged.add(samples[i].tobytes())
    return lambda x: np.ascontiguousarray(x, dtype=np.float64).tobytes() in tagged


def simulate_by_value(clean: np.ndarray, poisoned: np.ndarray, sigma: float, rule,
                      n_samples: int, seed: int = 0) -> float:
    """The former simulator: the rule applied to each drawn row in turn."""
    clean_rows, poisoned_rows = mixture_row_indices(len(clean), len(poisoned), sigma, n_samples, seed)
    rows = list(clean[clean_rows]) + list(poisoned[poisoned_rows])
    return sum(1 for row in rows if rule(row)) / n_samples


def mixture_samples(clean: np.ndarray, poisoned: np.ndarray, sigma: float, n_total: int,
                    seed: int) -> SampleSet:
    """The former composed test mixture: an l2 SampleSet of the rows of two
    arrays that ``mixture_row_indices`` draws."""
    clean_rows, poisoned_rows = mixture_row_indices(len(clean), len(poisoned), sigma, n_total, seed)
    return SampleSet(np.vstack([clean[clean_rows], poisoned[poisoned_rows]]))


def draw_points(dist, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. support points of a discrete distribution, drawn by mass."""
    return dist.points[rng.choice(dist.points.shape[0], size=n, p=dist.masses)]


def rate_gap_lower_bound(pos: SampleSet, neg: SampleSet, g) -> float:
    """The removed package helper: half the gap between the two empirical
    acceptance rates of one condition, as ``compute_bound`` reports them."""
    s = compute_bound(pos, neg, [g]).conditions[0]
    return 0.5 * abs(s.pos_rate - s.neg_rate)


def expectation(dist, g) -> float:
    """The removed package helper: the exact acceptance probability of a condition."""
    return math.fsum(dist.masses[g.evaluate_many(dist.points)].tolist())


def ball_conditions(scorer) -> tuple[RadiusIndicator, ...]:
    """A fitted scorer's nested balls as condition functions."""
    return tuple(RadiusIndicator(r, scorer.norm) for r in scorer.radii)


def midrank_auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """The former AUROC: the positives' sum of midranks from ``np.unique``."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ranks = (starts + (counts + 1) / 2.0)[inverse]
    n_pos = int(np.count_nonzero(labels))
    n_neg = labels.size - n_pos
    return (math.fsum(ranks[labels].tolist()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def float_sweep(scores: np.ndarray, labels: np.ndarray):
    """The former per-call descending sweep: (thresholds, tps, predicted) as floats."""
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    boundary = np.r_[np.nonzero(np.diff(sorted_scores))[0], sorted_scores.size - 1]
    tps = np.cumsum(labels[order])[boundary].astype(np.float64)
    return sorted_scores[boundary], tps, (boundary + 1).astype(np.float64)


def sweep_roc_curve(scores: np.ndarray, labels: np.ndarray):
    thresholds, tps, predicted = float_sweep(scores, labels)
    n_pos = int(np.count_nonzero(labels))
    fpr = np.concatenate([[0.0], (predicted - tps) / (labels.size - n_pos)])
    tpr = np.concatenate([[0.0], tps / n_pos])
    return fpr, tpr, np.concatenate([[np.inf], thresholds])


def sweep_aupr(scores: np.ndarray, labels: np.ndarray) -> float:
    _, tps, predicted = float_sweep(scores, labels)
    recall = tps / np.count_nonzero(labels)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return math.fsum(((recall - prev_recall) * (tps / predicted)).tolist())


def sorted_tpr_at_in_rate(scores: np.ndarray, labels: np.ndarray, in_rate: float) -> float:
    """The former rejection rate: a separate descending sort of the positives."""
    pos_scores = np.sort(scores[labels])[::-1]
    keep = max(1, math.ceil(in_rate * pos_scores.size - 1e-9))
    neg_scores = scores[~labels]
    return int(np.count_nonzero(neg_scores < pos_scores[keep - 1])) / neg_scores.size


def per_call_subset_bound(p, q, subset, norm: NormKind = NormKind.L2,
                          use_domain_radius: bool = True) -> float:
    """The former subset bound: its own joint support, norms and means per call."""
    joint = JointSupport.of(p, q)
    mask = joint.membership(subset)
    support_norms = norms(joint.points, norm)
    r_region = float(support_norms[mask].max(initial=0.0))
    denom_norms = support_norms if use_domain_radius else support_norms[~mask]
    r_denom = float(denom_norms.max(initial=0.0))
    if r_denom == 0.0:
        raise DegenerateDomainError("max norm is 0")
    mean_gap = float(norms((p.mean() - q.mean()).reshape(1, -1), norm)[0])
    dv = 0.5 * math.fsum(np.abs(joint.p_masses - joint.q_masses)[mask].tolist())
    return 1.0 - 0.5 * (mean_gap / r_denom) - ((r_denom - r_region) / r_denom) * dv


def indexed_joint_support(p, q) -> JointSupport:
    """The former ``JointSupport.of``: the joint points and q's masses placed
    through an index kept by hand, one row at a time."""
    index: dict[tuple, int] = {}
    rows: list[list[float]] = []
    for row in p.points.tolist():
        index[tuple(row)] = len(rows)
        rows.append(row)
    for row in q.points.tolist():
        key = tuple(row)
        if key not in index:
            index[key] = len(rows)
            rows.append(row)
    m = len(rows)
    p_mass = np.zeros(m)
    q_mass = np.zeros(m)
    p_mass[: p.points.shape[0]] = p.masses
    for row, w in zip(q.points.tolist(), q.masses.tolist()):
        q_mass[index[tuple(row)]] = w
    return JointSupport(np.asarray(rows, dtype=np.float64), p_mass, q_mass)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def per_cell_csv_rows(path) -> np.ndarray:
    """The former CSV parser: one cell at a time, a header marked by a
    ``parsed = None`` sentinel. It decodes the file as the package does."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().decode("utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                if width is None and not any(map(_is_number, cells)):
                    parsed = None  # header row: first row, every cell non-numeric
                    break
                raise InputError(
                    f"{path}:{lineno}:{col}: not a number: {cell!r}"
                ) from None
        if parsed is None:
            width = len(cells)
            continue
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InputError(
                f"{path}:{lineno}:1: row has {len(parsed)} columns, expected {width}"
            )
        rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)
