"""Command-line front end: bound, fit, score, classify, shift, eval, oracle.

All structured output is JSON on stdout or --out; score/classify also write
a per-query CSV. Exit codes: 0 success, 2 input or parse error (or an input
that asks for more memory than can be allocated), 3 dimension or contract
violation, 4 metric undefined on the given data.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

# Every command reads files and needs core; each imports the other modules it
# runs when it runs, so that a start-up loads no module its command leaves unused.
from . import dataio
from .core import (
    DegenerateDomainError,
    DimensionMismatchError,
    InputError,
    MetricUndefinedError,
    NormKind,
    RadiusFamily,
    RadiusIndicator,
    _require_finite,
    exact_mean,
)

# The largest --k and --k2: run time, memory and model size grow linearly in k,
# so a mistyped k is refused before anything is allocated.
MAX_K = 1_000_000
# Exit code per error type, matched in order; any other exception propagates.
EXIT_CODES = {InputError: 2, OSError: 2, MemoryError: 2, DimensionMismatchError: 3,
              DegenerateDomainError: 3, MetricUndefinedError: 4}


@contextlib.contextmanager
def _outputs(*paths):
    """One writer per output path (stdout for None or "", or for a path on
    stdout's file such as /dev/stdout), all opened before any is written.
    When a path cannot be opened, the files created for the paths before it
    are removed and existing ones are left as they were, so that the run
    leaves no output. A writer takes an iterable of strings; it empties its
    file first, as open(path, "w") would, and flushes after, so outputs are
    written one after another even if two paths name one file."""
    with contextlib.ExitStack() as stack:
        files, created = [], []
        try:
            for path in paths:
                if not path:
                    files.append(None)
                    continue
                try:
                    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    created.append(path)
                except FileExistsError:  # an existing file, or a device such as /dev/stdout
                    fd = os.open(path, os.O_WRONLY)
                fh = stack.enter_context(open(fd, "w", encoding="utf-8"))
                # fd 1 is asked, not sys.stdout, which may have no descriptor
                with contextlib.suppress(OSError):  # fd 1 is closed (and fd may be 1)
                    if fd != 1 and os.path.samestat(os.fstat(fd), os.fstat(1)):
                        fh = None  # write through stdout's own offset, not a second one
                files.append(fh)
        except OSError:
            stack.close()
            for path in created:
                os.remove(path)
            raise
        yield [sys.stdout.writelines if fh is None else functools.partial(_rewrite, fh)
               for fh in files]


def _rewrite(fh, chunks) -> None:
    """Write an output file from its start, as open(path, "w") would, and flush."""
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        os.ftruncate(fh.fileno(), 0)
    fh.writelines(chunks)
    fh.flush()


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _emit(doc: dict, out_path: str | None) -> None:
    with _outputs(out_path) as (write,):
        write([_json_text(doc)])


def _parse_sigma_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --sigma list {text!r}: {exc}") from None
    if not values:
        raise InputError("--sigma list is empty")
    return values


def _positive_k(args) -> None:
    """Refuse a --k or --k2 outside [1, MAX_K]."""
    for flag in ("k", "k2"):
        k = getattr(args, flag, None)
        if k is not None and not 1 <= k <= MAX_K:
            raise InputError(f"--{flag} must be between 1 and {MAX_K}, got {k}")


def _read_pair(path_a, path_b, norm: NormKind):
    """Two sample files that one computation pools: they must agree on d."""
    a, b = dataio.read_samples(path_a, norm), dataio.read_samples(path_b, norm)
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"{path_a} has dimension {a.dimension} but {path_b} has {b.dimension}"
        )
    return a, b


def cmd_bound(args) -> None:
    from .bound import compute_bound, pooled_radius_family

    norm = NormKind.from_string(args.norm)
    pos, neg = _read_pair(args.pos, args.neg, norm)
    conditions = pooled_radius_family(pos, neg, args.k).indicators()
    report = compute_bound(pos, neg, conditions)
    doc = report.to_dict()
    doc["norm"] = norm.value
    doc["k"] = args.k
    _emit(doc, args.out)


def cmd_fit(args) -> None:
    from . import classifier

    norm = NormKind.from_string(args.norm)
    samples = dataio.read_samples(args.data, norm)
    scorer = classifier.fit(samples, k=args.k, norm=norm)
    scorer.save(args.out)
    _emit(
        {
            "model": args.out,
            "n_samples": len(samples),
            "dimension": scorer.dimension,
            "k": scorer.k,
            "norm": scorer.norm.value,
            "fit_radius": scorer.fit_radius,
            "degenerate": scorer.degenerate,
        },
        None,
    )


def _write_scores_csv(write, columns: dict) -> None:
    """Per-query CSV through an ``_outputs`` writer: row_index, then each
    column (floats, or a list of str) in order, one row at a time as it is
    formatted."""
    cells = [v if isinstance(v, list) else map(repr, v.tolist()) for v in columns.values()]
    write(itertools.chain([",".join(["row_index", *columns]) + "\n"],
                          (",".join([str(i), *row]) + "\n" for i, row in enumerate(zip(*cells)))))


def _mean(column: np.ndarray) -> float:
    """A score column's correctly rounded sum divided by its length, so that
    the mean does not depend on how the column is summed."""
    return float(exact_mean(column[:, None])[0])


def _score_command(args) -> None:
    from . import classifier

    if not args.iterative and (args.fit_data is not None or args.k2 is not None):
        raise InputError("--fit-data and --k2 apply only with --iterative")
    threshold = args.threshold
    if threshold is not None and not math.isfinite(threshold):
        raise InputError(f"--threshold must be finite, got {threshold!r}")
    scorer = classifier.FittedScorer.load(args.model)
    queries = dataio.read_sample_array(args.queries)
    if queries.shape[1] != scorer.dimension:
        raise DimensionMismatchError(
            f"{args.queries} has dimension {queries.shape[1]}, "
            f"model {args.model} expects {scorer.dimension}"
        )
    raw = scorer.raw_scores(queries)
    columns = {"score": raw, "clamped": np.clip(raw, 0.0, 1.0)}
    if args.iterative:
        if not args.fit_data:
            raise InputError("--iterative needs --fit-data (the model stores no samples)")
        fit_rows = dataio.read_sample_array(args.fit_data)
        _require_finite(fit_rows, f"{args.fit_data}: non-finite sample values")
        try:
            columns["iterative"] = classifier.iterative_scores_batch(scorer, fit_rows, queries,
                                                                     k2=args.k2)
        except DimensionMismatchError as exc:  # the rows do not fit the model: name the file
            raise DimensionMismatchError(f"{args.fit_data}: {exc}") from None
    if threshold is not None:
        decide_on = columns.get("iterative", raw).tolist()
        columns["verdict"] = ["in" if s >= threshold else "out" for s in decide_on]
    if args.scores_out is None and args.out is None:
        _write_scores_csv(sys.stdout.writelines, columns)
        return  # the CSV alone goes to stdout; keep the stream parseable
    summary = {
        "n_queries": int(queries.shape[0]),
        "model": args.model,
        "norm": scorer.norm.value,
        "k": scorer.k,
        "mean_score": _mean(raw),
        "min_score": float(np.min(raw)),
        "max_score": float(np.max(raw)),
    }
    if args.iterative:
        summary["k2"] = args.k2 if args.k2 is not None else scorer.k
        summary["mean_iterative_score"] = _mean(columns["iterative"])
    if threshold is not None:
        summary["threshold"] = threshold
        summary["n_in"] = columns["verdict"].count("in")
        summary["n_out"] = columns["verdict"].count("out")
    with _outputs(args.scores_out, args.out) as (write_scores, write_summary):
        _write_scores_csv(write_scores, columns)
        write_summary([_json_text(summary)])


def cmd_score(args) -> None:
    _score_command(args)


def cmd_classify(args) -> None:  # argparse makes --threshold required here
    _score_command(args)


def cmd_shift(args) -> None:
    from . import shift
    from .bound import pooled_radius_family

    norm = NormKind.from_string(args.norm)
    clean, poisoned = _read_pair(args.clean, args.poisoned, norm)
    sigmas = _parse_sigma_list(args.sigma)
    conditions = pooled_radius_family(clean, poisoned, args.k).indicators()
    table = shift.sweep_sigma(clean, poisoned, args.p, sigmas, conditions, q=args.q)
    doc = {
        "sigma": [s for s, _ in table],
        "ceiling": [c for _, c in table],
        "norm": norm.value,
        "k": args.k,
        "p": args.p,
        "q": args.q,
    }
    if args.simulate:
        rule = shift.fixed_accuracy_rule(clean, poisoned, args.p, args.q, seed=args.seed)
        doc["measured"] = [
            shift.simulate_accuracy(clean, poisoned, s, rule, args.simulate, seed=args.seed)
            for s in sigmas
        ]
        doc["n_simulated"] = args.simulate
        doc["seed"] = args.seed
    _emit(doc, args.out)


def cmd_eval(args) -> None:
    from . import metrics

    scores, labels = dataio.read_scores_and_labels(args.scores, args.labels)
    ls = metrics.LabeledScores(scores, labels)
    _emit(
        {
            "auroc": metrics.auroc(ls),
            "aupr": metrics.aupr(ls),
            "tpr95": metrics.tpr_at_in_rate(ls, args.in_rate),
            "n_pos": ls.n_pos,
            "n_neg": ls.n_neg,
        },
        args.out,
    )


def cmd_oracle(args) -> None:
    from . import oracle

    p = oracle.DiscreteDistribution.from_json_file(args.p)
    q = oracle.DiscreteDistribution.from_json_file(args.q)
    norm = NormKind.from_string(args.norm)
    joint = oracle.JointSupport.of(p, q)
    support = joint.support_norms(norm)
    if args.radius:
        try:
            conditions = [RadiusIndicator(float(r), norm) for r in args.radius]
        except ValueError as exc:
            raise InputError(f"bad --radius: {exc}") from None
    else:
        conditions = RadiusFamily(args.k, float(support.max()), norm).indicators()
    per_radius = []
    for g in conditions:
        mask = support <= g.radius  # g's acceptances, read off the support's norms
        entry = {"radius": g.radius, "delta_a": oracle.subset_variation(joint, mask)}
        for key, use_domain_radius in (("bound_domain_radius", True),
                                       ("bound_complement_radius", False)):
            try:
                entry[key] = oracle._subset_bound(joint, mask, support, norm, use_domain_radius)
            except DegenerateDomainError:
                entry[key] = None
        per_radius.append(entry)
    try:
        family_bound = oracle._indicator_bound(joint, support, conditions, norm)
    except DegenerateDomainError:
        family_bound = None
    _emit(
        {
            "overlap": oracle._overlap(joint),
            "total_variation": oracle._total_variation(joint),
            "norm": norm.value,
            "per_radius": per_radius,
            "indicator_bound": family_bound,
        },
        args.out,
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are InputErrors, so that a malformed
    flag value is one ``error:`` line and exit 2 like any other bad input."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="overlapbound",
        description=(
            "Distribution-free overlap bounds, one-class confidence scoring, "
            "and shift accuracy ceilings from finite samples."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help="write JSON here instead of stdout", out_required=False):
        p.add_argument("--norm", default="l2", help="l1, l2, or linf (default l2)")
        p.add_argument("--k", type=int, default=50,
                       help="number of nested-ball conditions (default 50)")
        p.add_argument("--out", default=None, required=out_required, help=out_help)

    p_bound = sub.add_parser("bound", help="overlap upper bound between two sample files")
    p_bound.add_argument("pos", help="first sample file (CSV or OVLB binary)")
    p_bound.add_argument("neg", help="second sample file")
    add_common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_fit = sub.add_parser("fit", help="fit a one-class scorer and save the model JSON")
    p_fit.add_argument("data", help="in-class sample file")
    add_common(p_fit, "model JSON path", out_required=True)
    p_fit.set_defaults(func=cmd_fit)

    for name, func, needs_threshold in (
        ("score", cmd_score, False),
        ("classify", cmd_classify, True),
    ):
        p_sc = sub.add_parser(
            name,
            help=("score queries against a fitted model"
                  if name == "score"
                  else "score and threshold queries against a fitted model"),
        )
        p_sc.add_argument("model", help="model JSON from fit")
        p_sc.add_argument("queries", help="query sample file")
        p_sc.add_argument("--threshold", type=float, default=None,
                          required=needs_threshold,
                          help="in-class verdict cutoff (score >= threshold means in; "
                               "with --iterative the second-pass score decides)")
        p_sc.add_argument("--iterative", action="store_true",
                          help="add a second-pass score computed in score space")
        p_sc.add_argument("--fit-data", default=None,
                          help="original fit samples, required with --iterative")
        p_sc.add_argument("--k2", type=int, default=None,
                          help="condition count for the second pass (default: model k)")
        p_sc.add_argument("--scores-out", default=None,
                          help="per-query CSV path (default stdout)")
        p_sc.add_argument("--out", default=None, help="summary JSON path (default stdout)")
        p_sc.set_defaults(func=func)

    p_shift = sub.add_parser("shift", help="accuracy-ceiling sweep over mixture fractions")
    p_shift.add_argument("--clean", required=True, help="clean sample file")
    p_shift.add_argument("--poisoned", required=True, help="shifted/contaminated sample file")
    p_shift.add_argument("--p", type=float, required=True,
                         help="model accuracy on the clean distribution")
    p_shift.add_argument("--q", type=float, default=0.0,
                         help="model accuracy off the clean distribution (default 0)")
    p_shift.add_argument("--sigma", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1",
                         help="comma-separated clean fractions to sweep")
    p_shift.add_argument("--simulate", type=int, default=0,
                         help="also measure accuracy on this many simulated test samples")
    p_shift.add_argument("--seed", type=int, default=0, help="seed for the simulator")
    add_common(p_shift)
    p_shift.set_defaults(func=cmd_shift)

    p_eval = sub.add_parser("eval", help="ranking metrics for scored, labeled data")
    p_eval.add_argument("scores",
                        help="CSV with score,label columns (or a score column with --labels)")
    p_eval.add_argument("--labels", default=None, help="separate one-column label file")
    p_eval.add_argument("--in-rate", type=float, default=0.95,
                        help="retained in-class fraction for the rejection metric (default 0.95)")
    p_eval.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_eval.set_defaults(func=cmd_eval)

    p_or = sub.add_parser("oracle", help="exact overlap quantities for two discrete distributions")
    p_or.add_argument("p", help="distribution JSON: {dimension, points, masses}")
    p_or.add_argument("q", help="distribution JSON")
    p_or.add_argument("--radius", action="append", default=None,
                      help="ball radius for the subset quantities (repeatable)")
    add_common(p_or)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _positive_k(args)
        args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
