"""In-memory spans recorded around the package's public calls.

Nothing is added inside the package. ``traced`` wraps each layer function
in every module namespace that holds it (the modules import by name, so
``cli``, ``shift`` and ``classifier`` each hold their own ``compute_bound``)
and puts every original back on exit, so an untraced run in the same
process calls the package unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("core", "bound", "classifier", "shift", "metrics", "dataio", "oracle", "cli")

# The seven CLI commands as the span names of their handlers.
CLI_COMMANDS = ("fit", "classify", "score", "bound", "shift", "eval", "oracle")


class Tracer:
    """Spans as [name, start_ns, end_ns, parent, op, counts, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op):
        """One benchmark operation; layer spans opened inside it are its children."""
        self.op = op
        rec = self._open("op")
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    def wrap(self, name: str, fn, counts=None, tag=None):
        """``counts(args, kwargs, result) -> dict`` and ``tag(args, kwargs) -> str``
        run outside the timed span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            if tag is not None:
                rec[6] = tag(args, kwargs)
            return result

        return wrapper

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "counts", "tag")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def summary(self) -> dict:
        """Per-name totals split into set-up spans and operation spans;
        warm-up operations are left out.

        Returns {"ops": n, "op_ns": total op time, "top_ns": time covered by
        layer spans directly under an op, "layers": {(phase, name): stats}}
        with stats holding count, busy_ns, self_ns, summed counters and the
        number of compute_bound spans beneath each span.
        """
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        layers: dict = defaultdict(lambda: defaultdict(float))
        ops = op_ns = top_ns = 0
        for i, s in enumerate(self.spans):
            name, start, end, parent, op = s[:5]
            dur = end - start
            phase = op if op in ("setup", "warmup") else "op"
            if phase == "warmup":
                continue
            if name == "op":
                ops += 1
                op_ns += dur
                continue
            if parent >= 0 and self.spans[parent][0] == "op":
                top_ns += dur
            st = layers[(phase, name)]
            st["count"] += 1
            st["busy_ns"] += dur
            st["self_ns"] += dur - child_ns[i]
            for key, value in (s[5] or {}).items():
                st[key] += value
            if name == "bound.compute_bound":
                p = parent
                while p >= 0 and self.spans[p][0] != "op":
                    layers[(phase, self.spans[p][0])]["bound_calls"] += 1
                    p = self.spans[p][3]
        return {"ops": ops, "op_ns": op_ns, "top_ns": top_ns, "layers": layers}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _file_tag(args, kwargs):
    return os.path.basename(str(args[0]))


def _layer_specs(ob):
    """(owner, attribute, span name, counts, tag) for every traced layer."""
    core, classifier, shift, cli = ob.core, ob.classifier, ob.shift, ob.cli
    scorer = classifier.FittedScorer
    specs = [
        (ob.bound, "compute_bound", "bound.compute_bound",
         lambda a, k, r: {"conditions": len(a[2]), "pooled_rows": len(a[0]) + len(a[1])}, None),
        (shift, "sweep_sigma", "shift.sweep_sigma", None, None),
        (shift, "fixed_accuracy_rule", "shift.fixed_accuracy_rule", None, None),
        (shift, "simulate_accuracy", "shift.simulate_accuracy",
         lambda a, k, r: {"draws": int(a[4] if len(a) > 4 else k["n_samples"])}, None),
        (core, "exact_mean", "core.exact_mean", lambda a, k, r: {"elements": int(np.size(a[0]))}, None),
        (core, "norms", "core.norms", _rows, None),
        (core.SampleSet, "__post_init__", "core.SampleSet", None, None),
        (ob.dataio, "_parse_csv_rows", "dataio.read_csv", _rows, _file_tag),
        (ob.dataio, "_read_samples_binary", "dataio.read_ovlb",
         lambda a, k, r: {"bytes": os.path.getsize(a[0])}, _file_tag),
        (scorer, "raw_scores", "classifier.raw_scores", lambda a, k, r: {"queries": len(r)}, None),
        (classifier, "score", "classifier.score", None, None),
        (classifier, "iterative_scores_batch", "classifier.iterative_scores_batch",
         lambda a, k, r: {"queries": len(r)}, None),
        (classifier, "fit", "classifier.fit", None, None),
        (scorer, "save", "classifier.model_io", None, None),
        (scorer, "load", "classifier.model_io", None, None),
        (ob.metrics, "auroc", "metrics.auroc", None, None),
        (ob.metrics, "aupr", "metrics.aupr", None, None),
        (ob.metrics, "tpr_at_in_rate", "metrics.tpr_at_in_rate", None, None),
        (ob.oracle, "subset_bound", "oracle.subset_bound", None, None),
        (ob.oracle, "indicator_bound", "oracle.indicator_bound", None, None),
    ]
    specs += [(cli, f"cmd_{c}", f"cli.{c}", None, None) for c in CLI_COMMANDS]
    return specs


@contextlib.contextmanager
def traced(tracer: Tracer, ob):
    """Install wrappers for every layer in every namespace holding it; restore on exit.

    ``ob`` is the imported package, with ``overlapbound.cli`` imported too.
    """
    modules = [ob] + [getattr(ob, m) for m in MODULES]
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, counts, tag in _layer_specs(ob):
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, counts, tag)))
                else:
                    setattr(owner, attr, tracer.wrap(name, raw, counts, tag))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, counts, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
