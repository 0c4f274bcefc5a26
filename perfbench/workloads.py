"""The workloads: inputs made from a seed, set-up, one operation, its check.

Each workload is a closed loop with one client and no think time: the next
operation starts when the previous one has returned and been checked.
Only the generated arrays and files reach ``overlapbound``; every output is
compared with ``reference`` (numpy transcriptions of PAPER.md formulas) and,
for the CLI, with the same call made in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import reference as ref

TOL = 1e-12


class CheckFailed(AssertionError):
    """An operation's output disagrees with its reference."""


def close(name: str, got, want, tol: float = TOL) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= tol:
        raise CheckFailed(f"{name}: off by {err:.3e} (tolerance {tol:g})")


def expect(name: str, ok: bool) -> None:
    if not ok:
        raise CheckFailed(name)


def write_csv(path: str, rows: np.ndarray, header: str | None = None) -> None:
    """Shortest round-trip text for every float, so the CLI reads back exact values."""
    lines = [header] if header else []
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def shift_pair(rng: np.random.Generator, rows: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Clean standard normal rows and a shifted, rescaled poisoned component."""
    clean = rng.standard_normal((rows, dim))
    loc = rng.uniform(0.2, 0.6)
    scale = rng.uniform(1.0, 1.3)
    return clean, loc + scale * rng.standard_normal((rows, dim))


class Workload:
    name = ""
    cycle = 1  # operations per round; a run always ends on a whole round
    setup_reps = 15  # set-ups per run; setup_s is their median

    def kind(self, i: int) -> str:
        return "op"

    def sizes(self) -> dict:
        return dict(vars(self.size))


@dataclass(frozen=True)
class ScoreBatchSize:
    fit_rows: int = 100_000
    dim: int = 128
    k: int = 50
    batch: int = 8192
    batches: int = 4
    scalar_rows: int = 256
    threshold: float = 0.5


class ScoreBatch(Workload):
    """A deployed scorer: score a labelled batch, rank it, then score rows one at a time."""

    name = "score-batch"
    setup_reps = 5  # each set-up is a 1e5 x 128 fit

    def __init__(self, ob, seed: int, workdir: str, size=ScoreBatchSize(), tamper: bool = False):
        self.ob, self.size, self.tamper = ob, size, tamper
        rng = np.random.default_rng([seed, 2])
        self.fit_data = rng.standard_normal((size.fit_rows, size.dim))
        half = size.batch // 2
        self.labels = np.r_[np.ones(half, bool), np.zeros(size.batch - half, bool)]
        self.batches = []
        for _ in range(size.batches):
            loc, scale = rng.uniform(0.02, 0.08), rng.uniform(1.0, 1.1)
            self.batches.append(np.vstack([
                rng.standard_normal((half, size.dim)),
                loc + scale * rng.standard_normal((size.batch - half, size.dim)),
            ]))
        self.scalar_idx = np.linspace(0, size.batch - 1, size.scalar_rows).astype(int)
        self.model_path = os.path.join(workdir, "model.json")

    def setup(self) -> None:
        fitted = self.ob.classifier.fit(self.fit_data, k=self.size.k)
        fitted.save(self.model_path)
        self.scorer = self.ob.classifier.FittedScorer.load(self.model_path)
        self.fitted = fitted

    def prepare(self) -> None:
        expect("model JSON round trip", self.scorer.to_json_text() == self.fitted.to_json_text())
        singleton = ref.SingletonScorer(self.fit_data, self.size.k)
        self.expected = [singleton.raw(b) for b in self.batches]

    def op(self, i: int):
        ob, s = self.ob, self.size
        batch = self.batches[i % s.batches]
        scores = self.scorer.raw_scores(batch)
        ls = ob.metrics.LabeledScores(scores, self.labels)
        ranks = (ob.metrics.auroc(ls), ob.metrics.aupr(ls), ob.metrics.tpr_at_in_rate(ls, 0.95))
        records = [ob.classifier.score(self.scorer, batch[j], s.threshold) for j in self.scalar_idx]
        return scores, ranks, records

    def check(self, i: int, out) -> None:
        scores, (auroc, aupr, rejected), records = out
        close("batch scores vs singleton-bound reference", scores, self.expected[i % self.size.batches])
        scalar = np.array([r.score for r in records])
        close("scalar vs batch scores", scalar, scores[self.scalar_idx])
        verdicts = ["in" if v >= self.size.threshold else "out" for v in scalar]
        expect("scalar verdicts follow the threshold", [r.verdict for r in records] == verdicts)
        want_auroc = ref.auroc(scores, self.labels) + (1e-9 if self.tamper else 0.0)
        close("AUROC vs rank-sum reference", auroc, want_auroc)
        close("rejection rate vs reference", rejected, ref.rejected_at_in_rate(scores, self.labels, 0.95))
        expect(f"AUPR {aupr} outside (0, 1]", 0.0 < aupr <= 1.0)


@dataclass(frozen=True)
class CliPipelineSize:
    fit_rows: int = 100_000
    dim: int = 32
    k: int = 50
    csv_rows: int = 5000
    iterative_queries: int = 500
    k2: int = 50
    eval_rows: int = 20_000
    simulate: int = 20_000
    pair_rows: int = 20_000
    pair_dim: int = 8
    support: int = 12


CLI_ORDER = ("fit", "classify", "score_iterative", "bound", "shift", "eval", "oracle")


class CliPipeline(Workload):
    """One ``python -m overlapbound`` command per operation, cycling through seven.

    With ``in_process`` set, each command runs through ``overlapbound.cli.main``
    in this process instead, which is how the traced run sees inside it.
    """

    name = "cli-pipeline"
    cycle = len(CLI_ORDER)

    def __init__(self, ob, seed: int, workdir: str, size=CliPipelineSize(), tamper: bool = False,
                 src: str = ""):
        self.ob, self.size, self.tamper, self.workdir = ob, size, tamper, workdir
        self.in_process = False
        self.env = dict(os.environ, PYTHONPATH=src)
        f = self.path
        rng = np.random.default_rng([seed, 3])
        self.fit_big = rng.standard_normal((size.fit_rows, size.dim))
        self.fit_small = rng.standard_normal((size.csv_rows, size.dim))
        self.queries = 0.05 + 1.05 * rng.standard_normal((size.csv_rows, size.dim))
        self.iter_queries = self.queries[: size.iterative_queries]
        self.neg = 0.2 + rng.standard_normal((size.csv_rows, size.dim))
        self.clean, self.poisoned = shift_pair(np.random.default_rng([seed, 1]), size.pair_rows, size.pair_dim)
        half = size.eval_rows // 2
        self.eval_scores = np.r_[1.0 + rng.standard_normal(half), rng.standard_normal(size.eval_rows - half)]
        self.eval_labels = np.r_[np.ones(half, bool), np.zeros(size.eval_rows - half, bool)]
        self.dists = [self._discrete(rng) for _ in range(2)]

        write_csv(f("fitdata.csv"), self.fit_small)
        write_csv(f("queries.csv"), self.queries)
        write_csv(f("iterq.csv"), self.iter_queries)
        write_csv(f("neg.csv"), self.neg)
        write_csv(f("scores.csv"), np.c_[self.eval_scores, self.eval_labels.astype(float)], "score,label")
        for name, (pts, mass) in zip(("p.json", "q.json"), self.dists):
            with open(f(name), "w", encoding="utf-8") as fh:
                json.dump({"dimension": 2, "points": pts.tolist(), "masses": mass.tolist()}, fh)
        self.argv = {
            "fit": ["fit", f("fit.ovlb"), "--k", str(size.k), "--out", f("fit_model.json")],
            "classify": ["classify", f("model.json"), f("queries.csv"), "--threshold", "0.5",
                         "--scores-out", f("classify.csv"), "--out", f("classify.json")],
            "score_iterative": ["score", f("model.json"), f("iterq.csv"), "--iterative",
                                "--fit-data", f("fitdata.csv"), "--k2", str(size.k2),
                                "--scores-out", f("iterative.csv"), "--out", f("iterative.json")],
            "bound": ["bound", f("fitdata.csv"), f("neg.csv"), "--k", str(size.k)],
            "shift": ["shift", "--clean", f("clean.ovlb"), "--poisoned", f("poisoned.ovlb"),
                      "--p", "0.9", "--q", "0.1", "--simulate", str(size.simulate), "--k", str(size.k)],
            "eval": ["eval", f("scores.csv")],
            "oracle": ["oracle", f("p.json"), f("q.json"), "--k", str(size.k)],
        }

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _discrete(self, rng):
        """Distinct integer grid points (so the supports share some) with exact masses."""
        n = self.size.support
        cells = rng.choice(36, size=n, replace=False)
        pts = np.c_[cells // 6, cells % 6].astype(float)
        w = rng.uniform(0.5, 1.5, size=n)
        mass = w / w.sum()
        mass[-1] = 1.0 - math.fsum(mass[:-1].tolist())
        return pts, mass

    def kind(self, i: int) -> str:
        return CLI_ORDER[i % self.cycle]

    def sizes(self) -> dict:
        return dict(vars(self.size), commands=list(CLI_ORDER))

    def setup(self) -> None:
        ob = self.ob
        ob.dataio.write_samples_binary(self.path("fit.ovlb"), self.fit_big)
        ob.dataio.write_samples_binary(self.path("clean.ovlb"), self.clean)
        ob.dataio.write_samples_binary(self.path("poisoned.ovlb"), self.poisoned)
        ob.classifier.fit(self.fit_small, k=self.size.k).save(self.path("model.json"))

    def prepare(self) -> None:
        """Expected outputs: the same calls in-process, plus the numpy references."""
        ob, s = self.ob, self.size
        scorer = ob.classifier.FittedScorer.load(self.path("model.json"))
        singleton = ref.SingletonScorer(self.fit_small, s.k)
        e = {}
        e["fit_text"] = ob.classifier.fit(self.fit_big, k=s.k).to_json_text() + "\n"
        e["fit_radius"] = float(ref.l2_norms(self.fit_big).max())
        e["fit_mean"] = self.fit_big.mean(axis=0)
        e["classify"] = scorer.raw_scores(self.queries)
        e["classify_ref"] = singleton.raw(self.queries)
        e["iterative"] = ob.classifier.iterative_scores_batch(
            scorer, self.fit_small, self.iter_queries, k2=s.k2)
        e["iterative_ref"] = ref.iterative_scores(self.fit_small, self.iter_queries, s.k, s.k2)
        pos, neg = ob.core.make_sample_set(self.fit_small), ob.core.make_sample_set(self.neg)
        e["bound"] = ob.bound.compute_bound(pos, neg, ob.bound.pooled_radius_family(pos, neg, s.k).indicators()).raw_bound
        top = float(max(ref.l2_norms(self.fit_small).max(), ref.l2_norms(self.neg).max()))
        e["bound_ref"] = ref.pooled_bound(self.fit_small, self.neg, ref.uniform_radii(top, s.k))
        clean, pois = ob.core.make_sample_set(self.clean), ob.core.make_sample_set(self.poisoned)
        conditions = ob.bound.pooled_radius_family(clean, pois, s.k).indicators()
        sigmas = [j / 10 for j in range(11)]
        e["shift"] = [c for _, c in ob.shift.sweep_sigma(clean, pois, 0.9, sigmas, conditions, q=0.1)]
        top = float(max(ref.l2_norms(self.clean).max(), ref.l2_norms(self.poisoned).max()))
        raw = ref.pooled_bound(self.clean, self.poisoned, ref.uniform_radii(top, s.k))
        e["shift_ref"] = ref.sweep_closed_form(raw, sigmas, 0.9, 0.1)
        rule = ob.shift.fixed_accuracy_rule(clean, pois, 0.9, 0.1, seed=0)
        e["measured"] = [ob.shift.simulate_accuracy(clean, pois, sg, rule, s.simulate, seed=0) for sg in sigmas]
        e["windows"] = [ref.simulated_accuracy_window(s.pair_rows, s.pair_rows, sg, 0.9, 0.1, s.simulate)
                        for sg in sigmas]
        ls = ob.metrics.LabeledScores(self.eval_scores, self.eval_labels)
        e["eval"] = (ob.metrics.auroc(ls), ob.metrics.aupr(ls), ob.metrics.tpr_at_in_rate(ls, 0.95))
        e["eval_ref"] = (ref.auroc(self.eval_scores, self.eval_labels),
                         ref.rejected_at_in_rate(self.eval_scores, self.eval_labels, 0.95))
        (pp, pm), (qp, qm) = self.dists
        e["oracle_ref"] = ref.discrete_overlap(pp, pm, qp, qm)
        p, q = ob.oracle.DiscreteDistribution(pp, pm), ob.oracle.DiscreteDistribution(qp, qm)
        joint = ob.oracle.JointSupport.of(p, q)
        top = float(ref.l2_norms(joint.points).max())
        family = [ob.core.RadiusIndicator(top * j / s.k) for j in range(1, s.k + 1)]
        e["oracle_bound"] = ob.oracle.indicator_bound(p, q, family)
        if self.tamper:
            e["bound_ref"] += 1e-9
        self.expected = e

    def op(self, i: int):
        argv = self.argv[self.kind(i)]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.ob.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "overlapbound", *argv], env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _read(self, name: str) -> str:
        with open(self.path(name), encoding="utf-8") as fh:
            return fh.read()

    def _json(self, name: str) -> dict:
        return json.loads(self._read(name))

    def _csv_columns(self, name: str) -> dict:
        lines = self._read(name).splitlines()
        cols = list(zip(*(line.split(",") for line in lines[1:])))
        return dict(zip(lines[0].split(","), cols))

    def check(self, i: int, out) -> None:
        code, stdout, stderr = out
        kind = self.kind(i)
        try:
            expect(f"{kind} exited {code}: {stderr.strip()[-200:]}", code == 0)
            getattr(self, "_check_" + kind)(stdout)
        finally:  # so that the next run of this command must write its outputs afresh
            for name in os.listdir(self.workdir):
                if name.startswith(("fit_model", "classify", "iterative")):
                    os.remove(self.path(name))

    def _check_fit(self, stdout: str) -> None:
        e, doc = self.expected, json.loads(stdout)
        expect("fit model file equals the in-process model", self._read("fit_model.json") == e["fit_text"])
        expect("fit summary counts", (doc["n_samples"], doc["dimension"], doc["k"]) ==
               (self.size.fit_rows, self.size.dim, self.size.k))
        close("fit radius vs reference", doc["fit_radius"], e["fit_radius"])
        close("fit mean vs reference", self._json("fit_model.json")["mean"], e["fit_mean"])

    def _check_classify(self, stdout: str) -> None:
        e, cols = self.expected, self._csv_columns("classify.csv")
        raw = np.array(cols["score"], dtype=float)
        close("classify scores vs in-process", raw, e["classify"])
        close("classify scores vs singleton-bound reference", raw, e["classify_ref"])
        expect("classify verdicts", list(cols["verdict"]) == ["in" if v >= 0.5 else "out" for v in raw])
        n_in = int(np.count_nonzero(e["classify"] >= 0.5))
        expect("classify summary", self._json("classify.json")["n_in"] == n_in)

    def _check_score_iterative(self, stdout: str) -> None:
        e, cols = self.expected, self._csv_columns("iterative.csv")
        it = np.array(cols["iterative"], dtype=float)
        close("iterative scores vs in-process", it, e["iterative"])
        close("iterative scores vs reference", it, e["iterative_ref"])
        close("iterative summary mean", self._json("iterative.json")["mean_iterative_score"], np.mean(it), 1e-9)

    def _check_bound(self, stdout: str) -> None:
        raw = json.loads(stdout)["raw_bound"]
        close("bound vs in-process", raw, self.expected["bound"])
        close("bound vs pooled-bound reference", raw, self.expected["bound_ref"])

    def _check_shift(self, stdout: str) -> None:
        e, doc = self.expected, json.loads(stdout)
        close("shift ceilings vs in-process", doc["ceiling"], e["shift"])
        close("shift ceilings vs closed form", doc["ceiling"], e["shift_ref"])
        close("shift measured vs in-process", doc["measured"], e["measured"], 0.0)
        for m, (lo, hi) in zip(doc["measured"], e["windows"]):
            expect(f"shift measured accuracy {m} outside [{lo:.4f}, {hi:.4f}]", lo <= m <= hi)

    def _check_eval(self, stdout: str) -> None:
        e, doc = self.expected, json.loads(stdout)
        close("eval vs in-process", [doc["auroc"], doc["aupr"], doc["tpr95"]], e["eval"])
        close("eval AUROC vs rank-sum reference", doc["auroc"], e["eval_ref"][0])
        close("eval rejection rate vs reference", doc["tpr95"], e["eval_ref"][1])

    def _check_oracle(self, stdout: str) -> None:
        e, doc = self.expected, json.loads(stdout)
        close("oracle overlap and variation vs reference", [doc["overlap"], doc["total_variation"]], e["oracle_ref"])
        close("oracle family bound vs in-process", doc["indicator_bound"], e["oracle_bound"])


WORKLOADS = {w.name: w for w in (ScoreBatch, CliPipeline)}
