"""Benchmark for overlapbound: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload score-batch --seed 1 --seconds 35 --trace 0

Run it from the root of a source tree: it imports the package from ``src/``
and exits with code 2 if there is none. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
with a span around every layer call, and reports per-layer metrics and the
tracing overhead. The last line of stdout is the result; the line before
it is a report with every metric the workload defines, failures and
provenance. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads; subprocesses inherit these.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import CLI_COMMANDS, Tracer, traced  # noqa: E402
from workloads import CLI_ORDER, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_FAILURES_SHOWN = 5


class NoSourceTree(RuntimeError):
    pass


def import_package():
    """Import overlapbound from this tree's src/, never from anywhere else."""
    init = SRC / "overlapbound" / "__init__.py"
    if not init.is_file():
        raise NoSourceTree(f"no package source at {init.relative_to(ROOT)}; run from a source tree")
    sys.path.insert(0, str(SRC))
    import overlapbound
    import overlapbound.cli  # noqa: F401  (not imported by the package itself)

    if Path(overlapbound.__file__).resolve() != init.resolve():
        raise NoSourceTree(f"imported overlapbound from {overlapbound.__file__}, expected {init}")
    return overlapbound


def provenance(ob, workload, seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "overlapbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "overlapbound": ob.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload.name,
        "sizes": workload.sizes(),
        "loop": "closed, one client, no think time, single process",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run whole rounds of operations until ``seconds`` have passed.

    One untimed warm-up round comes first. Every operation, warm-up
    included, is checked; a check failure, exception or non-zero exit
    counts as a failed operation.
    """
    lat_ns: list[int] = []
    kinds: list[str] = []
    failures: list[str] = []
    attempted = 0

    def one(i: int, op_id) -> int:
        nonlocal attempted
        attempted += 1
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.op(i)
            else:
                with tracer.op_span(op_id):
                    out = workload.op(i)
        except Exception as exc:  # an operation that raises is a failed operation
            out = exc
        t1 = time.perf_counter_ns()
        try:
            if isinstance(out, Exception):
                raise out
            workload.check(i, out)
        except Exception as exc:
            failures.append(f"op {i} ({workload.kind(i)}): {type(exc).__name__}: {exc}")
        return t1 - t0

    for i in range(workload.cycle):
        one(i, "warmup")
    i = workload.cycle
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or i % workload.cycle:
        kinds.append(workload.kind(i))
        lat_ns.append(one(i, i))
        i += 1
    return {"lat_ns": lat_ns, "kinds": kinds, "failures": failures, "attempted": attempted}


def latency_stats(lat_ns: list[int]) -> dict:
    ms = np.asarray(lat_ns, dtype=np.float64) / 1e6
    p90 = float(np.percentile(ms, 90))
    return {
        "ops_per_s": ms.size / (ms.sum() / 1e3),
        "op_p50_ms": float(np.median(ms)),
        "op_p90_ms": p90,
        "op_samples": int(ms.size),
        "op_samples_beyond_p90": int(np.count_nonzero(ms > p90)),
    }


def round_best_ms(lat_ns: list[int], kinds: list[str]) -> float:
    """Sum over op kinds of each kind's fastest op: the quickest a whole round
    can run. One kind on score-batch, seven on cli-pipeline.

    The host's speed swings within seconds and drifts over minutes, which
    moves medians and tails from run to run; the fastest op of each kind
    moves far less, so this is the gated latency.
    """
    best: dict[str, int] = {}
    for t, k in zip(lat_ns, kinds):
        best[k] = min(t, best.get(k, t))
    return sum(best.values()) / 1e6


def end_to_end(workload, run: dict, setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, every metric the workload defines), each as {name: (value, unit)}."""
    st = latency_stats(run["lat_ns"])
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-pipeline" else resource.RUSAGE_SELF
    gated = {
        "setup_s": (setup_s, "s"),
        "round_best_ms": (round_best_ms(run["lat_ns"], run["kinds"]), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    full = dict(gated)
    full["ops_per_s"] = (st["ops_per_s"], "1/s")
    full["op_p50_ms"] = (st["op_p50_ms"], "ms")
    full["op_p90_ms"] = (st["op_p90_ms"], "ms")
    full["failed_frac"] = (len(run["failures"]) / run["attempted"], "ratio")
    full["op_samples"] = (st["op_samples"], "count")
    full["op_samples_beyond_p90"] = (st["op_samples_beyond_p90"], "count")
    if workload.name == "score-batch":
        full["queries_per_s"] = (workload.size.batch * st["ops_per_s"], "1/s")
    if workload.name == "cli-pipeline":
        for kind in CLI_ORDER:
            ms = [t / 1e6 for t, k in zip(run["lat_ns"], run["kinds"]) if k == kind]
            full[f"cli.{kind}_p50_ms"] = (statistics.median(ms), "ms")
    return gated, full


# Per-layer metrics: (name, phase, span, stat). Values are per operation
# ("op" phase) or per set-up ("setup" phase); a layer a workload never calls reads 0.
_OP_LAYERS = [
    ("bound.compute_bound", ("calls", "conditions", "pooled_rows", "busy_ms", "self_ms")),
    ("shift.sweep_sigma", ("bound_calls", "self_ms")),
    ("shift.fixed_accuracy_rule", ("busy_ms",)),
    ("shift.simulate_accuracy", ("draws", "busy_ms")),
    ("core.exact_mean", ("elements", "busy_ms")),
    ("core.SampleSet", ("calls", "self_ms")),
    ("core.norms", ("rows", "busy_ms")),
    ("dataio.read_csv", ("rows", "busy_ms")),
    ("dataio.read_ovlb", ("bytes", "busy_ms")),
    ("classifier.raw_scores", ("queries", "busy_ms")),
    ("classifier.score", ("calls", "busy_ms")),
    ("classifier.iterative_scores_batch", ("queries", "bound_calls", "self_ms")),
    ("classifier.fit", ("self_ms",)),
    ("classifier.model_io", ("busy_ms",)),
    ("metrics.auroc", ("busy_ms",)),
    ("metrics.aupr", ("busy_ms",)),
    ("metrics.tpr_at_in_rate", ("busy_ms",)),
    ("oracle.subset_bound", ("busy_ms",)),
    ("oracle.indicator_bound", ("busy_ms",)),
] + [(f"cli.{c}", ("self_ms",)) for c in CLI_COMMANDS]
_SETUP_LAYERS = [("core.exact_mean", "busy_ms"), ("classifier.fit", "busy_ms"), ("classifier.model_io", "busy_ms")]
PER_LAYER = (
    [(f"{span}.{stat}", "op", span, stat) for span, stats in _OP_LAYERS for stat in stats]
    + [(f"{span}.setup_{stat}", "setup", span, stat) for span, stat in _SETUP_LAYERS]
)


def unit_of(stat: str) -> str:
    if stat.endswith("_ms"):
        return "ms"
    return "B" if stat == "bytes" else "count"


def per_layer(summary: dict, untraced_p50: float, traced_p50: float, import_ms: float) -> dict:
    ops = max(summary["ops"], 1)
    out = {}
    for name, phase, span, stat in PER_LAYER:
        st = summary["layers"].get((phase, span), {})
        key = {"calls": "count", "busy_ms": "busy_ns", "self_ms": "self_ns"}.get(stat, stat)
        value = float(st.get(key, 0.0))
        if stat.endswith("_ms"):
            value /= 1e6
        out[name] = (value / ops if phase == "op" else value, unit_of(stat))
    out["cli.import_ms"] = (import_ms, "ms")
    out["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    out["trace.coverage_frac"] = (summary["top_ns"] / max(summary["op_ns"], 1), "ratio")
    return out


def import_ms(reps: int = 5) -> float:
    """Median wall time of a bare ``import overlapbound`` in a fresh interpreter."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", "import overlapbound"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=120)
        times.append((time.perf_counter_ns() - t0) / 1e6)
        if proc.returncode != 0:
            raise RuntimeError(f"import overlapbound exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def rss_mb() -> float:
    """This process's resident set size now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_workload(ob, name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 size=None, tamper: bool = False, trace_out: Path | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload. Returns (result, report)."""
    cls = WORKLOADS[name]
    kwargs = {"size": size} if size is not None else {}
    if name == "cli-pipeline":
        kwargs["src"] = str(SRC)
    workload = cls(ob, seed, str(workdir), tamper=tamper, **kwargs)
    # Set-up is the workload's own calls before its first operation. Interpreter
    # start-up is left out: a subprocess spawn swings with the host far more
    # than the calls do, and the traced run reports it as cli.import_ms.
    setup_times = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter_ns()
        workload.setup()
        setup_times.append((time.perf_counter_ns() - t0) / 1e9)
    workload.prepare()
    rss_before_ops = rss_mb()

    if not trace:
        run = measure(workload, seconds)
        metrics, full = end_to_end(workload, run, statistics.median(setup_times))
    else:
        workload.in_process = True  # the CLI runs in this process so its calls can be traced
        untraced = measure(workload, seconds / 2)
        tracer = Tracer()
        with traced(tracer, ob):
            tracer.op = "setup"
            workload.setup()
            tracer.op = None
            run = measure(workload, seconds / 2, tracer)
        run["failures"] = untraced["failures"] + run["failures"]
        run["attempted"] += untraced["attempted"]
        metrics = per_layer(tracer.summary(), latency_stats(untraced["lat_ns"])["op_p50_ms"],
                            latency_stats(run["lat_ns"])["op_p50_ms"], import_ms())
        full = dict(metrics)
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(str(trace_out))

    attempted, failed = run["attempted"], len(run["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_s_reps": setup_times,
        "rss_before_ops_mb": rss_before_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in full.items()},
        "failures": run["failures"][:MAX_FAILURES_SHOWN],
        "provenance": provenance(ob, workload, seed),
    }
    return result, report


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ob = import_package()
    except NoSourceTree as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63  # numpy seeds must be non-negative
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    trace_out = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json"
    workdir.mkdir(parents=True)
    try:
        result, report = run_workload(ob, args.workload, seed, args.seconds, bool(args.trace),
                                      workdir, trace_out=trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
