import argparse
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from overlapbound import (
    DegenerateDomainError,
    NormKind,
    RadiusFamily,
    RadiusIndicator,
    SampleSet,
    compute_bound,
    core,
    fit,
    fixed_accuracy_rule,
    pooled_radius_family,
    simulate_accuracy,
    sweep_sigma,
)
from overlapbound.cli import MAX_K, build_parser, main
from overlapbound.dataio import write_samples_binary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, rows):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")


@pytest.fixture
def worked_files(tmp_path):
    pos = tmp_path / "pos.csv"
    neg = tmp_path / "neg.csv"
    write_csv(pos, [[0.2], [1.0]])
    write_csv(neg, [[1.0]])
    return pos, neg


def test_bound_identical_files(tmp_path, capsys, worked_files):
    pos, _ = worked_files
    code, out, _ = run_cli(capsys, "bound", str(pos), str(pos), "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["clamped_bound"] == 1.0
    assert doc["norm"] == "l2" and doc["k"] == 4
    assert len(doc["conditions"]) == 4


def test_bound_worked_pair(capsys, worked_files):
    pos, neg = worked_files
    code, out, _ = run_cli(capsys, "bound", str(pos), str(neg), "--k", "2")
    assert code == 0
    doc = json.loads(out)
    # k=2 gives balls at 0.5 and 1.0; the 0.5 ball wins with separation 0.4
    assert doc["raw_bound"] == pytest.approx(0.6, abs=1e-12)
    assert doc["best_index"] == 0


def test_bound_malformed_row_exit_2(tmp_path, capsys, worked_files):
    pos, _ = worked_files
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnot-a-number\n")
    code, _, err = run_cli(capsys, "bound", str(pos), str(bad))
    assert code == 2
    assert "bad.csv:2:1" in err


def test_errors_about_a_files_values_name_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, rows in {"fit.csv": [[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]], "huge.csv": [[1e308, 1.0]] * 2,
                       "far.csv": [[1e200, 1.0]], "nan.csv": [[np.nan, 1.0]],
                       "wide.csv": [[1e200, 1.0, 1.0]], "scores.csv": [[0.9, 1.0], [np.nan, 0.0]]}.items():
        write_csv(tmp_path / name, rows)
    assert run_cli(capsys, "fit", "fit.csv", "--k", "3", "--out", "model.json")[0] == 0
    iterative = ["score", "model.json", "fit.csv", "--iterative", "--fit-data"]
    for argv, name, message in [
        # bound names the bad file whether it comes first or second
        (["bound", "fit.csv", "far.csv"], "far.csv", "sample l2 norms overflow float64"),
        (["bound", "far.csv", "fit.csv"], "far.csv", "sample l2 norms overflow float64"),
        (["fit", "huge.csv", "--norm", "l1", "--out", "m.json"], "huge.csv",
         "the sum of column 0 overflows float64"),
        (["score", "model.json", "far.csv"], "far.csv", "query l2 norms overflow float64"),
        (["score", "model.json", "nan.csv"], "nan.csv", "query block has non-finite entries"),
        ([*iterative, "far.csv"], "far.csv", "sample l2 norms overflow float64"),
        ([*iterative, "nan.csv"], "nan.csv", "non-finite sample values"),
        # the overflow is found before the width
        ([*iterative, "wide.csv"], "wide.csv", "sample l2 norms overflow float64"),
        (["eval", "scores.csv"], "scores.csv", "scores must be finite"),
    ]:
        assert run_cli(capsys, *argv) == (2, "", f"error: {name}: {message}\n"), argv
    # an oracle distribution file, whichever place it takes
    (tmp_path / "good.json").write_text('{"dimension": 1, "points": [[0], [2]], "masses": [0.5, 0.5]}')
    for name, points, masses, message in [
        ("nan.json", "[[NaN], [2]]", "[0.5, 0.5]", "support points have non-finite coordinates"),
        ("twice.json", "[[1], [1]]", "[0.5, 0.5]", "support points must be pairwise distinct"),
        ("heavy.json", "[[0], [2]]", "[0.5, 0.6]", "masses must sum to 1 within 1e-12, got 1.1"),
    ]:
        (tmp_path / name).write_text(f'{{"dimension": 1, "points": {points}, "masses": {masses}}}')
        for pair in ([name, "good.json"], ["good.json", name]):
            assert run_cli(capsys, "oracle", *pair) == (2, "", f"error: {name}: {message}\n"), pair
    # an error that names its file itself names it once
    (tmp_path / "bad.csv").write_text("1,2\nx,1\n")
    (tmp_path / "broken.json").write_text("{")
    for argv, want in [
        (["fit", "bad.csv", "--out", "m.json"], "error: bad.csv:2:1: not a number: 'x'\n"),
        (["score", "broken.json", "fit.csv"], "error: broken.json: cannot read model JSON: "),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(want) and err.count(argv[1]) == 1, err


def test_bound_dimension_mismatch_exit_3(tmp_path, capsys, worked_files):
    pos, _ = worked_files
    wide = tmp_path / "wide.csv"
    write_csv(wide, [[1.0, 2.0]])
    code, _, err = run_cli(capsys, "bound", str(pos), str(wide))
    assert code == 3
    assert "pos.csv" in err and "wide.csv" in err


@pytest.mark.parametrize("command", ["score", "classify"])
def test_score_queries_of_another_dimension_exit_3(tmp_path, capsys, worked_files, command):
    pos, _ = worked_files
    model, wide = tmp_path / "model.json", tmp_path / "wide.csv"
    assert main(["fit", str(pos), "--k", "3", "--out", str(model)]) == 0
    write_csv(wide, [[1.0, 2.0]])
    capsys.readouterr()
    code, out, err = run_cli(capsys, command, str(model), str(wide), "--threshold", "0.5")
    assert (code, out, err) == (3, "", f"error: {wide} has dimension 2, model {model} expects 1\n")


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize("unopenable", ["--scores-out", "--out"])
@pytest.mark.parametrize("other", ["file", "existing file", "stdout"])
def test_an_output_that_cannot_be_opened_leaves_no_output(tmp_path, capsys, worked_files,
                                                          command, unopenable, other):
    # whichever of the two outputs cannot be opened, the other is not written:
    # a file this run created is removed, an existing one keeps its bytes, and
    # stdout stays empty
    pos, _ = worked_files
    model = tmp_path / "model.json"
    assert main(["fit", str(pos), "--k", "3", "--out", str(model)]) == 0
    other_flag = "--out" if unopenable == "--scores-out" else "--scores-out"
    argv = [command, str(model), str(pos), "--threshold", "0.5",
            unopenable, str(tmp_path / "missing" / "x")]
    if other != "stdout":
        argv += [other_flag, str(tmp_path / "other")]
        if other == "existing file":
            (tmp_path / "other").write_text("earlier\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if other == "existing file":
        assert (tmp_path / "other").read_text() == "earlier\n"


def test_scores_out_may_be_dev_stdout(tmp_path, worked_files):
    # and an existing --out file longer than the summary is overwritten whole
    pos, _ = worked_files
    model, summary = tmp_path / "model.json", tmp_path / "summary.json"
    assert main(["fit", str(pos), "--k", "3", "--out", str(model)]) == 0
    summary.write_text("x" * 10_000)
    proc = subprocess.run(
        [sys.executable, "-m", "overlapbound", "score", str(model), str(pos),
         "--scores-out", "/dev/stdout", "--out", str(summary)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "row_index,score,clamped"
    assert json.loads(summary.read_text())["n_queries"] == 2


@pytest.mark.parametrize("command", ["score", "classify"])
def test_scores_out_dev_stdout_into_a_file_keeps_every_row(tmp_path, capsys, worked_files, command):
    # /dev/stdout opens a second offset on stdout's file; the scores go through
    # stdout instead, so the summary follows them rather than overwriting them
    pos, _ = worked_files
    model, queries, out = tmp_path / "model.json", tmp_path / "queries.csv", tmp_path / "out.txt"
    assert run_cli(capsys, "fit", str(pos), "--k", "3", "--out", str(model))[0] == 0
    write_csv(queries, [[0.01 * i] for i in range(200)])
    argv = [command, str(model), str(queries)] + (["--threshold", "0.5"] if command == "classify" else [])
    code, want_scores, _ = run_cli(capsys, *argv, "--scores-out", str(tmp_path / "scores.csv"))
    assert code == 0
    with open(out, "w") as fh:
        proc = subprocess.run([sys.executable, "-m", "overlapbound", *argv, "--scores-out", "/dev/stdout"],
                              stdout=fh, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text() == (tmp_path / "scores.csv").read_text() + want_scores


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"1,2\n3,4\n5,7\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    models = []
    for data in (plain, marked):
        models.append(tmp_path / f"{data.stem}.json")
        code, _, err = run_cli(capsys, "fit", str(data), "--k", "4", "--out", str(models[-1]))
        assert (code, err) == (0, "")
    assert models[0].read_bytes() == models[1].read_bytes()
    code, out, err = run_cli(capsys, "bound", str(marked), str(plain))
    assert (code, err) == (0, "")
    assert run_cli(capsys, "bound", str(plain), str(plain)) == (code, out, err)


def test_fit_score_round_trip_bitwise(tmp_path, capsys, rng):
    train = tmp_path / "train.csv"
    queries = tmp_path / "queries.csv"
    write_csv(train, rng.normal(size=(60, 3)).tolist())
    write_csv(queries, rng.normal(size=(15, 3)).tolist())
    model = tmp_path / "model.json"
    code, _, _ = run_cli(capsys, "fit", str(train), "--k", "10", "--out", str(model))
    assert code == 0

    outputs = []
    for i in (1, 2):
        scores_path = tmp_path / f"scores_{i}.csv"
        summary_path = tmp_path / f"summary_{i}.json"
        code, _, _ = run_cli(
            capsys, "score", str(model), str(queries),
            "--scores-out", str(scores_path), "--out", str(summary_path),
        )
        assert code == 0
        outputs.append((scores_path.read_bytes(), summary_path.read_bytes()))
    assert outputs[0] == outputs[1]  # determinism, byte for byte

    header, first = outputs[0][0].decode().splitlines()[:2]
    assert header == "row_index,score,clamped"
    assert first.startswith("0,")


def test_score_verdicts_and_classify(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.2], [1.0]])
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--k", "2", "--out", str(model))
    queries = tmp_path / "q.csv"
    write_csv(queries, [[0.2], [5.0]])
    scores_path = tmp_path / "scores.csv"
    # the in-class point 0.2 scores 0.6 against the fit set; 5.0 scores far lower
    code, _, _ = run_cli(
        capsys, "classify", str(model), str(queries),
        "--threshold", "0.5", "--scores-out", str(scores_path),
    )
    assert code == 0
    lines = scores_path.read_text().splitlines()
    assert lines[0] == "row_index,score,clamped,verdict"
    assert lines[1].endswith(",in")
    assert lines[2].endswith(",out")


def test_scoring_own_fit_points(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.4, 0.3], [0.4, 0.3], [0.1, 0.1]])
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--k", "3", "--out", str(model))
    scores_path = tmp_path / "scores.csv"
    code, _, _ = run_cli(
        capsys, "score", str(model), str(train), "--scores-out", str(scores_path)
    )
    assert code == 0
    values = [float(line.split(",")[1]) for line in scores_path.read_text().splitlines()[1:]]
    assert all(v <= 1.0 for v in values)
    assert max(values) <= 1.0 and len(values) == 3


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_threshold_exit_2(tmp_path, capsys, command, threshold):
    train, model, out = tmp_path / "train.csv", tmp_path / "model.json", tmp_path / "s.json"
    write_csv(train, [[0.2], [1.0]])
    run_cli(capsys, "fit", str(train), "--k", "2", "--out", str(model))
    code, stdout, err = run_cli(capsys, command, str(model), str(train),
                                f"--threshold={threshold}", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: --threshold must be finite") and err.count("\n") == 1


def test_classify_requires_threshold(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.2], [1.0]])
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--out", str(model))
    code, out, err = run_cli(capsys, "classify", str(model), str(train))
    assert (code, out) == (2, "")
    assert err == "error: the following arguments are required: --threshold\n"


def test_iterative_needs_fit_data(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.2], [1.0]])
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--out", str(model))
    code, _, err = run_cli(capsys, "score", str(model), str(train), "--iterative")
    assert code == 2
    assert "--fit-data" in err
    # refused before the model or the queries are read
    code, out, err = run_cli(capsys, "score", str(tmp_path / "missing.json"),
                             str(tmp_path / "missing.csv"), "--iterative")
    assert (code, out) == (2, "")
    assert err == "error: --iterative needs --fit-data (the model stores no samples)\n"


@pytest.mark.parametrize("rows, message", [
    ("1,2\ninf,1\n", "bad.csv: non-finite sample values"),
    ("1e200,1\n1,2\n", "sample l2 norms overflow float64"),
])
def test_iterative_bad_fit_data_exit_2(tmp_path, capsys, rows, message):
    train, bad, model = tmp_path / "train.csv", tmp_path / "bad.csv", tmp_path / "model.json"
    write_csv(train, [[0.2, 1.0], [1.0, 0.5]])
    bad.write_text(rows)
    run_cli(capsys, "fit", str(train), "--out", str(model))
    code, _, err = run_cli(capsys, "score", str(model), str(train), "--iterative",
                           "--fit-data", str(bad))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_iterative_fit_data_other_than_the_models_exit_3(tmp_path, capsys, rng):
    train, other = tmp_path / "train.csv", tmp_path / "other.csv"
    queries, model, scores = tmp_path / "q.csv", tmp_path / "model.json", tmp_path / "scores.csv"
    write_csv(train, rng.normal(size=(30, 2)))
    write_csv(other, rng.normal(size=(30, 2)))
    write_csv(queries, rng.normal(size=(5, 2)))
    assert run_cli(capsys, "fit", str(train), "--k", "5", "--out", str(model))[0] == 0
    argv = ["score", str(model), str(queries), "--iterative", "--scores-out", str(scores)]
    assert run_cli(capsys, *argv, "--fit-data", str(train))[0] == 0
    scores.unlink()
    code, out, err = run_cli(capsys, *argv, "--fit-data", str(other))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {other}: ") and err.count("\n") == 1
    assert "not the data the model was fitted on" in err
    assert not scores.exists()


def test_iterative_walks_the_fit_data_once(tmp_path, capsys, monkeypatch, rng):
    # the iterative pass takes two statistics walks, both as SampleSets: the
    # mean check over the d-wide fit rows, then the second stage's fit over
    # their first-pass scores, one column
    data, model = tmp_path / "fit.csv", tmp_path / "model.json"
    write_csv(data, rng.normal(size=(30, 3)).tolist())
    run_cli(capsys, "fit", str(data), "--k", "5", "--out", str(model))
    sets, walks = [], []
    built, walk = SampleSet.__post_init__, core._walk_statistics
    monkeypatch.setattr(SampleSet, "__post_init__",
                        lambda self, samples: built(self, samples) or sets.append(self.dimension))
    monkeypatch.setattr(core, "_walk_statistics",
                        lambda *args: walks.append(len((stats := walk(*args)).mean)) or stats)
    code, out, _ = run_cli(capsys, "score", str(model), str(data), "--iterative",
                           "--fit-data", str(data))
    assert code == 0 and sets == walks == [3, 1]


def test_shift_simulate_beyond_memory_exit_2(capsys, worked_files):
    # numpy refuses the 7 PiB request before it touches any memory
    clean, poisoned = worked_files
    code, out, err = run_cli(capsys, "shift", "--clean", str(clean), "--poisoned", str(poisoned),
                             "--p", "0.9", "--simulate", "1000000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_ovlb_and_csv_fits_of_the_same_rows_equal_the_in_process_fit(tmp_path, capsys, monkeypatch,
                                                                      norm):
    # small blocks and reads, and centred columns, whose array sums fall back
    # to exact sums of the remainders: both files stream, and every model is
    # the same bytes
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 64)
    a = np.random.default_rng(2022).standard_normal((600, 16))
    a[:, :8] -= a[:, :8].mean(axis=0)
    binary, text = tmp_path / "rows.ovlb", tmp_path / "rows.csv"
    write_samples_binary(binary, a)
    text.write_text("".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))
    want = fit(a, k=9, norm=norm).to_json_text() + "\n"
    for path in (binary, text):
        model = tmp_path / f"{path.suffix[1:]}-model.json"
        assert run_cli(capsys, "fit", str(path), "--k", "9", "--norm", norm, "--out", str(model))[0] == 0
        assert model.read_text() == want


@pytest.mark.parametrize("n", [2**60, 2**62, 2**70])
def test_shift_simulate_beyond_any_array_size_exit_2(capsys, worked_files, n):
    # numpy refuses such a size with a ValueError, not a MemoryError
    clean, poisoned = worked_files
    code, out, err = run_cli(capsys, "shift", "--clean", str(clean), "--poisoned", str(poisoned),
                             "--p", "0.9", "--simulate", str(n))
    assert code == 2 and out == ""
    assert err == f"error: n_samples must be >= 1 and fit an array size, got {n}\n"


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_fit_from_binary_file_equals_in_process_fit(tmp_path, capsys, rng, norm):
    data, model = tmp_path / "fit.ovlb", tmp_path / "model.json"
    array = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-3, 3, size=(300, 1))
    write_samples_binary(data, array)
    code, out, _ = run_cli(capsys, "fit", str(data), "--k", "7", "--norm", norm, "--out", str(model))
    assert code == 0
    assert model.read_text() == fit(array, k=7, norm=norm).to_json_text() + "\n"
    doc = json.loads(out)
    assert (doc["n_samples"], doc["dimension"], doc["norm"]) == (300, 5, norm)


def test_iterative_adds_column(tmp_path, capsys, rng):
    train = tmp_path / "train.csv"
    write_csv(train, rng.normal(size=(20, 2)).tolist())
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--k", "5", "--out", str(model))
    queries = tmp_path / "q.csv"
    write_csv(queries, rng.normal(size=(4, 2)).tolist())
    scores_path = tmp_path / "scores.csv"
    code, out, _ = run_cli(
        capsys, "score", str(model), str(queries),
        "--iterative", "--fit-data", str(train), "--k2", "8",
        "--scores-out", str(scores_path),
    )
    assert code == 0
    lines = scores_path.read_text().splitlines()
    assert lines[0] == "row_index,score,clamped,iterative"
    assert len(lines) == 5

    # with a threshold, the second-pass score decides the verdict
    verdicts_path = tmp_path / "verdicts.csv"
    code, _, _ = run_cli(
        capsys, "score", str(model), str(queries),
        "--iterative", "--fit-data", str(train), "--k2", "8",
        "--threshold", "0.6", "--scores-out", str(verdicts_path),
    )
    assert code == 0
    rows = [line.split(",") for line in verdicts_path.read_text().splitlines()[1:]]
    for _, _, _, iterative, verdict in rows:
        assert verdict == ("in" if float(iterative) >= 0.6 else "out")


def test_model_size_constant_in_n_via_cli(tmp_path, capsys, rng):
    big = tmp_path / "big.ovlb"
    small = tmp_path / "small.csv"
    write_samples_binary(big, rng.normal(size=(100_000, 4)))
    write_csv(small, rng.normal(size=(10, 4)).tolist())
    model_big = tmp_path / "model_big.json"
    model_small = tmp_path / "model_small.json"
    assert run_cli(capsys, "fit", str(big), "--out", str(model_big))[0] == 0
    assert run_cli(capsys, "fit", str(small), "--out", str(model_small))[0] == 0
    # fixed-width floats: sizes may differ only by sign characters of the means
    assert abs(model_big.stat().st_size - model_small.stat().st_size) <= 4 + 16


def test_shift_sweep_worked_mixture(capsys, worked_files):
    clean, poisoned = worked_files
    code, out, _ = run_cli(
        capsys, "shift", "--clean", str(clean), "--poisoned", str(poisoned),
        "--p", "0.9", "--k", "2", "--sigma", "0,0.5,1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == [0.0, 0.5, 1.0]
    assert doc["ceiling"][0] == pytest.approx(0.54, abs=1e-12)
    assert doc["ceiling"][2] == pytest.approx(0.9, abs=1e-15)


def test_shift_simulate_deterministic(tmp_path, capsys, rng):
    clean = tmp_path / "clean.csv"
    poisoned = tmp_path / "poisoned.csv"
    write_csv(clean, rng.normal(size=(50, 2)).tolist())
    write_csv(poisoned, (rng.normal(size=(50, 2)) + 3.0).tolist())
    args = [
        "shift", "--clean", str(clean), "--poisoned", str(poisoned),
        "--p", "0.9", "--sigma", "0,0.5,1", "--simulate", "2000", "--seed", "7",
    ]
    runs = []
    for _ in range(2):
        code = main(args)
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert len(doc["measured"]) == 3
    for measured, ceiling in zip(doc["measured"], doc["ceiling"]):
        assert measured <= ceiling + 3 * np.sqrt(0.9 * 0.1 / 2000)


def test_eval_command(tmp_path, capsys):
    scored = tmp_path / "scored.csv"
    scored.write_text("score,label\n0.9,1\n0.8,1\n0.2,0\n0.1,0\n")
    code, out, _ = run_cli(capsys, "eval", str(scored))
    assert code == 0
    doc = json.loads(out)
    assert doc["auroc"] == 1.0
    assert doc["aupr"] == 1.0
    assert doc["tpr95"] == 1.0
    assert doc["n_pos"] == 2 and doc["n_neg"] == 2


def test_eval_labels_of_two_columns_exit_2(tmp_path, capsys):
    scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
    scores.write_text("0.9\n0.1\n")
    labels.write_text("1,0\n0,1\n")
    code, out, err = run_cli(capsys, "eval", str(scores), "--labels", str(labels))
    assert (code, out, err) == (2, "", f"error: {labels}: expected a single label column, got 2\n")


def test_eval_of_three_columns_exit_2(tmp_path, capsys):
    scored = tmp_path / "scored.csv"
    scored.write_text("0.9,1,0\n0.1,0,1\n")
    code, out, err = run_cli(capsys, "eval", str(scored))
    assert (code, out, err) == (2, "", f"error: {scored}: expected two columns (score, label), got 3\n")


def test_eval_single_class_exit_4(tmp_path, capsys):
    scored = tmp_path / "scored.csv"
    scored.write_text("0.9,1\n0.8,1\n")
    code, _, err = run_cli(capsys, "eval", str(scored))
    assert code == 4
    assert "both classes" in err


def test_oracle_identical_distributions(tmp_path, capsys):
    doc = {"dimension": 1, "points": [[0.2], [1.0]], "masses": [0.5, 0.5]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "oracle", str(path), str(path), "--k", "3")
    assert code == 0
    got = json.loads(out)
    assert got["overlap"] == 1.0
    assert got["total_variation"] == 0.0


def test_oracle_on_two_point_masses_at_the_origin_has_no_bound(tmp_path, capsys):
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text(json.dumps({"dimension": 2, "points": [[0.0, 0.0]], "masses": [1.0]}))
    q.write_text(json.dumps({"dimension": 2, "points": [[-0.0, 0.0]], "masses": [1.0]}))
    code, out, err = run_cli(capsys, "oracle", str(p), str(q), "--k", "2")
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert (got["overlap"], got["total_variation"], got["indicator_bound"]) == (1.0, 0.0, None)
    assert got["per_radius"] == 2 * [{"radius": 0.0, "delta_a": 0.0, "bound_domain_radius": None,
                                      "bound_complement_radius": None}]


def test_oracle_worked_pair(tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"dimension": 1, "points": [[0.2], [1.0]], "masses": [0.5, 0.5]}))
    q.write_text(json.dumps({"dimension": 1, "points": [[1.0]], "masses": [1.0]}))
    code, out, _ = run_cli(capsys, "oracle", str(p), str(q), "--radius", "0.5")
    assert code == 0
    got = json.loads(out)
    assert got["overlap"] == 0.5
    assert got["indicator_bound"] == pytest.approx(0.6, abs=1e-12)
    assert got["per_radius"][0]["delta_a"] == 0.25
    assert got["per_radius"][0]["bound_domain_radius"] == pytest.approx(0.6, abs=1e-12)


def test_oracle_builds_one_joint_support_per_quantity(tmp_path, monkeypatch):
    from overlapbound.oracle import DiscreteDistribution, JointSupport

    rng = np.random.default_rng(5)
    pool = rng.uniform(-2.0, 2.0, size=(16, 3))
    paths = []
    for name, rows in (("p.json", pool[:12]), ("q.json", pool[4:])):
        path = tmp_path / name
        path.write_text(json.dumps({"dimension": 3, "points": rows.tolist(),
                                    "masses": [1.0 / 12] * 11 + [1.0 - 11.0 / 12]}))
        paths.append(str(path))
    counts = {"of": 0, "mean": 0}
    real_of, real_mean = JointSupport.of.__func__, DiscreteDistribution.mean

    def counting_of(cls, p, q):
        counts["of"] += 1
        return real_of(cls, p, q)

    def counting_mean(self):
        counts["mean"] += 1
        return real_mean(self)

    monkeypatch.setattr(JointSupport, "of", classmethod(counting_of))
    monkeypatch.setattr(DiscreteDistribution, "mean", counting_mean)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["oracle", *paths, "--k", "50"]) == 0
    assert len(json.loads(out.getvalue())["per_radius"]) == 50
    # the command's joint, then overlap, total_variation and indicator_bound
    assert counts["of"] <= 4 and counts["mean"] <= 8, counts


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("radii", [[], ["0.5", "1.5", "9"]])
def test_oracle_builds_the_joint_and_its_norms_once_with_the_same_json(tmp_path, monkeypatch,
                                                                      norm, radii):
    from overlapbound import oracle

    rng = np.random.default_rng(7)
    pool = np.round(rng.uniform(-2.0, 2.0, size=(16, 2)), 1)
    pool[0] = 0.0
    docs = {}
    for name, rows in (("p.json", pool[:12]), ("q.json", pool[4:])):
        docs[name] = {"dimension": 2, "points": rows.tolist(),
                      "masses": [1.0 / 12] * 11 + [1.0 - 11.0 / 12]}
        (tmp_path / name).write_text(json.dumps(docs[name]))
    p, q = (oracle.DiscreteDistribution.from_json_dict(docs[name]) for name in ("p.json", "q.json"))
    kind = NormKind.from_string(norm)
    # the JSON from the public functions, each called alone
    joint = oracle.JointSupport.of(p, q)
    conditions = ([RadiusIndicator(float(r), kind) for r in radii]
                  or RadiusFamily(7, float(joint.support_norms(kind).max()), kind).indicators())

    def bound_or_none(g, use_domain_radius):  # the CLI writes null for an undefined bound
        try:
            return oracle.subset_bound(joint, g, kind, use_domain_radius)
        except DegenerateDomainError:
            return None

    per_radius = [{"radius": g.radius, "delta_a": oracle.subset_variation(joint, g),
                   "bound_domain_radius": bound_or_none(g, True),
                   "bound_complement_radius": bound_or_none(g, False)}
                  for g in conditions]
    want = {"overlap": oracle.overlap(p, q), "total_variation": oracle.total_variation(p, q),
            "norm": norm, "per_radius": per_radius,
            "indicator_bound": oracle.indicator_bound(p, q, conditions, kind)}
    counts = {"of": 0, "support_norms": 0}
    real_of, real_norms = oracle.JointSupport.of.__func__, oracle.JointSupport.support_norms

    def counting_of(cls, *args):
        counts["of"] += 1
        return real_of(cls, *args)

    def counting_norms(self, *args):
        counts["support_norms"] += 1
        return real_norms(self, *args)

    monkeypatch.setattr(oracle.JointSupport, "of", classmethod(counting_of))
    monkeypatch.setattr(oracle.JointSupport, "support_norms", counting_norms)
    argv = ["oracle", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--norm", norm,
            "--k", "7"] + [f"--radius={r}" for r in radii]
    code, out, err = _main_with_warnings_as_errors(argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(want, indent=2) + "\n"
    assert counts == {"of": 1, "support_norms": 1}


def test_oracle_takes_the_norms_of_its_support_once(tmp_path, monkeypatch):
    from overlapbound import oracle

    rng = np.random.default_rng(11)
    for name, rows in (("p.json", rng.normal(size=(40, 3))), ("q.json", rng.normal(size=(30, 3)) + 0.5)):
        (tmp_path / name).write_text(json.dumps(
            {"dimension": 3, "points": rows.tolist(), "masses": [1.0 / len(rows)] * len(rows)}))
    argv = ["oracle", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--k", "50"]
    want = _main_with_warnings_as_errors(argv)
    calls = []
    real = core.norms

    def counting_norms(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    for module in (core, oracle):  # every namespace that calls it by name
        monkeypatch.setattr(module, "norms", counting_norms)
    assert _main_with_warnings_as_errors(argv) == want and want[0] == 0
    # the support's 70 norms, once: each ball's mask is read off them, and
    # every other call is the one-row mean gap of a bound
    assert calls.count(70) == 1 and set(calls) == {1, 70}, calls


def test_summary_means_are_exact_means_of_the_score_columns(tmp_path, capsys, rng):
    train, queries, model = tmp_path / "train.csv", tmp_path / "queries.csv", tmp_path / "model.json"
    write_csv(train, rng.normal(size=(300, 3)))
    write_csv(queries, 1.5 * rng.normal(size=(700, 3)))
    assert run_cli(capsys, "fit", str(train), "--out", str(model))[0] == 0
    scores, summary = tmp_path / "scores.csv", tmp_path / "summary.json"
    code, _, _ = run_cli(capsys, "classify", str(model), str(queries), "--threshold", "0.5",
                         "--iterative", "--fit-data", str(train),
                         "--scores-out", str(scores), "--out", str(summary))
    assert code == 0
    header, *lines = scores.read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
    doc = json.loads(summary.read_text())
    for key, column in (("mean_score", "score"), ("mean_iterative_score", "iterative")):
        values = [float(v) for v in columns[column]]
        assert doc[key] == math.fsum(values) / len(values), key


@pytest.mark.parametrize("command", ["score", "classify"])
@pytest.mark.parametrize("flags", [["--fit-data", "does-not-exist.csv"], ["--k2", "9"]])
def test_fit_data_and_k2_need_iterative(tmp_path, capsys, command, flags):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.2], [1.0]])
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--out", str(model))
    code, out, err = run_cli(capsys, command, str(model), str(train), "--threshold", "0.5", *flags)
    assert (code, out) == (2, "")
    assert err == "error: --fit-data and --k2 apply only with --iterative\n"


@pytest.mark.parametrize("label", ["nan", "2", "-1", "0.5"])
def test_eval_rejects_labels_other_than_0_or_1(tmp_path, capsys, label):
    scored = tmp_path / "scored.csv"
    scored.write_text(f"0.9,{label}\n0.1,0\n0.5,1\n")
    code, out, err = run_cli(capsys, "eval", str(scored))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {scored}: labels must be 0 or 1")
    scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
    scores.write_text("0.9\n0.1\n")
    labels.write_text(f"{label}\n0\n")
    code, out, err = run_cli(capsys, "eval", str(scores), "--labels", str(labels))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {labels}: labels must be 0 or 1")


def test_missing_inputs_exit_2(tmp_path, capsys, worked_files):
    pos, _ = worked_files
    code, _, err = run_cli(capsys, "bound", str(pos), str(tmp_path / "nope.csv"))
    assert code == 2 and "nope.csv" in err
    code, _, err = run_cli(capsys, "score", str(tmp_path / "nope.json"), str(pos))
    assert code == 2 and "nope.json" in err
    code, _, err = run_cli(capsys, "oracle", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize("argv", [["bound", "nope.csv", "nope2.csv"], ["fit", "nope.csv", "--out", "m.json"],
                                  ["oracle", "nope.json", "nope2.json"]])
def test_an_unknown_norm_is_named_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # none of the files exists
    code, out, err = run_cli(capsys, *argv, "--norm", "l3")
    assert (code, out) == (2, "")
    assert err == "error: unknown norm 'l3'; expected l1, l2, or linf\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["score", "oracle"])
def test_unreadable_json_exit_2(tmp_path, capsys, worked_files, command):
    for content in (b"[" * 100_000, b"\x80{}"):  # nested past the recursion limit; not UTF-8
        doc = tmp_path / "doc.json"
        doc.write_bytes(content)
        second = worked_files[0] if command == "score" else doc
        code, _, err = run_cli(capsys, command, str(doc), str(second))
        assert code == 2 and err.count("\n") == 1 and "cannot read" in err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "overlapbound", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "bound" in proc.stdout and "oracle" in proc.stdout


@pytest.mark.parametrize(
    "rows,norm,message",
    [
        ("1e308,1\n1e308,2\n", "l2", "norms overflow"),
        ("1e200,1\n1e200,2\n", "l2", "norms overflow"),
        ("1e308,1\n1e308,2\n", "l1", "column 0 overflows"),
        ("1,2\nnan,1\n", "l2", "big.csv: non-finite sample values"),
    ],
)
def test_fit_overflow_exit_2_without_traceback(tmp_path, rows, norm, message):
    data = tmp_path / "big.csv"
    data.write_text(rows)
    proc = subprocess.run(
        [sys.executable, "-m", "overlapbound", "fit", str(data), "--norm", norm,
         "--out", str(tmp_path / "model.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert message in proc.stderr


def test_oracle_bad_radius_exit_2(tmp_path, capsys):
    dist = tmp_path / "p.json"
    dist.write_text(json.dumps({"dimension": 1, "points": [[0.0], [1.0]], "masses": [0.5, 0.5]}))
    code, _, err = run_cli(capsys, "oracle", str(dist), str(dist), "--radius", "abc")
    assert code == 2
    assert err.startswith("error: ") and "'abc'" in err


@pytest.mark.parametrize(
    "edit, query, message",
    [
        (None, "1e200,1\n", "query l2 norms overflow"),
        (("k", "abc"), "1,1\n", "'k' must be an integer >= 1"),
        (("mean", [0.5]), "1,1\n", "'mean' must be a list of `dimension` finite numbers"),
        (("rFit", float("nan")), "1,1\n", "'rFit' must be a finite number >= 0"),
    ],
)
def test_score_bad_query_or_model_exit_2_without_warning(tmp_path, edit, query, message):
    data, model, queries = tmp_path / "fit.csv", tmp_path / "model.json", tmp_path / "q.csv"
    write_csv(data, [[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]])
    assert main(["fit", str(data), "--k", "3", "--out", str(model)]) == 0
    if edit is not None:
        doc = json.loads(model.read_text())
        doc[edit[0]] = edit[1]
        model.write_text(json.dumps(doc))
    queries.write_text(query)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "overlapbound", "score", str(model), str(queries)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert message in proc.stderr


def _main_with_warnings_as_errors(argv) -> tuple[int, str, str]:
    """``main`` in process with every warning raised; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _ovlb(n: int, d: int, payload: bytes, magic: bytes = b"OVLB", version: int = 1) -> bytes:
    return struct.pack("<4sIQQ", magic, version, n, d) + payload


@pytest.mark.parametrize(
    "n, d, payload, message",
    [
        (2**62, 1, 8, "expected 4611686018427387904 float64 values, found 1"),
        (1, 2**37, 12, "expected 137438953472 float64 values, found 1"),
        (2**63, 0, 0, "no data values"),
    ],
)
def test_ovlb_header_beyond_file_size_exit_2(tmp_path, capsys, n, d, payload, message):
    data = tmp_path / "big.ovlb"
    data.write_bytes(_ovlb(n, d, bytes(payload)))
    code, _, err = run_cli(capsys, "fit", str(data), "--out", str(tmp_path / "model.json"))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "payload, message",
    [
        (8 * 30 + 3, "expected 9 float64 values, found 30 and 3 stray bytes"),
        (8 * 10, "expected 9 float64 values, found 10"),
        (8 * 9 + 1, "expected 9 float64 values, found 9 and 1 stray bytes"),
    ],
)
def test_ovlb_payload_longer_than_its_header_exit_2(tmp_path, capsys, payload, message):
    # a header of 3 rows must not fit the first 3 rows of a longer file
    data, model = tmp_path / "long.ovlb", tmp_path / "model.json"
    data.write_bytes(_ovlb(3, 3, np.ones(payload // 8).tobytes() + bytes(payload % 8)))
    code, out, err = run_cli(capsys, "fit", str(data), "--out", str(model))
    assert (code, out) == (2, "")
    assert err == f"error: {data}: {message}\n"
    assert not model.exists()


def _mostly(common, *rare):
    """``common`` three times in four, else one of ``rare``."""
    return st.integers(0, 3).flatmap(lambda i: common if i else st.one_of(*rare))


_NUMBERS = _mostly(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1e308, -1.7e308, 1e200, 1e154, 1e-200, 1e-320, 5e-324]),
    st.floats(),
)
_CELLS = _mostly(_NUMBERS.map(repr), st.sampled_from(["", " 3 ", "x", "1_0", "0x10", "-nan", "1e999"]))


@st.composite
def csv_files(draw, width: int) -> bytes:
    """CSV text: rows of ``width`` cells (mostly numbers, sometimes ragged), an
    optional header and blank lines; or any text; or any bytes."""
    row = _mostly(st.lists(_CELLS, min_size=width, max_size=width), st.lists(_CELLS, max_size=4))
    lines = [",".join(cells) for cells in draw(st.lists(row, min_size=1, max_size=6))]
    if draw(st.booleans()):
        lines.insert(0, ",".join(["a"] * width))
    text = "\n".join(lines + draw(st.sampled_from([[], [""], ["", "  "]])))
    return draw(_mostly(st.just(text.encode()), st.text(max_size=30).map(str.encode),
                        st.binary(max_size=30)))


@st.composite
def ovlb_files(draw, width: int) -> bytes:
    """OVLB bytes: a header, mostly with the right magic and version, whose
    counts are mostly n <= 3 rows of ``width`` values, else zero or huge, and
    float64 values mostly matching the counts."""
    huge = st.sampled_from([0, 2**37, 2**62, 2**63, 2**64 - 1])
    n, d = draw(_mostly(st.integers(1, 3), huge)), draw(_mostly(st.just(width), huge))
    off = draw(_mostly(st.just(0), st.sampled_from([-1, 1])))
    count = draw(st.integers(0, 20)) if n * d > 20 else max(0, n * d + off)
    payload = np.array(draw(st.lists(_NUMBERS, min_size=count, max_size=count)), dtype="<f8")
    magic = draw(_mostly(st.just(b"OVLB"), st.just(b"OVLA")))
    return _ovlb(n, d, payload.tobytes(), magic, draw(_mostly(st.just(1), st.just(2))))


def _file_pairs(width: int):
    files = csv_files(width) | ovlb_files(width)
    return st.tuples(files, files)


@given(st.integers(1, 3).flatmap(_file_pairs), st.sampled_from(["l1", "l2", "linf"]),
       st.integers(1, 4))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_on_any_sample_file_answers_or_prints_one_error(tmp_path_factory, files, norm, k):
    first, second = files
    folder = tmp_path_factory.getbasetemp() / "fuzz"
    folder.mkdir(exist_ok=True)
    a, b, model = folder / "a", folder / "b", folder / "model.json"
    a.write_bytes(first)
    b.write_bytes(second)
    common = ["--norm", norm, "--k", str(k)]
    for argv in (
        ["fit", str(a), "--out", str(model)] + common,
        ["bound", str(a), str(b)] + common,
        ["shift", "--clean", str(a), "--poisoned", str(b), "--p", "0.9", "--q", "0.1",
         "--sigma", "0,0.5,1", "--simulate", "50"] + common,
    ):
        code, _, text = _main_with_warnings_as_errors(argv)
        assert code in (0, 2, 3), (argv[0], code, text)
        assert text == "" or (text.count("\n") == 1 and text.startswith("error: ")), (argv[0], text)


def test_fit_score_and_bound_near_float64_max(tmp_path):
    # top * j overflows in the linf radius family; the data * 1e-308 scores 0.48529411764705876
    data, model, query = tmp_path / "big.csv", tmp_path / "model.json", tmp_path / "q.csv"
    data.write_text("1.7e308\n-0.5e308\n")
    query.write_text("-0.6e308\n")
    common = ["--norm", "linf", "--k", "4"]
    assert _main_with_warnings_as_errors(["fit", str(data), "--out", str(model)] + common)[0] == 0
    assert "radii" not in json.loads(model.read_text())
    code, out, _ = _main_with_warnings_as_errors(["score", str(model), str(query)])
    assert code == 0 and out.splitlines()[1].split(",")[1] == "0.4852941176470589"
    code, out, _ = _main_with_warnings_as_errors(["bound", str(data), str(data)] + common)
    assert code == 0 and json.loads(out)["raw_bound"] == 1.0


def test_oracle_near_float64_max(tmp_path):
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text('{"dimension": 1, "points": [[1.7e308], [0]], "masses": [0.5, 0.5]}')
    q.write_text('{"dimension": 1, "points": [[1e308], [0]], "masses": [0.5, 0.5]}')
    code, out, _ = _main_with_warnings_as_errors(
        ["oracle", str(p), str(q), "--radius", "1.5e308", "--norm", "linf"])
    assert code == 0
    doc = json.loads(out)
    entry = doc["per_radius"][0]
    assert doc["indicator_bound"] == 0.7941176470588236
    assert entry["bound_domain_radius"] == entry["bound_complement_radius"] == 0.7941176470588236


def test_negative_seed_exit_2(worked_files):
    clean, poisoned = worked_files
    code, _, err = _main_with_warnings_as_errors(
        ["shift", "--clean", str(clean), "--poisoned", str(poisoned), "--p", "0.9",
         "--simulate", "10", "--seed", "-1"])
    assert (code, err) == (2, "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("sigma, message", [
    ("x", "bad --sigma list 'x': could not convert string to float: 'x'"),
    (",", "--sigma list is empty"),
])
def test_shift_bad_sigma_list_exit_2(worked_files, sigma, message):
    clean, poisoned = worked_files
    code, out, err = _main_with_warnings_as_errors(
        ["shift", "--clean", str(clean), "--poisoned", str(poisoned), "--p", "0.9", "--sigma", sigma])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_shift_reads_its_pair_before_the_sigma_list(tmp_path, worked_files):
    clean, _ = worked_files
    missing = tmp_path / "missing.csv"
    code, out, err = _main_with_warnings_as_errors(
        ["shift", "--clean", str(clean), "--poisoned", str(missing), "--p", "0.5", "--sigma", "x"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {missing}: cannot read file: ") and err.count("\n") == 1


@pytest.mark.parametrize("p_doc, q_doc, norm, message", [
    ('{"dimension": 1e400, "points": [[1, 2]], "masses": [1]}', None, "l2",
     "'dimension' must be an integer >= 1, got inf"),
    ('{"dimension": 2.5, "points": [[1, 2]], "masses": [1]}', None, "l2",
     "'dimension' must be an integer >= 1, got 2.5"),
    ('{"dimension": true, "points": [[1]], "masses": [1]}', None, "l2",
     "'dimension' must be an integer >= 1, got True"),
    ('{"dimension": 2, "points": [[1.7e308, 1e300]], "masses": [1]}',
     '{"dimension": 2, "points": [[-1.7e308, 0]], "masses": [1]}', "l2",
     "support l2 norms overflow float64"),
    ('{"dimension": 2, "points": [[1.7e308, 1e300]], "masses": [1]}',
     '{"dimension": 2, "points": [[-1.7e308, 0]], "masses": [1]}', "linf",
     "the linf gap between the distribution means overflows float64"),
    # Python's json module reads the NaN literal
    ('{"dimension": 1, "points": [[NaN]], "masses": [1]}', None, "l2",
     "support points have non-finite coordinates"),
])
def test_oracle_bad_dimension_or_overflow_exit_2(tmp_path, p_doc, q_doc, norm, message):
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    p.write_text(p_doc)
    q.write_text(q_doc or p_doc)
    code, _, err = _main_with_warnings_as_errors(["oracle", str(p), str(q), "--norm", norm])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


# Fuzzed inputs of oracle, score, eval and shift: JSON documents, CSV text and
# numeric flag values that argparse accepts.
_TOKENS = st.sampled_from(["null", "true", "0", "-1", "2.5", "1e400", "NaN", "-Infinity", '"1"',
                           "[]", "{}", "[[1]]", "[1e308, -1e308]", "[0.5, 0.5]", '"l3"'])
_FLAG_VALUES = _mostly(
    st.floats(0.0, 1.0),
    st.sampled_from([-0.0, -1e-300, 1.0000000000000002, 2.0, -1.0, 1e308]),
    st.floats(),
).map(repr)


def _json_text(draw, fields: dict) -> bytes:
    """A JSON object of ``fields`` (key -> JSON text), at times with one value
    replaced by an odd token or one key left out; else any text or bytes."""
    keys = list(fields)
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(keys))
        token = draw(_TOKENS | st.none())
        if token is None:
            del fields[key]
        else:
            fields[key] = token
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    return draw(_mostly(st.just(text.encode()), st.text(max_size=30).map(str.encode),
                        st.binary(max_size=30)))


@st.composite
def distribution_files(draw) -> bytes:
    """Oracle distribution JSON: mostly 1-4 points of dimension 1-2 with
    masses summing to 1, with odd coordinates, masses and dimensions mixed in."""
    d, n = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    coord = _mostly(st.sampled_from([-1.5, 0.0, 0.5, 2.0]), _NUMBERS,
                    st.sampled_from([1.7976931348623157e308, -1.7e308, 1e200]))
    points = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    masses = draw(_mostly(st.just([1.0 / n] * n),
                          st.just([1.0000000000000002] + [0.0] * (n - 1)),
                          st.lists(_NUMBERS, min_size=n, max_size=n)))
    dimension = draw(_mostly(st.just(str(d)), st.integers(-1, 3).map(str),
                             st.sampled_from(["1e400", "2.5", "1.0", "true"])))
    return _json_text(draw, {"dimension": dimension, "points": json.dumps(points),
                             "masses": json.dumps(masses)})


_FIT_ROWS = [[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]]
_MODEL = {key: json.dumps(value) for key, value in fit(_FIT_ROWS, k=3).to_json_dict().items()}


@st.composite
def model_files(draw) -> bytes:
    """Model JSON text: the model fitted on fit.csv with k=3, mostly edited."""
    return _json_text(draw, dict(_MODEL))


@given(
    st.tuples(distribution_files(), distribution_files(), model_files(), csv_files(2)),
    st.lists(_mostly(st.floats(0.0, 3.0).map(repr), _FLAG_VALUES), max_size=2),
    st.tuples(_mostly(_FLAG_VALUES, st.sampled_from(["nan", "inf", "-inf"])),
              _FLAG_VALUES, _FLAG_VALUES, _FLAG_VALUES),
    st.lists(_FLAG_VALUES, min_size=1, max_size=3),
    st.integers(-1, 1000), _mostly(st.integers(0, 2**32), st.integers(-3, -1), st.just(2**70)),
    st.sampled_from(["l1", "l2", "linf"]),
    _mostly(st.integers(1, 64), st.sampled_from([0, -1, MAX_K + 1, 10**9, 10**30])), st.booleans(),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_on_any_json_csv_or_flag_answers_or_prints_one_error(
    tmp_path_factory, files, radii, values, sigmas, simulate, seed, norm, k, iterative
):
    folder = tmp_path_factory.getbasetemp() / "fuzz-flags"
    folder.mkdir(exist_ok=True)
    paths = [folder / name for name in ("p.json", "q.json", "model.json", "scores.csv")]
    for path, content in zip(paths, files):
        path.write_bytes(content)
    p, q, model, scores = map(str, paths)
    fit_data, queries = folder / "fit.csv", folder / "queries.csv"
    write_csv(fit_data, _FIT_ROWS)
    write_csv(queries, [[1.0, 1.0], [0.0, 0.0], [9.0, -4.0]])
    summary = folder / "summary.json"
    summary.unlink(missing_ok=True)
    threshold, p_acc, q_acc, in_rate = values
    score_argv = ["score", model, str(queries), f"--threshold={threshold}", "--out", str(summary)]
    if iterative:
        score_argv += ["--iterative", "--fit-data", str(fit_data), "--k2", str(k)]
    for argv in (
        ["oracle", p, q, "--norm", norm, "--k", str(k)] + [f"--radius={r}" for r in radii],
        score_argv,
        ["eval", scores, f"--in-rate={in_rate}"],
        ["shift", "--clean", str(fit_data), "--poisoned", str(queries), f"--p={p_acc}",
         f"--q={q_acc}", f"--sigma={','.join(sigmas)}", f"--simulate={simulate}", f"--seed={seed}",
         "--norm", norm, "--k", str(k)],
    ):
        code, out, err = _main_with_warnings_as_errors(argv)
        assert code in (0, 2, 3, 4), (argv[0], code, err)
        assert err == "" or (err.count("\n") == 1 and err.startswith("error: ")), (argv[0], err)
        if code == 0:  # every JSON output is valid JSON: no NaN or Infinity
            text = summary.read_text() if argv[0] == "score" else out
            json.loads(text, parse_constant=_refuse_constant)


@pytest.mark.parametrize("k", ["0", "-3", str(MAX_K + 1), "1000000000"])
@pytest.mark.parametrize("command", ["bound", "fit", "shift", "oracle", "score"])
def test_k_outside_range_exit_2_before_any_work(tmp_path, command, k):
    data = tmp_path / "data.csv"
    write_csv(data, _FIT_ROWS)
    model = tmp_path / "model.json"
    assert main(["fit", str(data), "--out", str(model)]) == 0
    flag = "--k2" if command == "score" else "--k"
    argv = {
        "bound": ["bound", str(data), str(data)],
        "fit": ["fit", str(data), "--out", str(tmp_path / "new.json")],
        "shift": ["shift", "--clean", str(data), "--poisoned", str(data), "--p", "0.9"],
        "oracle": ["oracle", str(tmp_path / "missing.json"), str(tmp_path / "missing.json")],
        "score": ["score", str(model), str(data), "--iterative", "--fit-data", str(data)],
    }[command]
    code, out, err = _main_with_warnings_as_errors(argv + [flag, k])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be between 1 and {MAX_K}, got {k}\n"
    assert not (tmp_path / "new.json").exists()


def _refuse_constant(name):
    raise AssertionError(f"JSON output holds {name}")


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_bound_and_shift_on_binary_files_equal_in_process_runs_on_the_arrays(
    tmp_path, capsys, monkeypatch, rng, norm
):
    # blocks of two rows: the files are read in many blocks
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 11)
    a = rng.normal(size=(301, 5)) * 10.0 ** rng.integers(-3, 3, size=(301, 1))
    b = 0.3 + rng.normal(size=(203, 5))
    pa, pb = tmp_path / "a.ovlb", tmp_path / "b.ovlb"
    write_samples_binary(pa, a)
    write_samples_binary(pb, b)
    sa, sb = SampleSet(a, core.NormKind(norm)), SampleSet(b, core.NormKind(norm))
    conditions = pooled_radius_family(sa, sb, 9).indicators()

    doc = compute_bound(sa, sb, conditions).to_dict()
    doc.update(norm=norm, k=9)
    code, out, _ = run_cli(capsys, "bound", str(pa), str(pb), "--k", "9", "--norm", norm)
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"

    sigmas = [0.0, 0.25, 1.0]
    rule = fixed_accuracy_rule(sa, sb, 0.9, 0.1, seed=4)
    doc = {
        "sigma": sigmas,
        "ceiling": [c for _, c in sweep_sigma(sa, sb, 0.9, sigmas, conditions, q=0.1)],
        "norm": norm, "k": 9, "p": 0.9, "q": 0.1,
        "measured": [simulate_accuracy(sa, sb, s, rule, 500, seed=4) for s in sigmas],
        "n_simulated": 500, "seed": 4,
    }
    code, out, _ = run_cli(capsys, "shift", "--clean", str(pa), "--poisoned", str(pb), "--p", "0.9",
                           "--q", "0.1", "--sigma", "0,0.25,1", "--simulate", "500", "--seed", "4",
                           "--k", "9", "--norm", norm)
    assert code == 0 and out == json.dumps(doc, indent=2) + "\n"


# Runs ``python -m overlapbound`` with the given arguments, or only imports
# overlapbound.cli when there are none, then prints its own peak resident set
# (VmHWM, in kB). A child's RUSAGE_CHILDREN peak would start at its parent's.
_PEAK_CHILD = """
import runpy, sys
if len(sys.argv) > 1:
    sys.argv[0] = "overlapbound"
    try:
        runpy.run_module("overlapbound", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import overlapbound.cli
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _child_peak_mb(*argv) -> float:
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *map(str, argv)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux /proc")
def test_fit_and_bound_on_binary_files_hold_only_statistics(tmp_path):
    # each 1e5 x 32 file is 25.6 MB; a child that held one would peak that much higher
    rng = np.random.default_rng(11)
    pa, pb, model = tmp_path / "a.ovlb", tmp_path / "b.ovlb", tmp_path / "model.json"
    for path in (pa, pb):
        write_samples_binary(path, rng.standard_normal((100_000, 32)))
    base = _child_peak_mb()
    fit_peak = _child_peak_mb("fit", pa, "--out", model)
    bound_peak = _child_peak_mb("bound", pa, pb, "--out", tmp_path / "bound.json")
    assert fit_peak - base <= 20, (base, fit_peak)
    assert bound_peak - base <= 20, (base, bound_peak)


_ARGV_WORDS = ["bound", "fit", "score", "classify", "shift", "eval", "oracle", "--k", "--k2",
               "--norm", "--out", "--p", "--q", "--seed", "--sigma", "--simulate", "--threshold",
               "--iterative", "--fit-data", "--scores-out", "--labels", "--in-rate", "--radius",
               "--clean", "--poisoned", "--bogus", "-h", "--help", "--k=abc", "--p=x", "abc", "1",
               "3", "-1", "0.5", "1.5", "nan", "", "l2", "l3"]


@given(st.lists(st.sampled_from(_ARGV_WORDS + ["DATA", "MODEL", "DIST", "SCORES", "MISSING"]),
                max_size=8),
       st.sampled_from(["bound", "fit", "score", "classify", "shift", "eval", "oracle", None]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_argv_exits_0_2_3_or_4_with_at_most_one_error_line(tmp_path_factory, words, command):
    folder = tmp_path_factory.getbasetemp() / "fuzz-argv"
    folder.mkdir(exist_ok=True)
    files = {"DATA": folder / "data.csv", "MODEL": folder / "model.json",
             "DIST": folder / "dist.json", "SCORES": folder / "scores.csv",
             "MISSING": folder / "missing.csv"}
    write_csv(files["DATA"], _FIT_ROWS)  # rewritten each time: --out may name any file
    files["MODEL"].write_text(fit(_FIT_ROWS, k=3).to_json_text())
    files["DIST"].write_text('{"dimension": 2, "points": [[0, 1], [2, 0]], "masses": [0.5, 0.5]}')
    files["SCORES"].write_text("score,label\n0.9,1\n0.2,0\n")
    files["MISSING"].unlink(missing_ok=True)
    argv = [str(files.get(w, w)) for w in ([command] if command else []) + words]
    out, err = io.StringIO(), io.StringIO()
    # in the folder, so that an --out or --scores-out word such as "nan" is written
    # there; os.chdir, as contextlib.chdir is new in Python 3.11
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # only --help exits: it prints its text and exits 0
                code = exc.code if {"-h", "--help"} & set(argv) else ("SystemExit", exc.code)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    text = err.getvalue()
    assert text == "" or (text.count("\n") == 1 and text.startswith("error: ")), (argv, text)


def _subcommand_actions() -> dict:
    """Per subcommand, its positional and optional argparse actions, read from
    the parser itself so that a new flag is fuzzed without editing the test."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: ([a for a in p._actions if not a.option_strings],
                   [a for a in p._actions if a.option_strings and a.dest != "help"])
            for name, p in sub.choices.items()}


_ACTIONS = _subcommand_actions()


def _often(common, rare, odds: int = 7):
    """``common`` ``odds`` times in ``odds + 1``, else ``rare``."""
    return st.sampled_from([False] * odds + [True]).flatmap(lambda r: rare if r else common)


_SAMPLE_FILES = _mostly(st.sampled_from(["DATA", "OVLB", "QUERIES"]),
                        st.sampled_from(["MISSING", "FOLDER", "GARBAGE", "MODEL"]))
_INTS = _mostly(st.integers(1, 64).map(str),
                st.sampled_from(["0", "-1", str(MAX_K + 1), str(2**70), "1.5", "abc", "", "1e3"]))
_FLOATS = _mostly(st.floats(0.0, 1.0).map(repr),
                  st.sampled_from(["nan", "inf", "-inf", "1e999", "-0.5", "x", "", "0x1p-2"]))
_POSITIONALS = {  # by dest; sample files otherwise
    "model": _mostly(st.just("MODEL"), st.sampled_from(["DIST", "DATA", "MISSING", "GARBAGE"])),
    "p": _mostly(st.just("DIST"), st.sampled_from(["MODEL", "MISSING", "GARBAGE"])),
    "q": _mostly(st.just("DIST2"), st.sampled_from(["DIST", "MISSING"])),
    "scores": _mostly(st.just("SCORES"), st.sampled_from(["DATA", "MISSING", "GARBAGE"])),
}
_VALUES = {  # flag values by dest, then by type; sample files otherwise
    "norm": _mostly(st.sampled_from(["l1", "l2", "linf"]), st.sampled_from([" L2 ", "l3", ""])),
    "sigma": st.lists(_FLOATS, min_size=1, max_size=4).map(",".join),
    "radius": _FLOATS,
    "labels": _mostly(st.just("LABELS"), st.sampled_from(["SCORES", "MISSING"])),
    "fit_data": _mostly(st.just("DATA"), _SAMPLE_FILES),
    "out": _mostly(st.just("OUT"), st.sampled_from(["FOLDER", "MISSING_DIR"])),
    "scores_out": _mostly(st.just("OUT_CSV"), st.just("FOLDER")),
    int: _INTS,
    float: _FLOATS,
}


@st.composite
def command_argvs(draw) -> list[str]:
    """An argv for one of the seven subcommands: its positionals (sometimes
    too few or too many), its required flags (mostly) and any of the others,
    each as ``--flag value``, ``--flag=value``, a bare ``--flag`` or twice,
    sometimes in another order or with an unknown word."""
    command = draw(st.sampled_from(sorted(_ACTIONS)))
    positionals, optionals = _ACTIONS[command]
    count = draw(_often(st.just(len(positionals)), st.integers(0, len(positionals) + 1)))
    groups = [[draw(_POSITIONALS.get(a.dest, _SAMPLE_FILES))] for a in positionals]
    groups = (groups + [[draw(_SAMPLE_FILES)]])[:count]
    for action in optionals:
        if not draw(_often(st.just(True), st.just(False)) if action.required else st.booleans()):
            continue
        flag = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:  # a switch
            groups.append([flag])
            continue
        value = draw(_VALUES.get(action.dest, _VALUES.get(action.type, _SAMPLE_FILES)))
        groups.append(draw(_often(st.sampled_from([[flag, value], [f"{flag}={value}"]]),
                                  st.sampled_from([[flag], [flag, value, flag, value]]))))
    groups += draw(_often(st.just([]), st.sampled_from([[["--bogus"]], [["-x"]], [["--k2=3"]],
                                                        [["extra"]]]), odds=15))
    groups = draw(_often(st.just(groups), st.permutations(groups), odds=3))
    return [command] + [word for group in groups for word in group]


@given(command_argvs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_flag_combination_exits_0_2_3_or_4_with_at_most_one_error_line(tmp_path_factory, argv):
    folder = tmp_path_factory.getbasetemp() / "fuzz-commands"
    folder.mkdir(exist_ok=True)
    files = {name: folder / file for name, file in (
        ("DATA", "data.csv"), ("OVLB", "data.ovlb"), ("QUERIES", "queries.csv"),
        ("MODEL", "model.json"), ("DIST", "p.json"), ("DIST2", "q.json"),
        ("SCORES", "scores.csv"), ("LABELS", "labels.csv"), ("GARBAGE", "garbage.bin"),
        ("OUT", "out.json"), ("OUT_CSV", "out.csv"), ("FOLDER", "folder"),
        ("MISSING", "missing.csv"), ("MISSING_DIR", "no-such-folder/out.json"))}
    # rewritten each time: --out may name any of them
    write_csv(files["DATA"], _FIT_ROWS)
    write_samples_binary(files["OVLB"], np.array(_FIT_ROWS) * 2.0)
    write_csv(files["QUERIES"], [[1.0, 1.0], [0.0, 0.0], [9.0, -4.0]])
    files["MODEL"].write_text(fit(_FIT_ROWS, k=3).to_json_text())
    files["DIST"].write_text('{"dimension": 2, "points": [[0, 1], [2, 0]], "masses": [0.5, 0.5]}')
    files["DIST2"].write_text('{"dimension": 2, "points": [[0, 1], [1, 1]], "masses": [0.25, 0.75]}')
    files["SCORES"].write_text("score,label\n0.9,1\n0.2,0\n0.4,1\n")
    files["LABELS"].write_text("1\n0\n1\n")
    files["GARBAGE"].write_bytes(b"\x00\xffOVLB{[")
    files["FOLDER"].mkdir(exist_ok=True)
    files["MISSING"].unlink(missing_ok=True)
    argv = [str(files[w]) if w in files else w for w in argv]
    argv = [f"{w.split('=')[0]}={files[w.split('=')[1]]}" if w.split("=")[-1] in files else w
            for w in argv]  # --flag=NAME
    cwd = os.getcwd()
    os.chdir(folder)  # a bare --out takes the next word as a path
    try:
        code, _, err = _main_with_warnings_as_errors(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert err == "" or (err.count("\n") == 1 and err.startswith("error: ")), (argv, err)
