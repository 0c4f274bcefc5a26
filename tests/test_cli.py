import contextlib
import io
import json
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from overlapbound import SampleSet, fit
from overlapbound.cli import MAX_K, main
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


def test_bound_dimension_mismatch_exit_3(tmp_path, capsys, worked_files):
    pos, _ = worked_files
    wide = tmp_path / "wide.csv"
    write_csv(wide, [[1.0, 2.0]])
    code, _, err = run_cli(capsys, "bound", str(pos), str(wide))
    assert code == 3
    assert "pos.csv" in err and "wide.csv" in err


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
    with pytest.raises(SystemExit):
        main(["classify", str(model), str(train)])


def test_iterative_needs_fit_data(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_csv(train, [[0.2], [1.0]])
    model = tmp_path / "model.json"
    run_cli(capsys, "fit", str(train), "--out", str(model))
    code, _, err = run_cli(capsys, "score", str(model), str(train), "--iterative")
    assert code == 2
    assert "--fit-data" in err


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


def test_iterative_reads_fit_data_without_a_sample_set(tmp_path, capsys, monkeypatch, rng):
    data, model = tmp_path / "fit.csv", tmp_path / "model.json"
    rows = rng.normal(size=(30, 3))
    write_csv(data, rows.tolist())
    run_cli(capsys, "fit", str(data), "--k", "5", "--out", str(model))
    calls = []
    original = SampleSet.__post_init__
    monkeypatch.setattr(SampleSet, "__post_init__", lambda self: calls.append(self) or original(self))
    code, out, _ = run_cli(capsys, "score", str(model), str(data), "--iterative",
                           "--fit-data", str(data))
    assert code == 0 and calls == []
    SampleSet(rows)  # the counter sees a SampleSet that is built
    assert len(calls) == 1


def test_shift_simulate_beyond_memory_exit_2(capsys, worked_files):
    # numpy refuses the 7 PiB request before it touches any memory
    clean, poisoned = worked_files
    code, out, err = run_cli(capsys, "shift", "--clean", str(clean), "--poisoned", str(poisoned),
                             "--p", "0.9", "--simulate", "1000000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


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
