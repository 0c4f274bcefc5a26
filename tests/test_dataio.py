import numpy as np
import pytest

from overlapbound import InputError, NormKind
from overlapbound.dataio import (
    _read_finite_samples,
    read_sample_array,
    read_samples,
    read_scores_and_labels,
    write_samples_binary,
)


def test_csv_plain_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0\n3.5,-4.0\n")
    got = read_sample_array(path)
    assert got.tolist() == [[1.0, 2.0], [3.5, -4.0]]


def test_csv_header_autodetect(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    assert read_sample_array(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_first_row_with_a_number_is_data(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x,1\n2.0,3.0\n")
    with pytest.raises(InputError, match=rf"{path.name}:1:1: not a number: 'x'"):
        read_sample_array(path)


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0\n\n2.0\n")
    assert read_sample_array(path).tolist() == [[1.0], [2.0]]


def test_csv_error_names_file_line_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(InputError, match=rf"{path.name}:2:2: not a number: 'oops'"):
        read_sample_array(path)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError, match="row has 1 columns, expected 2"):
        read_sample_array(path)


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(InputError, match="no data rows"):
        read_sample_array(path)


def test_binary_round_trip(tmp_path, rng):
    data = rng.normal(size=(137, 5))
    path = tmp_path / "data.ovlb"
    write_samples_binary(path, data)
    got = read_sample_array(path)
    assert np.array_equal(got, data)
    ss = read_samples(path, NormKind.L1)
    assert ss.norm is NormKind.L1


def test_binary_truncated_rejected(tmp_path, rng):
    path = tmp_path / "trunc.ovlb"
    write_samples_binary(path, rng.normal(size=(10, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(InputError, match="expected 30 float64 values"):
        read_sample_array(path)


def test_scores_and_labels_two_column(tmp_path):
    path = tmp_path / "scored.csv"
    path.write_text("score,label\n0.9,1\n0.2,0\n")
    scores, labels = read_scores_and_labels(path)
    assert scores.tolist() == [0.9, 0.2]
    assert labels.tolist() == [True, False]


def test_scores_and_labels_two_files(tmp_path):
    s = tmp_path / "s.csv"
    l = tmp_path / "l.csv"
    s.write_text("0.9\n0.2\n0.4\n")
    l.write_text("1\n0\n1\n")
    scores, labels = read_scores_and_labels(s, l)
    assert scores.tolist() == [0.9, 0.2, 0.4]
    assert labels.tolist() == [True, False, True]
    l.write_text("1\n0\n")
    with pytest.raises(InputError, match="rows"):
        read_scores_and_labels(s, l)


def test_reading_and_checking_an_ovlb_file_makes_no_temporary(tmp_path, rng):
    import tracemalloc

    path = tmp_path / "data.ovlb"
    a = rng.normal(size=(20000, 32))
    write_samples_binary(path, a)
    tracemalloc.start()
    try:
        got = _read_finite_samples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == a.tobytes()
    assert peak <= 1.01 * a.nbytes, peak / a.nbytes
    a[123, 4] = np.nan
    write_samples_binary(path, a)
    with pytest.raises(InputError, match="data.ovlb: non-finite sample values"):
        _read_finite_samples(path)
