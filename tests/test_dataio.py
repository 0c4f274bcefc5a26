import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapbound import InputError, NormKind, RadiusIndicator, SampleSet, compute_bound, core, fit
from overlapbound.dataio import (
    _parse_csv_rows,
    _read_finite_samples,
    read_sample_array,
    read_samples,
    read_scores_and_labels,
    write_samples_binary,
)
from conftest import ALL_NORMS, full_range_arrays, laid_out_samples
from oracles import per_cell_csv_rows


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


def test_csv_skips_one_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"x,y\n1,2\n3,4\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_sample_array(marked).tobytes() == read_sample_array(plain).tobytes()
    assert read_sample_array(marked).shape == (2, 2)
    twice = tmp_path / "twice.csv"  # only the first mark is skipped
    twice.write_bytes(b"\xef\xbb\xbf" * 2 + b"1,2\n")
    with pytest.raises(InputError, match=r"twice.csv:1:1: not a number: '\\ufeff1'"):
        read_sample_array(twice)


@pytest.mark.parametrize("content", [b"\xef", b"\xef\xbb", b"1\n\xff\n"])
def test_csv_that_is_not_utf_8_cannot_be_read(tmp_path, content):
    # a file holding only part of a byte-order mark is not UTF-8 either
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match="bad.csv: cannot read file: 'utf-8' codec can't decode"):
        read_sample_array(path)


# CSV text for the parser property: a byte-order mark (whole, partial or
# none), a header, blank and whitespace-only lines, numeric, empty and bad
# cells padded with whitespace that float() accepts or refuses (U+001F),
# ragged rows, CR, LF and CRLF endings and, at times, the other line breaks
# of str.splitlines. Half the files hold no bad cell and half no ragged row,
# so that most of them parse.
_PAD = st.text(st.sampled_from(" \t\x1f\xa0\u2000\u3000"), max_size=2)
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e400", "-0", "nan", "+inf", "1_0", "\u0661\u0662"]),
)
_NOT_A_NUMBER = st.sampled_from(["", "x", "oops", "1.0.0", "0x10", "1 2", "\ufeff1"])


@st.composite
def _csv_bytes(draw) -> bytes:
    width = draw(st.integers(1, 4))
    cell = st.one_of(_NUMBER, _NUMBER, _NOT_A_NUMBER) if draw(st.booleans()) else _NUMBER
    padded = st.tuples(_PAD, cell, _PAD).map("".join)
    widths = st.integers(1, 5) if draw(st.booleans()) else st.just(width)
    row = widths.flatmap(lambda w: st.lists(padded, min_size=w, max_size=w)).map(",".join)
    line = st.one_of(row, row, row, st.sampled_from(["", " ", "\t", "\x1f", "\xa0"]))
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        lines.insert(0, ",".join(draw(st.lists(st.sampled_from(["x", "y", "name", "", " a "]),
                                              min_size=1, max_size=5))))
    endings = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"] * 3 + list("\x0b\x1c\x85\u2028")),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[:-len(endings[-1])]  # no final line break
    mark = draw(st.sampled_from([b""] * 6 + [b"\xef\xbb\xbf", b"\xef\xbb", b"\xff"]))
    return mark + text.encode("utf-8")


def _parse_outcome(parse, path):
    """The shape and bytes of a parsed array, or the InputError text."""
    try:
        a = parse(path)
    except InputError as exc:
        return str(exc)
    return a.shape, a.dtype.str, a.tobytes()


@given(_csv_bytes())
@example(content=b"")  # an empty file
@example(content=b"\xef\xbb\xbfx, y\r\n\n")  # only a header
@settings(deadline=None)
def test_csv_rows_equal_those_of_the_per_cell_parser(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(content)
    assert _parse_outcome(_parse_csv_rows, path) == _parse_outcome(per_cell_csv_rows, path)


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


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_WRITER_INPUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "strided": lambda a: np.repeat(np.repeat(a, 2, axis=0), 3, axis=1)[::2, ::3],
    ">f8": lambda a: a.astype(">f8"),
    "integer": lambda a: np.rint(a * 1e3).astype(np.int64),
}


@pytest.mark.parametrize("block_elements", [1, 7, 1 << 16])
@pytest.mark.parametrize("layout", sorted(_WRITER_INPUTS))
def test_binary_write_is_bitwise_for_any_layout(tmp_path, rng, monkeypatch, layout, block_elements):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", block_elements)
    values = rng.normal(size=(301, 5))
    if layout != "integer":
        values *= 10.0 ** rng.integers(-300, 300, size=(301, 1))
    a = _WRITER_INPUTS[layout](values)
    path = tmp_path / "data.ovlb"
    write_samples_binary(path, a)
    want = np.asarray(a, dtype=np.float64)
    header = struct.pack("<4sIQQ", b"OVLB", 1, 301, 5)
    assert path.read_bytes() == header + want.astype("<f8").tobytes()
    assert read_sample_array(path).tobytes() == want.tobytes()


def test_writing_a_float64_array_makes_no_copy(tmp_path, rng):
    a = rng.normal(size=(20000, 32))
    path = tmp_path / "data.ovlb"
    peak = _traced_peak(lambda: write_samples_binary(path, a))
    assert peak <= 0.01 * a.nbytes, peak / a.nbytes
    f_order = np.asfortranarray(a)
    peak = _traced_peak(lambda: write_samples_binary(path, f_order))
    assert peak <= 1.1 * 8 * core._BLOCK_ELEMENTS, peak  # one converted block
    assert read_sample_array(path).tobytes() == a.tobytes()


def test_a_value_that_is_not_a_number_leaves_no_file(tmp_path):
    path = tmp_path / "data.ovlb"
    with pytest.raises(ValueError):
        write_samples_binary(path, [["1.5", "x"]])
    assert not path.exists()


@given(laid_out_samples(), st.sampled_from(ALL_NORMS), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_statistics_read_in_blocks_equal_those_of_the_whole_array_bitwise(
    tmp_path_factory, a, kind, block_elements
):
    # a few values per block: reads split the rows between many blocks, and a
    # block of one row holds more values than the block size when d exceeds it
    path = tmp_path_factory.getbasetemp() / "blocks.ovlb"
    write_samples_binary(path, a)
    whole = SampleSet(a, kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ELEMENTS", block_elements)
        got = read_samples(path, kind)
    assert got.norm is kind
    assert (len(got), got.dimension) == (len(whole), whole.dimension)
    for name in ("sorted_norms", "mean"):
        assert getattr(got, name).tobytes() == getattr(whole, name).tobytes(), name
    assert got.max_norm == whole.max_norm


@given(full_range_arrays(), st.sampled_from(ALL_NORMS), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_statistics_of_full_range_data_read_in_blocks_equal_those_of_the_whole_array(
    tmp_path_factory, a, kind, block_elements
):
    # the file's sums are exact throughout, the array's certified where they
    # can be: both give the same bits, or the same error
    path = tmp_path_factory.getbasetemp() / "full-range.ovlb"
    write_samples_binary(path, a)

    def statistics(build):
        try:
            got = build()
        except InputError as exc:
            return str(exc)
        return [getattr(got, name).tobytes() for name in ("sorted_norms", "mean")]

    whole = statistics(lambda: SampleSet(a, kind))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ELEMENTS", block_elements)
        assert statistics(lambda: read_samples(path, kind)) == whole


@pytest.mark.parametrize(
    "rows, norm, message",
    [
        ([[1.0, 2.0]] * 9 + [[np.nan, 1.0]], NormKind.L2, "non-finite sample values"),
        ([[1.0, 2.0]] * 9 + [[1.0, np.inf]], NormKind.LINF, "non-finite sample values"),
        ([[1.0, 2.0]] * 9 + [[1e200, 1.0]], NormKind.L2, "sample l2 norms overflow float64"),
        ([[1e308, 1.0]] * 2, NormKind.L1, "the sum of column 0 overflows float64"),
        ([[1e308, 1e308]] * 2, NormKind.L1, "sample l1 norms overflow float64"),
        ([[1.0, 2.0]] * 9 + [[1.5e308, 0.0]] * 2, NormKind.LINF, "the sum of column 0 overflows float64"),
        # the last block's fault is reported before those of the first blocks
        ([[1e308, 0.0]] * 2 + [[1.0, 2.0]] * 9 + [[np.nan, 1.0]], NormKind.L2, "non-finite sample values"),
        ([[1.5e308, 0.0]] * 2 + [[1.0, 2.0]] * 9 + [[1e308, 1e308]], NormKind.L1,
         "sample l1 norms overflow float64"),
    ],
)
def test_a_bad_value_in_any_block_is_the_same_error_as_in_csv(tmp_path, monkeypatch, rows, norm,
                                                              message):
    # blocks of two rows; the files and the array share one statistics walk
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 4)
    binary, text = tmp_path / "data.ovlb", tmp_path / "data.csv"
    write_samples_binary(binary, np.array(rows))
    text.write_text("\n".join(",".join(map(repr, row)) for row in rows) + "\n")
    non_finite = message.startswith("non-finite")
    for path in (binary, text):
        with pytest.raises(InputError) as caught:
            read_samples(path, norm)
        assert str(caught.value) == (f"{path}: {message}" if non_finite else message)
    for build in (lambda a: SampleSet(a, norm), lambda a: fit(a, norm=norm)):
        with pytest.raises(InputError) as caught:
            build(np.array(rows))
        assert str(caught.value) == ("sample array has non-finite entries" if non_finite else message)


def test_statistics_hold_one_n_vector_beyond_block_scratch(tmp_path, monkeypatch):
    # fit on an array and read_samples on an OVLB file keep the sorted norms,
    # one n-vector, and scratch of a few blocks; two n-vectors would not fit
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1 << 12)
    n = 100_000
    a = np.random.default_rng(3).standard_normal((n, 4))
    path = tmp_path / "data.ovlb"
    write_samples_binary(path, a)
    for build in (lambda: fit(a, k=50), lambda: read_samples(path)):
        peak = _traced_peak(build)
        assert peak <= 8 * n + 8 * 8 * core._BLOCK_ELEMENTS, peak / (8 * n)


def test_a_payload_longer_than_its_header_is_refused(tmp_path, rng):
    path = tmp_path / "data.ovlb"
    write_samples_binary(path, rng.normal(size=(10, 3)))
    raw = path.read_bytes()
    header = struct.pack("<4sIQQ", b"OVLB", 1, 3, 3)
    for payload, found in ((raw[24:] + b"xyz", "30 and 3 stray bytes"), (raw[24:24 + 80], "10"),
                           (raw[24:24 + 72] + b"x", "9 and 1 stray bytes")):
        path.write_bytes(header + payload)
        for reader in (read_samples, read_sample_array):
            with pytest.raises(InputError, match=rf"data.ovlb: expected 9 float64 values, found {found}$"):
                reader(path)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
def test_writing_an_array_with_no_values_is_refused_and_leaves_no_file(tmp_path, shape):
    path = tmp_path / "empty.ovlb"
    with pytest.raises(InputError, match=rf"with at least one value, got shape \({shape[0]}, {shape[1]}\)"):
        write_samples_binary(path, np.zeros(shape))
    assert not path.exists()


def test_a_file_that_shrinks_while_read_in_blocks_is_an_input_error(tmp_path, monkeypatch, rng):
    # the size check passes on a stale size, then a read comes up short
    path = tmp_path / "data.ovlb"
    write_samples_binary(path, rng.normal(size=(10, 3)))
    path.write_bytes(path.read_bytes()[:-20])
    real_fstat = os.fstat

    def stale_fstat(fd):
        st = real_fstat(fd)
        return os.stat_result(st[:6] + (st.st_size + 20,) + st[7:])

    monkeypatch.setattr(os, "fstat", stale_fstat)
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 6)
    for reader in (read_samples, read_sample_array):
        with pytest.raises(InputError, match=r"data.ovlb: expected 30 float64 values, found 27$"):
            reader(path)


def test_a_set_read_from_statistics_refuses_what_needs_rows(tmp_path, rng):
    path = tmp_path / "data.ovlb"
    a = rng.normal(size=(50, 3))
    write_samples_binary(path, a)
    got, whole = read_samples(path), SampleSet(a)
    balls = [RadiusIndicator(r) for r in (0.5, 1.0, 2.0)]
    assert compute_bound(got, whole, balls) == compute_bound(whole, whole, balls)
    with pytest.raises(InputError, match="keeps only its statistics"):
        compute_bound(got, whole, [RadiusIndicator(1.0, NormKind.L1)])
    with pytest.raises(InputError, match="keeps only its statistics"):
        core.make_sample_set(got, "l1")
