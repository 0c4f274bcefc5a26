import io
import itertools
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapbound import InputError, NormKind, RadiusIndicator, SampleSet, compute_bound, core, dataio, fit
from overlapbound.cli import main
from overlapbound.core import _require_finite
from overlapbound.dataio import (
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
_NOT_A_NUMBER = st.sampled_from(["", "x", "oops", "1.0.0", "0x10", "1 2", "\ufeff1", "1#x"])


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


# 5000 x 32 normal values written as their shortest round-trip text
_SHORTEST_REPR_CSV = "".join(
    ",".join(map(repr, row)) + "\n"
    for row in np.random.default_rng(23).standard_normal((5000, 32)).tolist()
).encode()


@given(_csv_bytes())
@example(content=b"")  # an empty file
@example(content=b"\xef\xbb")  # part of a byte-order mark, and nothing after it
@example(content=b"\xef\xbb\xbfx, y\r\n\n")  # only a header: numpy would warn of no data
@example(content=b"1,2#x\n3,4\n")  # not a comment: numpy's default would drop "#x"
@example(content=b"x,y\n1,2\n3,4\n")  # a header, then data
@example(content="\xa01\x1f,\x1f2\xa0\n\x1f3,4\xa0\n".encode())  # padding float() strips
@example(content=b"1_0,2\n3,4\n")  # float() reads 1_0 and numpy does not
@example(content=b"1,2,\n3,4,\n")  # a trailing comma: an empty last cell
@example(content=_SHORTEST_REPR_CSV)
@settings(deadline=None)
def test_csv_rows_equal_those_of_the_per_cell_parser(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(content)
    assert _parse_outcome(read_sample_array, path) == _parse_outcome(per_cell_csv_rows, path)


@given(_csv_bytes(), st.integers(1, 12))
@example(content=b"\xef\xbb", block_elements=1)
@example(content="1,\u00e9\r\n2,3\r\n".encode(), block_elements=1)  # CRLF and U+00E9 across reads
@example(content=b"\xef\xbb\xbf1,2\n" * 3 + b"x,3\n", block_elements=1)
@settings(deadline=None)
def test_csv_rows_read_in_small_blocks_equal_those_of_the_per_cell_parser(
    tmp_path_factory, content, block_elements
):
    # reads of 8 bytes up: line ends, characters and byte-order marks are
    # split between reads, and blocks hold a line or a few
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_ELEMENTS", block_elements)
        got = _parse_outcome(read_sample_array, path)
    assert got == _parse_outcome(per_cell_csv_rows, path)


def test_a_bad_byte_beyond_the_first_read_is_reported_at_its_place_in_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 2)  # reads of 16 bytes
    path = tmp_path / "data.csv"
    for content in (b"1,2\n" * 20 + b"3,\xff\n", b"1,x\n" + b"1,2\n" * 20 + b"\xff\n",
                    b"\xef\xbb\xbf" + b"1,2\n" * 20 + b"\xe2\x82"):
        path.write_bytes(content)
        want = _parse_outcome(per_cell_csv_rows, path)
        assert want.startswith(f"{path}: cannot read file: 'utf-8' codec can't decode")
        for reader in (read_sample_array, read_samples):
            assert _parse_outcome(reader, path) == want


@pytest.mark.parametrize("content", [
    b"1.0,2.0\n3.5,-4.0\n",
    b"x,y\r\n1,2\r\n\r\n3,4",
    b"\xef\xbb\xbfscore,label\n0.5,1\n-0.0,0\n",
    " 1 ,\t2\xa0\n\x1f3,4\x1f\n".encode(),
    b"nan,+inf\n1e400,-1e-400\n",
    _SHORTEST_REPR_CSV,
])
def test_a_well_formed_csv_never_reaches_the_per_cell_parser(tmp_path, monkeypatch, content):
    entries = []
    per_cell = dataio._parse_csv_cells
    monkeypatch.setattr(dataio, "_parse_csv_cells", lambda *a: entries.append(a) or per_cell(*a))
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    assert _parse_outcome(read_sample_array, path) == _parse_outcome(per_cell_csv_rows, path)
    assert entries == []
    path.write_bytes(b"1_0\n2\n")  # read only by float(), so the per-cell parser is reached
    assert read_sample_array(path).tolist() == [[10.0], [2.0]]
    assert len(entries) == 1


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


@pytest.mark.parametrize("name, content, message", [
    ("t.ovlb", b"OVLB", "truncated binary header"),
    ("v2.ovlb", struct.pack("<4sIQQd", b"OVLB", 2, 1, 1, 1.0), "unsupported binary version 2"),
    # a CSV file that starts with the magic is read as OVLB, as README says
    ("magic.csv", b"OVLB,x\n1,2\n", "truncated binary header"),
])
def test_binary_header_errors_name_the_file(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    for read in (read_samples, read_sample_array):
        with pytest.raises(InputError) as err:
            read(path)
        assert str(err.value) == f"{path}: {message}"
    assert main(["fit", str(path), "--out", str(tmp_path / "model.json")]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert not (tmp_path / "model.json").exists()


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


def test_reading_and_checking_an_ovlb_file_makes_no_temporary(tmp_path, rng, capsys):
    # the whole-array read that score --iterative makes of its --fit-data
    # file, and a finiteness check
    path = tmp_path / "data.ovlb"
    a = rng.normal(size=(20000, 32))
    write_samples_binary(path, a)
    tracemalloc.start()
    try:
        got = read_sample_array(path)
        _require_finite(got)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == a.tobytes()
    assert peak <= 1.01 * a.nbytes, peak / a.nbytes
    model, queries = tmp_path / "model.json", tmp_path / "queries.ovlb"
    fit(a).save(model)
    write_samples_binary(queries, a[:5])
    a[123, 4] = np.nan
    write_samples_binary(path, a)
    assert main(["score", str(model), str(queries), "--iterative", "--fit-data", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: non-finite sample values\n"


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
    if isinstance(whole, str):  # the file's error names the file
        whole = f"{path}: {whole}"
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
    for path in (binary, text):
        with pytest.raises(InputError) as caught:
            read_samples(path, norm)
        assert str(caught.value) == f"{path}: {message}"
    for build in (lambda a: SampleSet(a, norm), lambda a: fit(a, norm=norm)):
        with pytest.raises(InputError) as caught:
            build(np.array(rows))
        assert str(caught.value) == message


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


def _csv_text(a) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in a.tolist())


def test_one_source_walked_twice_gives_the_same_blocks(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 16)  # many blocks and reads
    a = rng.normal(size=(50, 3))
    binary, text = tmp_path / "data.ovlb", tmp_path / "data.csv"
    write_samples_binary(binary, a)
    text.write_text("x,y,z\n" + _csv_text(a))

    def walk_twice(blocks, n):
        return [[block.tobytes() for block in blocks()] for _ in range(2)]

    for path in (binary, text):
        first, second = dataio._read_file(path, walk_twice)
        assert first == second and b"".join(first) == a.tobytes()


@pytest.mark.parametrize("d", [2, 128])
def test_statistics_of_a_csv_file_add_at_most_16_bytes_of_peak_per_row(tmp_path, d):
    # shortest-repr rows, more than one read even at 2e4 rows; they are read a
    # block at a time, so only the norms grow with n: one n-vector of block
    # parts and the n-vector they are joined into
    lines = _csv_text(np.random.default_rng(7).normal(size=(1000, d)))
    peaks = {}
    for n in (20_000, 80_000):
        path = tmp_path / f"{n}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([lines] * (n // 1000))
        peaks[n] = _traced_peak(lambda: read_samples(path))
        path.unlink()
    per_row = (peaks[80_000] - peaks[20_000]) / 60_000
    assert per_row <= 16, per_row


def test_a_non_finite_value_is_reported_before_a_parse_error_in_a_later_block(tmp_path, monkeypatch):
    # read_samples takes each block's statistics before it parses the next
    # block, so the first faulty block gives the error; a whole-array read
    # parses every block before any value is checked
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 4)  # reads of 32 bytes
    path = tmp_path / "data.csv"
    path.write_text("1,nan\n" + "1,2\n" * 20 + "3,x\n")
    with pytest.raises(InputError, match=r"data.csv: non-finite sample values$"):
        read_samples(path)
    with pytest.raises(InputError, match=r"data.csv:22:2: not a number: 'x'$"):
        read_sample_array(path)


@pytest.mark.parametrize("end", ["\x85", "\u2028", "\r"])
def test_a_csv_file_without_lf_adds_at_most_16_bytes_of_peak_per_row(tmp_path, end):
    # a read is cut after its last line break of any kind, so a file whose
    # only breaks are NEL, LS or a lone CR is read a block at a time too.
    # Both sizes take several full reads: at 2e4 rows an LS file (2-byte
    # characters once decoded) peaks in its first read, before the walk's
    # block scratch exists, and the difference would count that scratch
    lines = _csv_text(np.random.default_rng(7).normal(size=(1000, 2))).replace("\n", end)
    peaks = {}
    for n in (40_000, 80_000):
        path = tmp_path / f"{n}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([lines] * (n // 1000))
        peaks[n] = _traced_peak(lambda: read_samples(path))
        path.unlink()
    per_row = (peaks[80_000] - peaks[40_000]) / 40_000
    assert per_row <= 16, per_row


@pytest.mark.parametrize("content, want", [
    # the second read starts with U+FEFF, a bad cell and not a byte-order mark
    (b"1,2\n" * 2 + b"\xef\xbb\xbf3,4\n", r"data.csv:3:1: not a number: '\\ufeff3'$"),
    # the first read ends in the CR of a CRLF pair, which is one line break
    (b"1,2,3,4\r\nx,2,3,4\r\n", r"data.csv:2:1: not a number: 'x'$"),
], ids=["mark", "crlf"])
def test_what_starts_or_ends_a_read_is_read_as_in_the_whole_file(tmp_path, monkeypatch, content, want):
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 1)  # reads of 8 bytes
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    for reader in (read_sample_array, read_samples, per_cell_csv_rows):
        with pytest.raises(InputError, match=want):
            reader(path)


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "mark"])
@pytest.mark.parametrize("tail", [b"3,\xff\n4,5\n", b"3,\xe2\x82\n4,5\n", b"3,4\n\xf0\x9f\x98"],
                         ids=["one-byte", "two-bytes", "cut-at-the-end"])
def test_a_bad_byte_several_reads_in_is_placed_as_in_a_whole_file_decode(tmp_path, monkeypatch,
                                                                         mark, tail):
    # positions count from after a leading mark, as utf-8-sig counts them
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 2)  # reads of 16 bytes
    path = tmp_path / "data.csv"
    path.write_bytes(content := mark + b"1.5,2\n" * 20 + tail)
    with pytest.raises(UnicodeDecodeError) as whole:
        content.decode("utf-8-sig")
    for reader in (read_sample_array, read_samples):
        with pytest.raises(InputError) as got:
            reader(path)
        assert str(got.value) == f"{path}: cannot read file: {whole.value}"


@pytest.mark.parametrize("reader", [read_samples, read_sample_array])
def test_a_bad_byte_on_the_last_line_adds_no_peak(tmp_path, reader):
    # the bad byte is placed from the bytes decoded before its read: the file
    # (2.5 MB) is not read or decoded whole again. The interpreter's own
    # bookkeeping differs by some bytes from one call to the next, hence 4 KB
    text = _csv_text(np.random.default_rng(11).normal(size=(4000, 32))).encode()
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_bytes(text[:-1] + b" \n")  # the same length, with a blank in place of the bad byte
    bad.write_bytes(text[:-1] + b"\xff\n")
    errors = []

    def read(path):
        try:
            reader(path)
        except InputError as exc:
            errors.append(str(exc))

    read(good)  # first calls make caches that would count against the file read first
    peak = _traced_peak(lambda: read(bad))
    assert peak <= _traced_peak(lambda: read(good)) + 4096, peak
    assert len(errors) == 1 and "can't decode byte 0xff in position" in errors[0]


def test_a_line_longer_than_a_read_is_searched_for_its_break_once(tmp_path, monkeypatch):
    # a search for a read's last line break covers that read and at most 2
    # carried bytes, so a line is not scanned again on each read it spans
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 64)  # reads of 512 bytes or more
    a = np.random.default_rng(5).normal(size=(3, 2000))  # lines of about 40 KB
    path = tmp_path / "long.csv"
    path.write_text(_csv_text(a))
    reads, searches, last_break = [], [], dataio._last_break

    class Reader(io.BufferedReader):
        def read(self, size=-1):
            reads.append(len(data := super().read(size)))
            return data

    def search(piece, start):
        searches.append((len(piece) - start, reads[-1]))
        return last_break(piece, start)

    monkeypatch.setattr(dataio, "open", lambda file, mode: Reader(io.FileIO(file)), raising=False)
    monkeypatch.setattr(dataio, "_last_break", search)
    assert read_sample_array(path).tobytes() == a.tobytes()
    assert len(searches) > 10 and all(span <= read + 2 for span, read in searches), searches


@pytest.mark.parametrize("tail", [b"3,\xff\n", b"3,\xe2\x82\n", b"\xc3\xa9\n3,\x80\n", b"3,4\n\xf0\x9f\x98"],
                         ids=["one-byte", "two-bytes", "after-a-good-one", "cut-at-the-end"])
def test_a_bad_byte_in_a_later_part_of_a_read_is_placed_as_in_a_whole_file_decode(tmp_path, monkeypatch,
                                                                                  tail):
    # a read that is not ASCII is decoded first in parts ending after an LF,
    # so that the error copies one part; reads of 32 bytes, parts of 4 or
    # more, and the bad byte in the read's last part or in one before it
    monkeypatch.setattr(core, "_BLOCK_ELEMENTS", 4)
    path = tmp_path / "data.csv"
    leads = (b"\xef\xbb\xbf", b"\xc3\xa9,", b"")
    for lead, before, after in itertools.product(leads, (1, 7, 20), (0, 20)):
        path.write_bytes(content := lead + b"1.5,2\n" * before + tail + b"1.5,2\n" * after)
        with pytest.raises(UnicodeDecodeError) as whole:
            content.decode("utf-8-sig")
        for reader in (read_sample_array, read_samples):
            with pytest.raises(InputError) as got:
                reader(path)
            assert str(got.value) == f"{path}: cannot read file: {whole.value}"
