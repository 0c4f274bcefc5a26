"""Reading and writing sample files: CSV and the packed binary format.

CSV holds one numeric row per sample; a first row with no numeric cell is a header.
The binary format is for large batches: magic ``OVLB``, a uint32 version,
uint64 row and column counts, then row-major little-endian float64 data.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .core import (
    InputError,
    NormKind,
    SampleSet,
    _block_rows,
    _ColumnSums,
    _require_finite,
    _sample_statistics,
    _walk_statistics,
)

BINARY_MAGIC = b"OVLB"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def write_samples_binary(path, samples) -> None:
    """Write a (n, d) array as an OVLB file.

    Blocks of about ``_BLOCK_ELEMENTS`` values are converted to little-endian
    float64 one at a time, so a C-contiguous float64 array goes to the file
    straight from its own memory and any other array needs only block scratch.
    """
    a = np.asarray(samples)
    if a.ndim != 2 or a.size == 0:  # the reader refuses a file with no values
        raise InputError(f"expected a (n, d) array with at least one value, got shape {a.shape}")
    if a.dtype.kind not in "biuf":  # convert up front, so a bad value leaves no file
        a = a.astype(np.float64)
    rows = _block_rows(a.shape[1])
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, a.shape[0], a.shape[1]))
        for lo in range(0, a.shape[0], rows):
            fh.write(np.ascontiguousarray(a[lo:lo + rows], dtype="<f8"))


def _read_samples_binary(path, norm: NormKind | None = None):
    """An OVLB file's (n, d) array or, given a norm, only the statistics a
    SampleSet keeps (``_RowStatistics``).

    Statistics come from blocks of about ``_BLOCK_ELEMENTS`` values read into
    one reused buffer and fed to ``_walk_statistics``, as an in-memory array's
    are, so no more than a block of rows is in memory at a time. The file is
    read once, so its column sums go to the exact ``_ColumnSums``. A payload
    of other than n·d float64 values, or a non-finite value, is an InputError
    naming the file.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise InputError(f"{path}: truncated binary header")
        magic, version, n, d = _HEADER.unpack(head)
        if magic != BINARY_MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}")
        if version != BINARY_VERSION:
            raise InputError(f"{path}: unsupported binary version {version}")
        if n * d == 0:
            raise InputError(f"{path}: no data values ({n} rows, {d} columns)")
        # check the size before reading, so a corrupt header cannot ask numpy
        # for more memory than the file holds, and no data goes unread
        found, stray = divmod(os.fstat(fh.fileno()).st_size - _HEADER.size, 8)
        if (found, stray) != (n * d, 0):
            tail = f" and {stray} stray bytes" if stray and found >= n * d else ""
            raise InputError(f"{path}: expected {n * d} float64 values, found {found}{tail}")
        blocks = _read_blocks(fh, path, n, d, n if norm is None else min(n, _block_rows(d)))
        if norm is None:  # the whole array, read as one block
            return next(blocks)
        return _walk_statistics(blocks, n, norm, _ColumnSums(d), f"{path}: non-finite sample values")


def _read_blocks(fh, path, n: int, d: int, rows: int):
    """Yield the file's n rows of width d, ``rows`` at a time, in one buffer."""
    buffer = np.empty((rows, d), dtype="<f8")
    for lo in range(0, n, rows):
        block = buffer[:n - lo]
        got = fh.readinto(block)
        if got != block.nbytes:  # the file shrank after the size check
            raise InputError(f"{path}: expected {n * d} float64 values, "
                             f"found {(lo * d * 8 + got) // 8}")
        yield block


def read_json(path, what: str):
    """A file's parsed JSON; InputError "cannot read <what> JSON" if that fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise InputError(f"{path}: cannot read {what} JSON: {exc}") from exc


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_csv_rows(path) -> np.ndarray:
    """A CSV file's rows, tried first with numpy's C reader.

    The header rule is applied to the first non-blank line, and the data
    lines go to ``np.loadtxt``. Its result is kept only when it has one row
    per data line and the first line's width; anything else, including a
    cell numpy refuses but ``float`` reads (``1_0``), goes to the per-cell
    parser, which owns the grammar and every error message.
    """
    try:  # decoded whole: a text-mode read takes a file holding part of a byte-order mark as empty
        with open(path, "rb") as fh:
            lines = fh.read().decode("utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    data = [line for line in lines if line.strip()]
    if data:
        first = data[0].split(",")
        if not any(_is_number(c.strip()) for c in first):
            del data[0]  # a header
        if data:  # numpy warns on no data
            try:
                array = np.loadtxt(data, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
            except ValueError:
                pass
            else:
                if array.shape == (len(data), len(first)):
                    return array
    return _parse_csv_cells(path, lines)


def _parse_csv_cells(path, lines: list[str]) -> np.ndarray:
    """The decoded lines of a CSV file, parsed one cell at a time with
    ``float``; the source of the CSV grammar and of its errors."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]  # float() refuses U+001F; strip drops it
        try:
            row = [float(c) for c in cells]
        except ValueError:
            numeric = list(map(_is_number, cells))
            if width is None and not any(numeric):
                width = len(cells)  # a header: the first row, with no numeric cell
                continue
            col = numeric.index(False)
            raise InputError(f"{path}:{lineno}:{col + 1}: not a number: {cells[col]!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{path}:{lineno}:1: row has {len(row)} columns, expected {width}")
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_sample_array(path) -> np.ndarray:
    """Load a (n, d) sample array from CSV or the binary format."""
    if _is_binary(path):
        return _read_samples_binary(path)
    return _parse_csv_rows(path)


def _is_binary(path) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(4) == BINARY_MAGIC
    except OSError as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc


def _read_finite_samples(path) -> np.ndarray:
    """``read_sample_array``, refusing non-finite values."""
    array = read_sample_array(path)
    _require_finite(array, f"{path}: non-finite sample values")
    return array


def read_samples(path, norm: NormKind = NormKind.L2) -> SampleSet:
    """A sample file's SampleSet: an OVLB file is read in blocks and never
    held whole, and a CSV file is parsed whole and its rows dropped once the
    statistics are taken."""
    if _is_binary(path):
        stats = _read_samples_binary(path, norm)
    else:
        stats = _sample_statistics(_parse_csv_rows(path), norm, f"{path}: non-finite sample values")
    return SampleSet(stats, norm)


def _binary_labels(column: np.ndarray, path) -> np.ndarray:
    bad = column[(column != 0.0) & (column != 1.0)]
    if bad.size:
        raise InputError(f"{path}: labels must be 0 or 1, got {float(bad[0])!r}")
    return column == 1.0


def read_scores_and_labels(scores_path, labels_path=None) -> tuple[np.ndarray, np.ndarray]:
    """Scores/labels from one two-column CSV or two one-column files.

    Labels are 0 or 1, where 1 marks an in-class (positive) sample; any
    other label value is an InputError naming the file.
    """
    if labels_path is None:
        table = read_sample_array(scores_path)
        if table.shape[1] != 2:
            raise InputError(
                f"{scores_path}: expected two columns (score, label), got {table.shape[1]}"
            )
        return table[:, 0], _binary_labels(table[:, 1], scores_path)
    scores = read_sample_array(scores_path)
    labels = read_sample_array(labels_path)
    if scores.shape[1] != 1:
        raise InputError(f"{scores_path}: expected a single score column, got {scores.shape[1]}")
    if labels.shape[1] != 1:
        raise InputError(f"{labels_path}: expected a single label column, got {labels.shape[1]}")
    if scores.shape[0] != labels.shape[0]:
        raise InputError(
            f"{scores_path} has {scores.shape[0]} rows but {labels_path} has {labels.shape[0]}"
        )
    return scores[:, 0], _binary_labels(labels[:, 0], labels_path)
