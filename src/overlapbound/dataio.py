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

from .core import InputError, NormKind, SampleSet, _require_finite

BINARY_MAGIC = b"OVLB"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


def write_samples_binary(path, samples: np.ndarray) -> None:
    a = np.ascontiguousarray(samples, dtype="<f8")
    if a.ndim != 2:
        raise InputError(f"expected a (n, d) array, got shape {a.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, a.shape[0], a.shape[1]))
        fh.write(a.tobytes())


def _read_samples_binary(path) -> np.ndarray:
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
        # check the declared size before reading, so a corrupt header cannot
        # ask numpy for more memory than the file holds
        found = (os.fstat(fh.fileno()).st_size - _HEADER.size) // 8
        if found < n * d:
            raise InputError(f"{path}: expected {n * d} float64 values, found {found}")
        return np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                if width is None and not any(map(_is_number, cells)):
                    parsed = None  # header row: first row, every cell non-numeric
                    break
                raise InputError(
                    f"{path}:{lineno}:{col}: not a number: {cell!r}"
                ) from None
        if parsed is None:
            width = len(cells)
            continue
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InputError(
                f"{path}:{lineno}:1: row has {len(parsed)} columns, expected {width}"
            )
        rows.append(parsed)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_sample_array(path) -> np.ndarray:
    """Load a (n, d) sample array from CSV or the binary format."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except OSError as exc:
        raise InputError(f"{path}: cannot read file: {exc}") from exc
    if magic == BINARY_MAGIC:
        return _read_samples_binary(path)
    return _parse_csv_rows(path)


def _read_finite_samples(path) -> np.ndarray:
    """``read_sample_array``, refusing non-finite values."""
    array = read_sample_array(path)
    _require_finite(array, f"{path}: non-finite sample values")
    return array


def read_samples(path, norm: NormKind = NormKind.L2) -> SampleSet:
    return SampleSet(_read_finite_samples(path), norm)


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
