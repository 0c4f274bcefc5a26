"""Reading and writing sample files: CSV and the packed binary format.

CSV holds one numeric row per sample; a first row with no numeric cell is a
header. It is UTF-8 (a leading byte-order mark is skipped), read in pieces cut
after their last line break. The binary format is for large batches: magic
``OVLB``, a uint32 version, uint64 row and column counts, then row-major
little-endian float64 data. A file is opened once, and its rows are walked
from the start, as often as asked, in blocks of about ``_BLOCK_ELEMENTS`` values."""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .core import InputError, NormKind, SampleSet, _block_rows, _naming, _walk_statistics

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


def _read_file(path, walk):
    """``walk(blocks, n)`` for a sample file, opened once: OVLB if it starts
    with the magic, else CSV, whose n is None. ``blocks()`` walks its rows."""
    with _naming(path):
        try:
            with open(path, "rb") as fh:
                if fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC:
                    return _read_samples_binary(path, fh, walk)

                def blocks():
                    source = _csv_lines(path, fh)
                    while (rows := _parse_csv_rows(path, source)).shape[1]:  # (0, 0) once spent
                        if len(rows):
                            yield rows
                return walk(blocks, None)
        except OSError as exc:
            raise InputError(f"cannot read file: {exc}") from exc


def _read_samples_binary(path, fh, walk):
    """``walk(blocks, n)`` for an OVLB file open as ``fh``, past its magic.
    A payload of other than n·d float64 values is an InputError naming the
    file, found before any is read, so a corrupt header cannot ask numpy for
    more memory than the file holds."""
    head = BINARY_MAGIC + fh.read(_HEADER.size - len(BINARY_MAGIC))
    if len(head) < _HEADER.size:
        raise InputError(f"{path}: truncated binary header")
    _, version, n, d = _HEADER.unpack(head)
    if version != BINARY_VERSION:
        raise InputError(f"{path}: unsupported binary version {version}")
    if n * d == 0:
        raise InputError(f"{path}: no data values ({n} rows, {d} columns)")
    found, stray = divmod(os.fstat(fh.fileno()).st_size - _HEADER.size, 8)
    if (found, stray) != (n * d, 0):
        tail = f" and {stray} stray bytes" if stray and found >= n * d else ""
        raise InputError(f"{path}: expected {n * d} float64 values, found {found}{tail}")

    def blocks(rows: int = min(n, _block_rows(d))):
        """The rows, ``rows`` at a time, read into one reused buffer."""
        buffer = np.empty((rows, d), dtype="<f8")
        fh.seek(_HEADER.size)
        for lo in range(0, n, rows):
            block = buffer[:n - lo]
            got = fh.readinto(block)
            if got != block.nbytes:  # the file shrank after the size check
                raise InputError(f"{path}: expected {n * d} float64 values, found {lo * d + got // 8}")
            yield block

    return walk(blocks, n)


def _last_break(piece: bytes, start: int) -> int:
    """The end of ``piece``'s last ``str.splitlines`` line break from ``start``
    on, or 0. A CR that ends ``piece`` is none (an LF may follow)."""
    cut = 0  # each break a whole UTF-8 character; LF first, so the others are sought after it
    for brk in (b"\n", b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e",
                b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9"):
        if (at := piece.rfind(brk, max(start, cut), len(piece) - (brk == b"\r"))) >= 0:
            cut = at + len(brk)
    return cut


def _csv_lines(path, fh):
    """A CSV file's lines, ends kept, as ``str.splitlines`` splits the whole
    text, in blocks (first line number, d, lines) of at most ``_block_rows(d)``
    lines of one read, cut after its last line break and decoded strictly
    (``utf-8-sig`` before line 1). The first non-blank line sets d, and is
    skipped, a header, if no cell of it is a number. ``done`` places a bad
    byte as a whole-file ``utf-8-sig`` decode does, after a leading mark."""
    fh.seek(0)
    rest, lineno, d, found, eof, done = b"", 1, 0, False, False, 0
    while not eof:
        try:
            piece = rest + fh.read(max(8 * _block_rows(1), len(rest)))
            eof = len(piece) == len(rest)
            # the carried bytes hold no whole break, but may end in a CR or a
            # break's first two bytes, so a search starts 2 bytes before their end
            cut = len(piece) if eof else _last_break(piece, max(0, len(rest) - 2))
            rest, piece = piece[cut:], piece[:cut]
            done += cut - 3 * (lineno == 1 and piece.startswith(b"\xef\xbb\xbf"))
            # a decode error copies what it decodes, so a read that is not ASCII
            # is checked first in parts of an eighth of a read, each ending after an LF
            hi = len(piece) if piece.isascii() else 0
            while hi < len(piece):
                lo, hi = hi, piece.find(b"\n", hi + _block_rows(1)) + 1 or len(piece)
                str(memoryview(piece)[lo:hi], "utf-8-sig" if lineno == 1 and not lo else "utf-8")
            piece = piece.decode("utf-8-sig" if lineno == 1 else "utf-8")
        except UnicodeDecodeError as exc:  # exc.object, a part after any mark, ends at hi
            pos, end = (done - len(piece) + hi - len(exc.object) + i for i in (exc.start, exc.end - 1))
            where = f"byte 0x{exc.object[exc.start]:02x}" if pos == end else "bytes"
            raise InputError(f"{path}: cannot read file: {exc.encoding!r} codec can't decode {where} "
                             f"in position {pos}{'' if pos == end else f'-{end}'}: {exc.reason}") from exc
        lines, at, piece = piece.splitlines(True), 0, None  # the text, dropped once split
        while not found and at < len(lines):  # up to the first data line
            if lines[at].strip():
                cells = lines[at].split(",")
                found = bool(d) or any(_is_number(c.strip()) for c in cells)  # else a header
                d = d or len(cells)
            at += not found
        for lo in range(at, len(lines), _block_rows(d)):
            yield lineno + lo, d, lines[lo:lo + _block_rows(d)]
        lineno, lines = lineno + len(lines), None  # dropped before the next decode
    if not found:
        raise InputError(f"{path}: no data rows")


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


def _parse_csv_rows(path, source) -> np.ndarray:
    """The rows of ``source``'s next block (see ``_csv_lines``), read and
    decoded in this call; (0, 0) once it is spent. numpy's C reader is kept
    only when it gives one row of d per data line; anything else, such as
    ``1_0``, goes to the per-cell parser, which owns the grammar and errors."""
    start, width, block = next(source, (1, 0, []))
    data = list(filter(str.strip, block))  # blank lines are skipped
    if not data:  # numpy warns on no data
        return np.empty((0, width))
    with contextlib.suppress(ValueError):
        array = np.loadtxt(data, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        if array.shape == (len(data), width):
            return array
    try:
        return _parse_csv_cells(path, block, start, width)
    except InputError:  # a bad byte further on comes first, as in a whole-file decode
        for _ in source:
            pass
        raise


def _parse_csv_cells(path, lines: list[str], start: int, width: int) -> np.ndarray:
    """CSV lines numbered from ``start``, parsed one cell at a time with
    ``float``; the source of the CSV grammar and of its errors."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]  # float() refuses U+001F; strip drops it
        try:
            row = [float(c) for c in cells]
        except ValueError:
            col = list(map(_is_number, cells)).index(False)
            raise InputError(f"{path}:{lineno}:{col + 1}: not a number: {cells[col]!r}") from None
        if len(row) != width:
            raise InputError(f"{path}:{lineno}:1: row has {len(row)} columns, expected {width}")
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def read_sample_array(path) -> np.ndarray:
    """A sample file's (n, d) array from one walk of its blocks: an OVLB
    file's rows are read as one block, a CSV file's blocks joined once."""
    return _read_file(path, lambda blocks, n: next(blocks(n)) if n else np.concatenate(list(blocks())))


def read_samples(path, norm: NormKind = NormKind.L2) -> SampleSet:
    """A sample file's SampleSet from one walk of its blocks, each dropped
    once its statistics are taken: the file is never held whole."""
    return SampleSet(_read_file(path, lambda blocks, n: _walk_statistics(blocks(), n, norm)), norm)


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
    for path, what, a in ((scores_path, "score", scores), (labels_path, "label", labels)):
        if a.shape[1] != 1:
            raise InputError(f"{path}: expected a single {what} column, got {a.shape[1]}")
    if scores.shape[0] != labels.shape[0]:
        raise InputError(
            f"{scores_path} has {scores.shape[0]} rows but {labels_path} has {labels.shape[0]}"
        )
    return scores[:, 0], _binary_labels(labels[:, 0], labels_path)
