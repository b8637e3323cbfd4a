"""File formats: delimited matrices and data tables, JSON sidecars.

Matrices are written row-major with a header row of flat indices.
Floats are rendered with repr(), the shortest string that round-trips
to the exact same double, so re-ingesting a file reproduces values
bit-for-bit; integer and boolean matrices are written as exact integers.
See docs/formats.md for byte-level examples.  Matrix CSVs go through a
codebook, which pays because design matrices hold few distinct values.
The writer formats each distinct value (bit pattern) once into a token
table whose entries carry their separator, "," inside a row and CR LF
after a row's last cell, so a block of rows is one gather from the table
and one join.  The matrix reader takes the file as bytes in one pass, in
blocks of whole lines of at most ``BATCH_BYTES``, each block's rows
appended to one growing buffer: one numpy scan finds a block's
commas and line ends and checks each line's field count, each token is
keyed by its length and bytes, one sort groups equal keys (a token whose
bytes differ from its group's first hands the file on, so keys never
merge two tokens), and float() runs once per distinct token of each
block.  A file it does not take whole goes whole to the row reader: one
with a quote, a non-ASCII byte, a CR not followed by LF, a blank line or
a line of another width, or a token longer than 32 bytes or one float()
rejects.  The row reader is csv.reader with one float() per cell into
one growing buffer; it words every error.  A data table is read whole by
csv.reader, one dict per row as csv.DictReader makes it, numbered like
matrix rows (a blank line counts), one row per unit_id in 0..n-1.  Every
reader reads its file as UTF-8.  A field longer than csv.field_size_limit(),
or bytes that do not decode, are a ValidationError naming the file on
every path.
"""

from __future__ import annotations

import array
import contextlib
import csv
import itertools
import json
import math
import os
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .designs import BATCH_BYTES, Assignment, Design, IndexLayout
from .errors import NumericalError, ValidationError

if TYPE_CHECKING:
    from .bounds import BoundMatrix
    from .estimators import ObservedData
    from .spectral import EigenReport


WRITE_BLOCK = 1 << 12  # cells gathered per write


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct entries, by one sort and a neighbour comparison
    (np.unique hashes since numpy 2.3, several times slower on these keys)."""
    ordered = np.sort(keys, axis=None)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix))
    integers = matrix.dtype.kind in "iub"  # written as themselves, never through float64
    # floats by bit pattern, so -0.0 stays apart from 0.0
    keys = matrix if integers else matrix.astype(float).view(np.uint64)
    distinct = _distinct(keys)
    codes = np.searchsorted(distinct, keys)
    rows, width = codes.shape
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(str, range(width))) + "\r\n")
        if not width:  # a row without cells is a bare line end
            fh.write("\r\n" * rows)
            return
        # the token table, each distinct value formatted once and carrying its
        # separator: "," inside a row, then CR LF for the values of the last column
        if integers:
            cells = [str(int(v)) + "," for v in distinct]
        else:
            cells = [repr(float(v)) + "," for v in distinct.view(np.float64)]
        ends, codes[:, -1] = np.unique(codes[:, -1], return_inverse=True)
        codes[:, -1] += len(cells)
        table = np.array(cells + [cells[e][:-1] + "\r\n" for e in ends.tolist()], dtype=object)
        step = max(WRITE_BLOCK // width, 1)
        for start in range(0, rows, step):
            fh.write("".join(table[codes[start:start + step]].ravel().tolist()))


@contextlib.contextmanager
def _open_text(path, **kwargs) -> Iterator:
    """``path`` opened for reading as UTF-8.  Bytes that do not decode,
    wherever in the file the reading meets them, are a ValidationError
    naming the file."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 text ({exc.reason})") from exc


def read_json(path):
    """The JSON document in ``path``.  Nesting too deep to parse, or an
    integer literal past Python's digit limit, is a ValidationError naming
    the file; a JSONDecodeError passes through with its line and column."""
    try:
        with _open_text(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply to read") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _csv_rows(path, fh) -> Iterator[list[str]]:
    """The rows csv.reader gives for ``fh``, a file opened with newline="";
    a csv.Error becomes a ValidationError naming the file and row."""
    row = 1
    try:
        for fields in csv.reader(fh):
            yield fields
            row += 1
    except csv.Error as exc:
        raise ValidationError(f"{path}: row {row}: {exc}") from exc


# odd constants that mix a token's length and 8-byte words into one key, and
# _LOW[j][n] keeps the bytes of word j that lie in a token of n bytes
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                 0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD], dtype=np.uint64)
_LOW = np.array([[(1 << 8 * min(max(n - 8 * j, 0), 8)) - 1 for n in range(33)]
                 for j in range(4)], dtype=np.uint64)


def _block_rows(buf: bytearray, size: int, width: int) -> np.ndarray | None:
    """The rows of the whole lines in ``buf[:size]``, or None when the file
    needs the row reader (also when two distinct tokens share a key).
    ``buf`` holds 32 bytes past ``size``."""
    data = np.frombuffer(buf, np.uint8, size)
    at = np.flatnonzero(data <= 44)  # commas and LFs, among CRs, quotes and others
    kind = data[at]
    if data.max() > 127 or np.any(kind == 34):  # not ASCII, or a quote
        return None
    at = at[(kind == 44) | (kind == 10)]  # the byte after each token
    last = data[at] == 10  # ... that ends a line
    cr = (data[at - 1] == 13) & last  # ... in CR LF
    if (np.count_nonzero(kind == 13) != np.count_nonzero(cr)
            or np.count_nonzero(last) * width != len(at) or not last[width - 1::width].all()):
        return None
    starts = np.zeros_like(at)
    starts[1:] = at[:-1] + 1
    length = at  # each token's length, in place
    length -= cr
    length -= starts
    longest = int(length.max())
    if longest > min(32, csv.field_size_limit()):
        return None
    # a token is its length and its bytes as little-endian words masked to
    # the length; its key mixes them, and one sort of the keys, whose low
    # bits are replaced by the token's index, groups equal keys
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # the 8 bytes at each offset
    token = [length] + [words[starts + 8 * j] & _LOW[j][length] for j in range((longest + 7) // 8)]
    key = length.astype(np.uint64)
    key *= _MIX[0]
    for word, mix in zip(token[1:], _MIX[1:]):
        key += word * mix
    low = (1 << len(key).bit_length()) - 1
    key &= ~np.uint64(low)
    key |= np.arange(len(key), dtype=np.uint64)
    key.sort()
    first = np.flatnonzero(np.concatenate(([True], (key[1:] ^ key[:-1]) > low)))
    order = key.view(np.int64)  # the tokens in key order, in place
    order &= low
    group = np.empty(len(order), np.intp)  # each token's group, numbered by key
    group[order] = np.repeat(np.arange(len(first)), np.diff(first, append=len(order)))
    rep = order[first]
    if any(np.any(part != part[rep][group]) for part in token):  # a key collision
        return None
    text = [buf[s:s + n].decode() for s, n in zip(starts[rep].tolist(), length[rep].tolist())]
    try:
        values = np.fromiter(map(float, text), float, len(text))
    except ValueError:
        return None
    return values[group].reshape(-1, width)


def _byte_rows(fh, width: int) -> np.ndarray | None:
    """The data rows of the binary file ``fh``, read past its header in one
    pass, in blocks of whole lines of at most BATCH_BYTES (longer when one
    line is), or None when the file needs the row reader.  A file that fits
    one block gives that block's rows; a longer one appends each block's
    rows to one growing buffer, so its rows are held once."""
    size = min(BATCH_BYTES, os.fstat(fh.fileno()).st_size - fh.tell() + 1)
    buf, filled, values = bytearray(size + 32), 0, array.array("d")
    while True:
        want = len(buf) - 32 - filled
        with memoryview(buf) as view:
            got = fh.readinto(view[filled:-32])
        filled += got
        end = got < want  # a short read ends the file
        cut = buf.rfind(b"\n", 0, filled) + 1
        if end and cut < filled:  # a last line without a line end
            buf[filled] = ord("\n")
            filled = cut = filled + 1
        if cut:
            rows = _block_rows(buf, cut, width)
            if rows is None or (end and not values):  # the row reader's file, or one block
                return rows
            values.frombytes(rows.data.cast("B"))
            buf[:filled - cut] = buf[cut:filled]
            filled -= cut
        elif filled == len(buf) - 32:  # a line longer than the buffer
            buf.extend(bytes(len(buf)))
        if end:  # None when there is no data row
            return np.frombuffer(values).reshape(-1, width) if values else None


def read_matrix_csv(path) -> np.ndarray:
    with open(path, "rb") as fh:  # a pipe, read once, goes to the row reader
        header = (fh.readline() if fh.seekable() else b"").removesuffix(b"\n").removesuffix(b"\r")
        if (header.isascii() and 0 < len(header) <= csv.field_size_limit()
                and b'"' not in header and b"\r" not in header):
            matrix = _byte_rows(fh, header.count(b",") + 1)
            if matrix is not None:
                return matrix
    return _read_rows(path)


def _read_rows(path) -> np.ndarray:
    """read_matrix_csv through the row reader, which words every error.
    Its values go into one growing buffer, so the rows are held once."""
    values, i = array.array("d"), 1
    with _open_text(path, newline="") as fh:
        rows = _csv_rows(path, fh)
        width = len(next(rows, ()))
        for i, row in enumerate(rows, start=2):
            if len(row) != width:
                raise ValidationError(f"{path}: row {i} has {len(row)} fields, expected {width}")
            try:
                values.extend(map(float, row))
            except ValueError as exc:
                raise ValidationError(f"{path}: row {i}: {exc}") from exc
    if i == 1:
        raise ValidationError(f"{path}: expected a header row plus data rows")
    return np.frombuffer(values).reshape(i - 1, width)


def write_vector_csv(path, vector: np.ndarray) -> None:
    write_matrix_csv(path, np.asarray(vector, dtype=float)[None, :])


def read_vector_csv(path) -> np.ndarray:
    mat = read_matrix_csv(path)
    if mat.shape[0] != 1:
        raise ValidationError(f"{path}: expected a single data row")
    return mat[0]


def write_json(path, obj) -> None:
    try:  # strict JSON: a NaN or infinity is a numerical failure, not a "NaN" token
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: result holds a non-finite value ({exc})") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_rows_csv(path, rows: list[dict]) -> None:
    """Rows of numbers under a header of the first row's keys, one line each,
    every value as repr(float).  As in write_json, a non-finite value is a
    NumericalError, and no file is written."""
    cols = list(rows[0])
    values = [[float(row[c]) for c in cols] for row in rows]
    for row in values:
        for col, value in zip(cols, row):
            if not math.isfinite(value):
                raise NumericalError(f"{path}: result holds a non-finite value ({col} = {value})")
    with open(path, "w") as fh:
        fh.write("".join(",".join(map(str, line)) + "\n" for line in [cols] + values))


def design_summary(design: Design) -> dict:
    return {
        "k": design.layout.k,
        "n": design.layout.n,
        "family": design.family,
        "support_size": design.support_size,
        "exact_probabilities": design.p_frac is not None,
        "estimated": design.moments is not None,
    }


def eigen_report_dict(report: EigenReport) -> dict:
    return {
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "psd": bool(report.psd),
        "min_eig": float(report.min_eig),
        "max_eig": float(report.max_eig),
        "tol": float(report.tol),
    }


def bound_sidecar(bound: BoundMatrix, tol: float) -> dict:
    return {
        "method": bound.method,
        "certified_bounding": bound.certified_bounding,
        "certified_identified": bound.certified_identified,
        "iterations": bound.iterations,
        "diff_min_eig": bound.diff_min_eig,
        "tol": tol,
    }


def _cell(path, line: int, row: dict, column: str, convert=float):
    """One table cell as a finite number, or a ValidationError naming file, row and column."""
    try:
        value = convert(row[column])
    except (TypeError, ValueError):  # not a number, or missing from a short row
        value = math.nan
    if not abs(value) < math.inf:
        text = f"{path}: row {line}, column {column!r}: {row[column]!r} is not a finite number"
        raise ValidationError(text)
    return value


def _read_units(path, n: int, required: list[str]) -> tuple[list[str], list[tuple[int, dict]]]:
    """A table's header and its rows in unit order, as (row number, dict as
    csv.DictReader makes it), numbered as in read_matrix_csv (a blank line
    counts).  The table has the ``required`` columns and one row for each
    unit_id in 0..n-1."""
    with _open_text(path, newline="") as fh:
        rows = list(_csv_rows(path, fh))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    missing = [c for c in required if c not in rows[0]]  # rows[0] is the header
    if missing:
        raise ValidationError(f"{path}: missing column(s) {missing}")
    table = [(line, dict(itertools.zip_longest(rows[0], fields)))
             for line, fields in enumerate(rows[1:], start=2) if fields]
    if len(table) != n:
        raise ValidationError(f"{path}: expected {n} rows, got {len(table)}")
    units: list = [None] * n
    for line, row in table:
        unit = _cell(path, line, row, "unit_id", int)
        if not 0 <= unit < n or units[unit]:
            text = f"unit_id {unit} repeats or lies outside 0..{n - 1}, so a unit is missing"
            raise ValidationError(f"{path}: row {line}: {text}")
        units[unit] = line, row
    return rows[0], units


def read_covariates(path, n: int) -> np.ndarray:
    """Table (unit_id, x1..xl) -> n x l matrix ordered by unit id."""
    header, rows = _read_units(path, n, ["unit_id"])
    xcols = [c for c in header if c != "unit_id"]
    return np.array([[_cell(path, line, row, c) for c in xcols] for line, row in rows])


def read_observed(path, layout: IndexLayout) -> ObservedData:
    """Table (unit_id, arm_assigned, y_obs) -> observed data."""
    from .estimators import ObservedData

    _, rows = _read_units(path, layout.n, ["unit_id", "arm_assigned", "y_obs"])
    arms = np.empty(layout.n, dtype=int)
    y_obs = np.zeros(layout.kn)
    for unit, (line, row) in enumerate(rows):
        arm = _cell(path, line, row, "arm_assigned", int)
        if not 0 <= arm < layout.k:
            raise ValidationError(f"{path}: row {line}: arm {arm} outside 0..{layout.k - 1}")
        arms[unit] = arm
        y_obs[layout.flat(arm, unit)] = _cell(path, line, row, "y_obs")
    return ObservedData(Assignment(layout, arms), y_obs)
