"""File formats: delimited matrices and data tables, JSON sidecars.

Matrices are written row-major with a header row of flat indices.
Floats are rendered with repr(), the shortest string that round-trips
to the exact same double, so re-ingesting a file reproduces values
bit-for-bit; integer and boolean matrices are written as exact integers.
See docs/formats.md for byte-level examples.  Matrix CSVs
go through a codebook: the writer formats each distinct value (bit
pattern) once and the reader runs float() once per distinct token, which
pays because design matrices hold few distinct values.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .bounds import BoundMatrix
from .designs import Assignment, Design, IndexLayout
from .errors import NumericalError, ValidationError
from .estimators import ObservedData
from .spectral import EigenReport


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.dtype.kind in "iub":  # integers as themselves, never through float64
        distinct, codes = np.unique(matrix, return_inverse=True)
        tokens = [str(int(v)) for v in distinct]
    else:
        # distinct bit patterns, so -0.0 stays apart from 0.0; each is formatted once
        bits, codes = np.unique(matrix.astype(float).view(np.uint64), return_inverse=True)
        tokens = [repr(float(v)) for v in bits.view(np.float64)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(str, range(matrix.shape[1]))) + "\r\n")
        for row in codes.reshape(matrix.shape):
            fh.write(",".join(map(tokens.__getitem__, row.tolist())) + "\r\n")


def read_matrix_csv(path) -> np.ndarray:
    parsed: dict[str, float] = {}  # float() runs once per distinct token
    data = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        width = len(next(rows, ()))
        for i, row in enumerate(rows, start=2):
            if len(row) != width:
                raise ValidationError(f"{path}: row {i} has {len(row)} fields, expected {width}")
            try:
                data.append(list(map(parsed.__getitem__, row)))
            except KeyError:  # the row holds tokens not seen before
                try:
                    parsed.update((token, float(token)) for token in row if token not in parsed)
                except ValueError as exc:
                    raise ValidationError(f"{path}: row {i}: {exc}") from exc
                data.append(list(map(parsed.__getitem__, row)))
    if not data:
        raise ValidationError(f"{path}: expected a header row plus data rows")
    return np.array(data)


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


def design_summary(design: Design) -> dict:
    return {
        "k": design.layout.k,
        "n": design.layout.n,
        "family": design.family,
        "mode": design.mode,
        "support_size": design.support_size,
        "exact_probabilities": design.p_frac is not None,
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
    """One table cell as a number, or a ValidationError naming file, row and column."""
    try:
        return convert(row[column])
    except (TypeError, ValueError) as exc:
        text = f"{path}: row {line}, column {column!r}: {row[column]!r} is not a number"
        raise ValidationError(text) from exc


def _read_table(path, required: list[str]) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {missing}")
        return list(reader)


def read_potential_outcomes(path, layout: IndexLayout) -> np.ndarray:
    """Long-format table (unit_id, arm, y) -> stacked kn outcome vector.

    Every (unit, arm) cell must appear exactly once; unit ids are 0..n-1
    and arms 0..k-1.
    """
    rows = _read_table(path, ["unit_id", "arm", "y"])
    y = np.full(layout.kn, np.nan)
    for line, row in enumerate(rows, start=2):
        unit, arm = (_cell(path, line, row, c, int) for c in ("unit_id", "arm"))
        if not (0 <= unit < layout.n and 0 <= arm < layout.k):
            raise ValidationError(
                f"{path}: unit_id {unit} / arm {arm} out of range for "
                f"n={layout.n}, k={layout.k}"
            )
        a = layout.flat(arm, unit)
        if not np.isnan(y[a]):
            raise ValidationError(f"{path}: duplicate row for unit {unit}, arm {arm}")
        y[a] = _cell(path, line, row, "y")
    if np.any(np.isnan(y)):
        raise ValidationError(f"{path}: missing potential outcomes for some (unit, arm)")
    return y


def read_covariates(path, n: int) -> np.ndarray:
    """Table (unit_id, x1..xl) -> n x l matrix ordered by unit id."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "unit_id" not in reader.fieldnames:
            raise ValidationError(f"{path}: needs a unit_id column")
        xcols = [c for c in reader.fieldnames if c != "unit_id"]
        rows = list(reader)
    if len(rows) != n:
        raise ValidationError(f"{path}: expected {n} rows, got {len(rows)}")
    x = np.full((n, len(xcols)), np.nan)
    for line, row in enumerate(rows, start=2):
        unit = _cell(path, line, row, "unit_id", int)
        if not 0 <= unit < n:
            raise ValidationError(f"{path}: unit_id {unit} out of range")
        x[unit] = [_cell(path, line, row, c) for c in xcols]
    if np.any(np.isnan(x)):
        raise ValidationError(f"{path}: duplicate or missing unit rows")
    return x


def read_observed(path, layout: IndexLayout) -> ObservedData:
    """Table (unit_id, arm_assigned, y_obs) -> observed data."""
    rows = _read_table(path, ["unit_id", "arm_assigned", "y_obs"])
    if len(rows) != layout.n:
        raise ValidationError(f"{path}: expected {layout.n} rows, got {len(rows)}")
    arms = np.full(layout.n, -1, dtype=int)
    y_obs = np.zeros(layout.kn)
    for line, row in enumerate(rows, start=2):
        unit, arm = (_cell(path, line, row, c, int) for c in ("unit_id", "arm_assigned"))
        if not (0 <= unit < layout.n and 0 <= arm < layout.k):
            raise ValidationError(f"{path}: unit_id/arm out of range")
        if arms[unit] != -1:
            raise ValidationError(f"{path}: duplicate unit {unit}")
        arms[unit] = arm
        y_obs[layout.flat(arm, unit)] = _cell(path, line, row, "y_obs")
    if not np.all(np.isfinite(y_obs)):
        raise ValidationError(f"{path}: y_obs values must be finite")
    return ObservedData(Assignment(layout, arms), y_obs)
