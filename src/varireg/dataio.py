"""CSV schemas and deterministic serialization for the CLI.

Input curves arrive as wide CSV (first column t, one column per curve,
shared grid) or long CSV (curve_id,t,value) for per-curve grids.  All
floats are written with 17 significant digits so a write/read round trip is
lossless, and rows are emitted in a fixed order so identical runs produce
identical bytes.
"""

from __future__ import annotations

import csv
import functools
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .variation import DiscreteCurve, StepCdf


class InputFormatError(Exception):
    """Malformed input file; the message names the 1-based line when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


def _names_its_file(read):
    """``read(path)``, raising InputFormatError "cannot read <file name>: ..." for
    any content that is not what it expects, a curve or CDF that fails validation included."""

    @functools.wraps(read)
    def named(path):
        try:
            return read(path)
        except (InputFormatError, ValueError) as exc:
            raise InputFormatError(f"cannot read {Path(path).name}: {exc}") from exc

    return named


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmts(values) -> list:
    """fmt(x) for every entry x of ``values``, without a Python call per entry."""
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


def _parse_float(text, line):
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(f"not a number: {text!r}", line) from None


@_names_its_file
def read_curves_csv(path):
    """Read curves from wide or long CSV.

    Returns (curve_ids, curves, rescale) where rescale is None or
    (offset, scale) recording an affine map applied to bring times into
    [0,1].
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError("empty file", 1) from None
        header = [h.strip() for h in header]
        if not header:
            raise InputFormatError("missing header", 1)
        rows = [(idx, row) for idx, row in enumerate(reader, start=2) if row and any(row)]

    if len(header) >= 3 and [h.lower() for h in header[:3]] == ["curve_id", "t", "value"]:
        return _curves_from_long(rows)
    if header[0].lower() == "t" and len(header) >= 2:
        return _curves_from_wide(header, rows)
    raise InputFormatError(
        "header must be 'curve_id,t,value' (long) or 't,<curve>,...' (wide)", 1
    )


def _rescale_times(all_t):
    if not all_t:
        raise InputFormatError("no data rows")
    lo = min(t for t, _ in all_t)
    hi = max(t for t, _ in all_t)
    if 0.0 <= lo and hi <= 1.0:
        return None
    if hi == lo:
        raise InputFormatError("cannot rescale a single time point")
    return (lo, hi - lo)


def _curves_from_wide(header, rows):
    ids = header[1:]
    if len(set(ids)) != len(ids):
        raise InputFormatError("duplicate curve columns", 1)
    t = []
    cols = [[] for _ in ids]
    for line, row in rows:
        if len(row) != len(header):
            raise InputFormatError(f"expected {len(header)} fields, got {len(row)}", line)
        t.append((_parse_float(row[0], line), line))
        for j, cell in enumerate(row[1:]):
            cols[j].append(_parse_float(cell, line))
    rescale = _rescale_times(t)
    grid = np.array([x for x, _ in t])
    if rescale is not None:
        grid = (grid - rescale[0]) / rescale[1]
    order = np.argsort(grid)
    grid = grid[order]
    if not (np.diff(grid) > 0).all():
        dup_pos = int(np.argmin(np.diff(grid) > 0))
        raise InputFormatError("duplicate time point", t[order[dup_pos + 1]][1])
    curves = []
    for j in range(len(ids)):
        vals = np.array(cols[j])[order]
        try:
            curves.append(DiscreteCurve(grid, vals))
        except ValueError as exc:
            raise InputFormatError(f"curve {ids[j]!r}: {exc}") from None
    return ids, curves, rescale


def _curves_from_long(rows):
    by_id = {}
    all_t = []
    for line, row in rows:
        if len(row) != 3:
            raise InputFormatError(f"expected 3 fields, got {len(row)}", line)
        cid = row[0].strip()
        t = _parse_float(row[1], line)
        v = _parse_float(row[2], line)
        by_id.setdefault(cid, []).append((t, v, line))
        all_t.append((t, line))
    rescale = _rescale_times(all_t)
    ids = list(by_id.keys())  # first-appearance order
    curves = []
    for cid in ids:
        pts = by_id[cid]
        t = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        if rescale is not None:
            t = (t - rescale[0]) / rescale[1]
        order = np.argsort(t)
        t, v = t[order], v[order]
        if (np.diff(t) <= 0).any():
            dup_pos = int(np.argmin(np.diff(t) > 0))
            raise InputFormatError(
                f"curve {cid!r}: duplicate time point", pts[order[dup_pos + 1]][2]
            )
        try:
            curves.append(DiscreteCurve(t, v))
        except ValueError as exc:
            raise InputFormatError(f"curve {cid!r}: {exc}") from None
    return ids, curves, rescale


def write_rows(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_wide_csv(path, ids, grid, value_columns):
    write_rows(path, ["t"] + list(ids), zip(_fmts(grid), *map(_fmts, value_columns)))


def write_long_csv(path, ids, curves):
    rows = []
    for cid, curve in zip(ids, curves):
        rows += zip(repeat(cid), _fmts(curve.grid), _fmts(curve.values))
    write_rows(path, ["curve_id", "t", "value"], rows)


def write_warps_csv(path, ids, warp_values, inverse_warp_values, grid):
    """One row per curve and grid point; the value arrays are sampled on ``grid``."""
    t = _fmts(grid)
    rows = []
    for cid, wv, iv in zip(ids, warp_values, inverse_warp_values):
        rows += zip(repeat(cid), t, _fmts(wv), _fmts(iv))
    write_rows(path, ["curve_id", "t", "warp_value", "inverse_warp_value"], rows)


def _read_table(path, header):
    """Yield the data rows of the CSV file ``path`` as (line number, fields).

    Raises InputFormatError, with the line number, for an empty file, a
    header other than ``header``, or a row with another number of fields.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise InputFormatError("empty file", 1)
        if [h.strip() for h in first] != header:
            raise InputFormatError(f"header is not {','.join(header)!r}", 1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(f"expected {len(header)} fields, got {len(row)}", line)
            yield line, row


@_names_its_file
def read_warps_csv(path):
    data = {}
    for line, row in _read_table(path, ["curve_id", "t", "warp_value", "inverse_warp_value"]):
        data.setdefault(row[0], []).append(
            (_parse_float(row[1], line), _parse_float(row[2], line), _parse_float(row[3], line))
        )
    out = {}
    for cid, pts in data.items():
        arr = np.array(sorted(pts))
        out[cid] = (arr[:, 0], arr[:, 1], arr[:, 2])
    return out


def write_mean_csv(path, mean_curve):
    write_rows(path, ["t", "value"], zip(_fmts(mean_curve.grid), _fmts(mean_curve.values)))


@_names_its_file
def read_mean_csv(path) -> DiscreteCurve:
    grid, vals = [], []
    for line, row in _read_table(path, ["t", "value"]):
        grid.append(_parse_float(row[0], line))
        vals.append(_parse_float(row[1], line))
    return DiscreteCurve(np.array(grid), np.array(vals))


def write_eigen_csv(path, grid, eigenfunctions):
    header = ["t"] + [f"phi_{j + 1}" for j in range(eigenfunctions.shape[0])]
    write_rows(path, header, zip(_fmts(grid), *map(_fmts, eigenfunctions)))


def write_scores_csv(path, ids, score_matrix):
    header = ["curve_id"] + [f"score_{j + 1}" for j in range(score_matrix.shape[1])]
    write_rows(path, header, zip(ids, *map(_fmts, score_matrix.T)))


def write_template_csv(path, cdf):
    rows = zip(_fmts(cdf.jump_locations), _fmts(cdf.cum_values))
    write_rows(path, ["jump_location", "cum_value"], rows)


@_names_its_file
def read_template_csv(path):
    locs, cums = [], []
    for line, row in _read_table(path, ["jump_location", "cum_value"]):
        locs.append(_parse_float(row[0], line))
        cums.append(_parse_float(row[1], line))
    return StepCdf(np.array(locs), np.array(cums))


def write_report_json(path, report: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
