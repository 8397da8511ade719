"""CSV schemas and deterministic serialization for the CLI.

Input curves arrive as wide CSV (first column t, one column per curve,
shared grid) or long CSV (curve_id,t,value) for per-curve grids.  All
floats are written with 17 significant digits so a write/read round trip is
lossless, and rows are emitted in a fixed order so identical runs produce
identical bytes.

Tables move between numpy arrays and text a block at a time, and a file is
streamed, never held whole as one string.  ``write_rows`` formats a few
thousand rows with one ``%`` over a repeated row pattern and quotes each
curve id once through ``csv.writer``.  Every reader goes through one front
end, ``_read(path, layout)``, where the layout gives from the header the
row width, the id column, the build step and which records count.  It
parses the numeric columns in one ``np.loadtxt`` call on the file.  One
streaming pass over the text checks for what numpy and csv would read
differently and, where the table has a curve_id column, finds each id's
runs of rows; ``np.lexsort`` orders a curve's rows.  A file the bulk parse
cannot vouch for -- a quoted cell, a row with another number of fields,
text such as ``1_0`` that ``float`` takes and numpy does not -- or whose
curves fail a check is read again by the one row loop, which alone reports
errors, with their line numbers, a record csv cannot read included.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .variation import DiscreteCurve, StepCdf

_BLOCK_ROWS = 4096  # rows formatted by one % on writing
_REFUSED = '"\x1c\x1d\x1e\x1f'  # characters that keep a file from the bulk readers
_RUN = re.compile(r"^([^,\n]*),.*\n(?:\1,.*\n)*", re.M)  # lines that start with one id
_CHUNK = 1 << 16  # characters read at a time; a line this long goes to the row loop


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


def _parse_float(text, line):
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(f"not a number: {text!r}", line) from None


# ---- reading -----------------------------------------------------------------
#
# A table is read as (runs, values, lines): ``runs`` lists each run of
# consecutive rows with one curve id as [id, row count] (empty where the
# table has no id column), ``values`` holds the numeric columns of the rows
# in file order, and ``lines`` their line numbers, None from the bulk parse.


def _header(path):
    """The stripped cells of the first record of ``path``; None if there is none or
    csv cannot read it.  (A record over several lines leaves a double quote
    below the first line, where ``_body`` refuses it.)"""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            first = next(csv.reader(fh), None)
        except (csv.Error, ValueError):
            return None
    return None if first is None else [h.strip() for h in first]


def _body(path, ids):
    """(comma count, runs) of the lines of ``path`` below its first, in one streaming pass.

    ``runs`` lists, if ``ids``, each run of consecutive lines that start with
    one id (the text before the first comma) as [id, line count].  Lines
    without a comma, blank ones included, are in no run.  None if the lines
    hold a double quote, so that csv and np.loadtxt may split them
    differently; a character in \\x1c-\\x1f, which np.loadtxt strips around
    a number and float() refuses; or ``_CHUNK`` characters read without a
    line break, as every line over twice that is, where csv may refuse a
    field over its limit of 131072 characters.
    """
    commas, runs, carry = 0, [], ""

    def take(text):
        for m in _RUN.finditer(text):
            size = text.count("\n", m.start(), m.end())
            if runs and runs[-1][0] == m[1]:
                runs[-1][1] += size
            else:
                runs.append([m[1], size])

    # universal newlines, as np.loadtxt reads the file
    with open(path, encoding="utf-8") as fh:
        try:
            fh.readline()
            for chunk in iter(functools.partial(fh.read, _CHUNK), ""):
                if any(c in chunk for c in _REFUSED) or len(chunk) == _CHUNK and "\n" not in chunk:
                    return None
                commas += chunk.count(",")
                if ids:
                    text = carry + chunk
                    cut = text.rfind("\n") + 1
                    take(text[:cut])
                    carry = text[cut:]
        except ValueError:  # not UTF-8
            return None
    if carry:
        take(carry + "\n")
    return commas, runs


def _bulk(path, width, ids):
    """The table of the CSV file ``path``, of rows of ``width`` fields, the first
    an id if ``ids``, parsed in bulk: its numbers in one np.loadtxt call.

    None, which leaves the file to the row loop, unless that call and
    ``_body`` vouch for every row; where they do, each number is the one
    float() reads from its cell.
    """
    body = _body(path, ids)
    if body is None:
        return None
    commas, runs = body
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy warns of a table with no rows
        try:
            values = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                                usecols=range(ids, width), ndmin=2, encoding="utf-8")
        except ValueError:
            return None
    # np.loadtxt gives every row at least ``width`` fields, the comma count at most
    if not len(values) or commas != (width - 1) * len(values):
        return None
    if ids and sum(size for _, size in runs) != len(values):
        return None
    return runs, values, None


def _read(path, layout):
    """The table of the CSV file ``path``, built by its layout: the one front end
    of the readers.

    ``layout(header)`` gives, for the stripped cells of the header, the row
    width, the number of leading id columns, the ``build(runs, values,
    lines)`` step and the rule ``keep(row)`` for rows that count, or raises
    InputFormatError.  The file is parsed in bulk where ``_bulk`` vouches for
    it and the build accepts it; else the row loop reads it.
    """
    header = _header(path)
    if header is not None:
        try:
            width, ids, build, _ = layout(header)
            found = _bulk(path, width, ids)
            if found:
                return build(*found)
        except InputFormatError:
            pass  # the row loop reports it, with its line
    return _by_row(path, layout)


def _by_row(path, layout):
    """``_read``'s result from a csv reader over ``path``: the row loop, the one
    source of errors with a line number.

    Raises InputFormatError for an empty file, for a header ``layout``
    refuses, for a kept row of another width or with a cell that is not a
    number, and for a record that csv cannot read.
    """
    cids, values, lines = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise InputFormatError("empty file", 1)
            width, ids, build, keep = layout([h.strip() for h in first])
            for line, row in enumerate(reader, start=2):
                if not keep(row):
                    continue
                if len(row) != width:
                    raise InputFormatError(f"expected {width} fields, got {len(row)}", line)
                cids += row[:ids]
                values.append([_parse_float(cell, line) for cell in row[ids:]])
                lines.append(line)
        except csv.Error as exc:  # such as a field over csv's size limit
            raise InputFormatError(str(exc), reader.line_num) from None
    runs = [[cid, len(list(group))] for cid, group in itertools.groupby(cids)]
    return build(runs, np.array(values, dtype=float).reshape(len(values), width - ids), lines)


def _headed(*names, ids=0, finite=False):
    """The layout of a table headed ``names``, its first ``ids`` columns a curve id:
    its build gives (runs, values, lines) as they are, refusing the first cell
    that is not a finite number if ``finite``, and it skips empty records."""

    def layout(header):
        if header != list(names):
            raise InputFormatError(f"header is not {','.join(names)!r}", 1)
        return len(names), ids, build, bool

    def build(runs, values, lines):
        bad = np.argwhere(~np.isfinite(values)) if finite else []
        if len(bad):  # from the bulk parse, without lines, this sends the file to the row loop
            raise InputFormatError(f"{names[ids + bad[0][1]]} must be finite", lines and lines[bad[0][0]])
        return runs, values, lines

    return layout


def _groups(runs, strip=False):
    """{curve id: [(start, stop) of each of its runs of rows]}, ids ``strip``ped if
    asked, in order of first appearance."""
    groups, start = {}, 0
    for cid, size in runs:
        groups.setdefault(cid.strip() if strip else cid, []).append((start, start + size))
        start += size
    return groups


def _rows_of(table, spans):
    """The rows of ``table`` in ``spans``: a view for one span, else a copy."""
    return table[slice(*spans[0])] if len(spans) == 1 else np.concatenate([table[a:b] for a, b in spans])


@_names_its_file
def read_warps_csv(path):
    """{curve id: (t, warp, inverse warp)}, each curve's rows sorted as tuples;
    a cell that is not a finite number is refused with its line."""
    runs, values, _ = _read(path, _headed("curve_id", "t", "warp_value", "inverse_warp_value", ids=1, finite=True))
    out = {}
    for cid, spans in _groups(runs).items():
        rows = _rows_of(values, spans)
        if not (rows[1:, 0] > rows[:-1, 0]).all():  # out of order: sort a copy (np.diff may overflow)
            rows = rows[np.lexsort(rows.T[::-1])]
        out[cid] = (rows[:, 0], rows[:, 1], rows[:, 2])
    return out


@_names_its_file
def read_mean_csv(path) -> DiscreteCurve:
    return DiscreteCurve(*_read(path, _headed("t", "value"))[1].T.copy())


@_names_its_file
def read_template_csv(path):
    return StepCdf(*_read(path, _headed("jump_location", "cum_value"))[1].T.copy())


# ---- curves ------------------------------------------------------------------


@_names_its_file
def read_curves_csv(path):
    """Read curves from wide or long CSV.

    Returns (curve_ids, curves, rescale) where rescale is None or
    (offset, scale) recording an affine map applied to bring times into
    [0,1].
    """
    return _read(path, _curves)


def _curves(header):
    """The layout of a curves file: long or wide by its header, skipping records
    whose cells are all empty."""
    if not header:
        raise InputFormatError("missing header", 1)
    if len(header) >= 3 and [h.lower() for h in header[:3]] == ["curve_id", "t", "value"]:
        return 3, 1, _long_curves, any
    if header[0].lower() == "t" and len(header) >= 2:
        if len(set(header[1:])) != len(header) - 1:
            raise InputFormatError("duplicate curve columns", 1)
        return len(header), 0, functools.partial(_wide_curves, header[1:]), any
    raise InputFormatError(
        "header must be 'curve_id,t,value' (long) or 't,<curve>,...' (wide)", 1
    )


def _rescale_times(t, lines):
    """None, or the (offset, scale) taking the times ``t``, the rows of ``lines``, onto [0, 1]."""
    if not t.size:
        raise InputFormatError("no data rows")
    if not np.isfinite(t).all():
        raise InputFormatError("time must be finite", lines and lines[int(np.argmin(np.isfinite(t)))])
    lo, hi = min(t.tolist()), max(t.tolist())
    if 0.0 <= lo and hi <= 1.0:
        return None
    if hi == lo:
        raise InputFormatError("cannot rescale a single time point")
    if hi - lo == np.inf:
        raise InputFormatError("time span overflows a float; cannot rescale onto [0,1]")
    return (lo, hi - lo)


def _wide_curves(ids, _runs, values, lines):
    """Curves from a wide table: the times, then a column per curve."""
    rescale = _rescale_times(values[:, 0], lines)
    grid = values[:, 0].copy()
    if rescale is not None:
        grid = (grid - rescale[0]) / rescale[1]
    order = np.argsort(grid)
    grid = grid[order]
    if not (np.diff(grid) > 0).all():
        dup_pos = int(np.argmin(np.diff(grid) > 0))
        raise InputFormatError("duplicate time point", lines and lines[order[dup_pos + 1]])
    curves = []
    for j in range(len(ids)):
        try:
            curves.append(DiscreteCurve(grid, values[order, j + 1]))
        except ValueError as exc:
            raise InputFormatError(f"curve {ids[j]!r}: {exc}") from None
    return ids, curves, rescale


def _long_curves(runs, values, lines):
    """Curves from a long table: (t, value) rows grouped by id, ids stripped."""
    rescale = _rescale_times(values[:, 0], lines)
    groups = _groups(runs, strip=True)
    curves = []
    for cid, spans in groups.items():
        t, v = _rows_of(values, spans).T
        if rescale is not None:
            t = (t - rescale[0]) / rescale[1]
        order = np.argsort(t)
        t, v = t[order], v[order]
        if (np.diff(t) <= 0).any():
            dup_pos = int(np.argmin(np.diff(t) > 0))
            line = lines and np.concatenate([lines[a:b] for a, b in spans])[order[dup_pos + 1]]
            raise InputFormatError(f"curve {cid!r}: duplicate time point", line)
        try:
            curves.append(DiscreteCurve(t, v))
        except ValueError as exc:
            raise InputFormatError(f"curve {cid!r}: {exc}") from None
    return list(groups), curves, rescale


# ---- writing -----------------------------------------------------------------


def write_rows(path, header, rows):
    """Write the CSV file ``path``: the cells of ``header``, then ``rows`` as blocks.

    A block is (lead, columns).  ``columns`` have equal lengths; each is a
    float array, its cells written "%.17g", a list of cells written as they
    are, or None for a column of empty cells.  ``lead`` is None or a cell
    that starts every row of the block.  A block with no column but None is
    one row.  Header and lead cells are quoted as ``csv.writer`` quotes them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    quoted = io.StringIO()
    quote = csv.writer(quoted, lineterminator="\n")
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lead, columns in rows:
            cells = ["" if c is None else "%s" if isinstance(c, list) else "%.17g" for c in columns]
            if lead is not None:
                quoted.seek(0)
                quoted.truncate()
                quote.writerow((lead, ""))  # the lead as it is quoted inside a row
                cells.insert(0, quoted.getvalue()[:-2].replace("%", "%%"))
            row = ",".join(cells) + "\n"
            columns = [c if isinstance(c, list) else np.asarray(c, dtype=float) for c in columns if c is not None]
            for start in range(0, len(columns[0]) if columns else 1, _BLOCK_ROWS):
                parts = [c[start:start + _BLOCK_ROWS] for c in columns]
                block = np.empty((len(parts[0]) if parts else 1, len(parts)), dtype=object)
                for j, part in enumerate(parts):
                    block[:, j] = part
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _fmts(values) -> list:
    """The "%.17g" cell of every entry of ``values``, for write_rows to repeat."""
    values = np.asarray(values, dtype=float).tolist()
    return (("%.17g," * len(values)) % tuple(values)).split(",")[:-1]


def write_wide_csv(path, ids, grid, value_columns):
    write_rows(path, ["t"] + list(ids), [(None, [grid, *value_columns])])


def write_long_csv(path, ids, curves):
    def blocks():
        grid = None
        for cid, curve in zip(ids, curves):
            if curve.grid is not grid:  # curves on one grid share its formatted cells
                grid, t = curve.grid, _fmts(curve.grid)
            yield cid, [t, curve.values]

    write_rows(path, ["curve_id", "t", "value"], blocks())


def write_warps_csv(path, ids, warp_values, inverse_warp_values, grid):
    """One row per curve and grid point; the value arrays are sampled on ``grid``."""
    t = _fmts(grid)
    blocks = ((cid, [t, wv, iv]) for cid, wv, iv in zip(ids, warp_values, inverse_warp_values))
    write_rows(path, ["curve_id", "t", "warp_value", "inverse_warp_value"], blocks)


def write_mean_csv(path, mean_curve):
    write_rows(path, ["t", "value"], [(None, [mean_curve.grid, mean_curve.values])])


def write_eigen_csv(path, grid, eigenfunctions):
    header = ["t"] + [f"phi_{j + 1}" for j in range(eigenfunctions.shape[0])]
    write_rows(path, header, [(None, [grid, *eigenfunctions])])


def write_scores_csv(path, ids, score_matrix):
    header = ["curve_id"] + [f"score_{j + 1}" for j in range(score_matrix.shape[1])]
    write_rows(path, header, ((cid, scores[:, None]) for cid, scores in zip(ids, score_matrix)))


def write_template_csv(path, cdf):
    write_rows(path, ["jump_location", "cum_value"], [(None, [cdf.jump_locations, cdf.cum_values])])


def write_report_json(path, report: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
