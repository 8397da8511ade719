"""The block CSV writers and bulk readers against the per-cell ones they replaced.

Writers must give the same bytes and readers bit-identical arrays, or the
same exception with the same message, on tables drawn with awkward values,
ids and layouts.  Named cases pin the inputs where ``np.loadtxt`` and
``float()``/``csv`` part ways.
"""

import csv
import io
import math
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from varireg import dataio
from varireg.cli import main
from varireg.variation import DiscreteCurve, StepCdf

SPECIAL = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           math.inf, -math.inf, math.nan, 0.5, 1.0, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))
UNIT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 0.1]), st.floats(0.0, 1.0))
PLAIN_IDS = st.sampled_from(["a", "curve_1", "curve_10", " lead", "trail ", " both ", "ünï", "", "%s", "%%d", "#1"])
IDS = st.one_of(
    PLAIN_IDS,
    st.sampled_from(["a,b", 'q"t', '"', "x\ny", "r\rs", "é,\"ü\""]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=5),
)


def id_lists(max_size, min_size=1, unique=False):
    """Ids that CSV writes as they are, or any ids."""
    return st.sampled_from([PLAIN_IDS, IDS]).flatmap(
        lambda ids: st.lists(ids, min_size=min_size, max_size=max_size, unique=unique)
    )
# how a drawn number cell may be damaged: each is read by float() or csv
# differently from np.loadtxt, or not at all
CELL_QUIRKS = [
    lambda c: "",
    lambda c: " ",
    lambda c: c + "#1",
    lambda c: "1_0",
    lambda c: f'"{c}"',
    lambda c: c + "\x1c",
    lambda c: "\x1f" + c,
    lambda c: f" {c}\t",
    lambda c: " " + c,
    lambda c: "nan(1)",
    lambda c: "0x1p-2",
    lambda c: "١",
    lambda c: c + ",0",
    lambda c: "﻿" + c,
]


def csv_cell(text):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


@st.composite
def csv_text(draw, header, rows):
    """The CSV text of ``header`` and ``rows`` (lists of cell texts), maybe damaged."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(1, 2)) if draw(st.booleans()) else 0):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "drop", "blank", "space_line"]))
        if kind == "cell" and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(st.sampled_from(CELL_QUIRKS))(rows[i][j])
        elif kind == "drop" and rows[i]:
            rows[i].pop()
        elif kind in ("blank", "space_line"):
            rows.insert(i, [] if kind == "blank" else ["   "])
    lines = [",".join(csv_cell(h) for h in header)] + [",".join(r) for r in rows]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return draw(st.sampled_from([""] * 7 + ["﻿"])) + text


def bits(x):
    """A comparable form of a reader's result: float arrays by their bits."""
    if isinstance(x, np.ndarray):
        return ("array", x.shape, np.ascontiguousarray(x, dtype=float).view(np.uint64).tolist())
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, DiscreteCurve):
        return ("curve", bits(x.grid), bits(x.values))
    if isinstance(x, StepCdf):
        return ("cdf", bits(x.jump_locations), bits(x.cum_values))
    if isinstance(x, dict):
        return ("dict", [(k, bits(v)) for k, v in x.items()])
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [bits(v) for v in x])
    return x


def outcome(read, path):
    try:
        return bits(read(path))
    except Exception as exc:  # the exception itself is the outcome compared
        return ("raised", type(exc), str(exc))


def read_outcome(name, text, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8", newline="")
        return outcome(read, path)


def assert_reads_alike(name, text, read, oracle):
    assert read_outcome(name, text, read) == read_outcome(name, text, oracle)


num = oracles.per_cell_fmt


WARPS_HEADER = ["curve_id", "t", "warp_value", "inverse_warp_value"]


@st.composite
def warps_text(draw):
    ids = draw(id_lists(4))
    rows = draw(st.lists(st.tuples(st.sampled_from(ids), FLOATS, FLOATS, FLOATS), max_size=30))
    if draw(st.booleans()):  # each curve's rows together, as the CLI writes them
        rows.sort(key=lambda r: ids.index(r[0]))
    if rows and draw(st.booleans()):  # a repeated time
        rows.append((rows[0][0], rows[0][1], *draw(st.tuples(FLOATS, FLOATS))))
    return draw(csv_text(WARPS_HEADER, [[csv_cell(c), num(t), num(w), num(v)] for c, t, w, v in rows]))


@st.composite
def two_column_text(draw, header, valid):
    """A template or mean table: sorted unit-interval columns, or any floats."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 25))
        x = np.sort(np.array(draw(st.lists(UNIT, min_size=n, max_size=n)), dtype=float))
        y = np.sort(np.array(draw(st.lists(UNIT, min_size=n, max_size=n)), dtype=float))
        if valid and n:
            y[-1] = 1.0
        rows = list(zip(x.tolist(), y.tolist()))
    else:
        rows = draw(st.lists(st.tuples(FLOATS, FLOATS), max_size=20))
    return draw(csv_text(header, [[num(a), num(b)] for a, b in rows]))


@st.composite
def long_text(draw):
    ids = draw(id_lists(3, unique=True))
    # mostly curves that validate: unique times and finite values
    times = draw(st.sampled_from([UNIT, st.floats(-2.0, 3.0), st.one_of(UNIT, FLOATS)]))
    values = draw(st.sampled_from([st.floats(-5, 5), st.one_of(st.floats(-5, 5), FLOATS)]))
    rows = []
    for cid in ids:
        size = draw(st.integers(3, 8) | st.integers(0, 8))
        t = draw(st.lists(times, min_size=size, max_size=size, unique=draw(st.integers(0, 3)) > 0))
        v = draw(st.lists(values, min_size=size, max_size=size))
        rows += [(cid, a, b) for a, b in zip(t, v)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    header = draw(st.sampled_from([["curve_id", "t", "value"], ["Curve_ID", "T", "Value", "extra"]]))
    return draw(csv_text(header, [[csv_cell(c), num(t), num(v)] for c, t, v in rows]))


@st.composite
def wide_text(draw):
    ids = draw(id_lists(3, unique=True) | id_lists(3))
    size = draw(st.integers(3, 8) | st.integers(0, 8))
    times = draw(st.sampled_from([UNIT, st.floats(-2.0, 3.0), st.one_of(UNIT, FLOATS)]))
    values = draw(st.sampled_from([st.floats(-5, 5), st.one_of(st.floats(-5, 5), FLOATS)]))
    t = draw(st.lists(times, min_size=size, max_size=size, unique=draw(st.integers(0, 3)) > 0))
    rows = [[num(x)] + [num(draw(values)) for _ in ids] for x in t]
    return draw(csv_text(["t"] + ids, rows))


@given(warps_text())
def test_read_warps_matches_per_cell_reader(text):
    assert_reads_alike("warps.csv", text, dataio.read_warps_csv, oracles.per_cell_read_warps_csv)


@given(two_column_text(["jump_location", "cum_value"], valid=True))
def test_read_template_matches_per_cell_reader(text):
    assert_reads_alike("template.csv", text, dataio.read_template_csv, oracles.per_cell_read_template_csv)


@given(two_column_text(["t", "value"], valid=False))
def test_read_mean_matches_per_cell_reader(text):
    assert_reads_alike("mean.csv", text, dataio.read_mean_csv, oracles.per_cell_read_mean_csv)


@given(st.one_of(long_text(), wide_text()))
def test_read_curves_matches_per_cell_reader(text):
    assert_reads_alike("curves.csv", text, dataio.read_curves_csv, oracles.per_cell_read_curves_csv)


def _long_warps_text(rng, n_curves=7, size=1500):
    """A warps table longer than one read chunk, rows interleaved and unsorted."""
    rows = [(f"c{i % n_curves}", *rng.random(3).tolist()) for i in range(size)]
    rows += [(cid, t, w + 1.0, v) for cid, t, w, v in rows[:20]]  # repeated times
    return "\n".join([",".join(WARPS_HEADER)] + [",".join([c] + [num(x) for x in r]) for c, *r in rows]) + "\n"


@pytest.mark.parametrize("seed", [0, 1])
def test_read_long_interleaved_unsorted_warps(seed):
    text = _long_warps_text(np.random.default_rng(seed))
    assert_reads_alike("warps.csv", text, dataio.read_warps_csv, oracles.per_cell_read_warps_csv)
    text = text.replace("\n", "\r\n")
    assert_reads_alike("warps.csv", text, dataio.read_warps_csv, oracles.per_cell_read_warps_csv)


# rows read by the bulk path only if the rows' order and the text are handled
# as the per-cell reader handles them
NAMED_TABLES = {
    "warps_quoted_id": ("warps.csv", 'curve_id,t,warp_value,inverse_warp_value\n"q""t",0,0,0\n"q""t",1,1,1\n'),
    "warps_nan_time_unsorted": ("warps.csv", "curve_id,t,warp_value,inverse_warp_value\n"
                                "a,0.5,1,1\na,nan,0,0\na,0.25,2,2\na,nan,3,3\na,0,4,4\n"),
    "warps_runs_split_and_spaced": ("warps.csv", "curve_id,t,warp_value,inverse_warp_value\n"
                                    "a,0,0,0\n a,0.5,1,1\nb,0,0,0\na,1,1,1\nb,1,1,1\n"),
    "warps_cell_over_csv_field_limit": ("warps.csv", "curve_id,t,warp_value,inverse_warp_value\n"
                                        f"a,0,0,0\na,0.{'0' * 140000}5,1,1\na,1,1,1\n"),
    "long_quoted_id": ("long.csv", 'curve_id,t,value\n"q""t",0,1\n"q""t",0.5,2\n"q""t",1,3\n'),
    "long_nan_time_not_first": ("long.csv", "curve_id,t,value\na,0.5,1\na,nan,2\na,2,3\na,3,1\n"),
    "long_nan_time_first": ("long.csv", "curve_id,t,value\na,nan,1\na,0.5,2\na,2,3\na,3,1\n"),
    "long_zero_signs": ("long.csv", "curve_id,t,value\na,0,1\nb,-0,2\na,2,3\na,1,1\nb,2,1\nb,1,1\n"),
    "long_negative_zero_first": ("long.csv", "curve_id,t,value\na,-0,1\nb,0,2\na,2,3\na,1,1\nb,2,1\nb,1,1\n"),
    "long_spaced_ids": ("long.csv", "curve_id,t,value\na,0,1\n a ,0.5,2\na,1,3\n"),
    "wide_quoted_header": ("wide.csv", 't,"a,b","c\nd"\n0,1,2\n0.5,3,4\n1,5,6\n'),
    "wide_header_over_two_lines": ("wide.csv", 't,"a\n",b\n0,1,2\n0.5,3,4\n1,5,6\n'),
}


# where the reader parts from the per-cell one on purpose: there csv's own error escaped
NAMED_ERRORS = {
    "warps_cell_over_csv_field_limit": "cannot read warps.csv: line 3: field larger than field limit (131072)",
}


@pytest.mark.parametrize("case", sorted(NAMED_TABLES))
def test_named_tables_read_as_per_cell(case):
    name, text = NAMED_TABLES[case]
    read, oracle = VALID[name][:2]
    if case in NAMED_ERRORS:
        assert read_outcome(name, text, read) == ("raised", dataio.InputFormatError, NAMED_ERRORS[case])
    else:
        assert_reads_alike(name, text, read, oracle)


def _curves_as_rows(ids, grid, values):
    return "\n".join(["curve_id,t,value"] + [f"{c},{num(t)},{num(v)}" for c in ids for t, v in zip(grid, values)]) + "\n"


# a valid file of each table, and what each trap does to its first data row
VALID = {
    "warps.csv": (dataio.read_warps_csv, oracles.per_cell_read_warps_csv,
                  "curve_id,t,warp_value,inverse_warp_value\na,0,0,0\na,0.5,0.25,0.75\na,1,1,1\n"),
    "template.csv": (dataio.read_template_csv, oracles.per_cell_read_template_csv,
                     "jump_location,cum_value\n0.25,0.5\n0.5,0.75\n1,1\n"),
    "mean.csv": (dataio.read_mean_csv, oracles.per_cell_read_mean_csv, "t,value\n0,1\n0.5,2\n1,3\n"),
    "long.csv": (dataio.read_curves_csv, oracles.per_cell_read_curves_csv,
                 _curves_as_rows(["a", "b"], [0.0, 0.5, 1.0], [1.0, 2.0, 3.0])),
    "wide.csv": (dataio.read_curves_csv, oracles.per_cell_read_curves_csv, "t,a,b\n0,1,2\n0.5,3,4\n1,5,6\n"),
}
TRAPS = {
    "extra_field": lambda lines: [lines[0], lines[1] + ",0", *lines[2:]],
    "hash_in_cell": lambda lines: [lines[0], lines[1].replace(",", "#,", 1) + "#", *lines[2:]],
    "whitespace_line": lambda lines: [lines[0], "   ", *lines[1:]],
    "crlf": lambda lines: ["\r\n".join(lines)],
    "bom": lambda lines: ["﻿" + lines[0], *lines[1:]],
    "bom_in_data": lambda lines: [lines[0], "﻿" + lines[1], *lines[2:]],
    "empty_cell": lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",", *lines[2:]],
    "underscore": lambda lines: [lines[0], lines[1] + "_0", *lines[2:]],
    "unit_separator": lambda lines: [lines[0], lines[1] + "\x1f", *lines[2:]],
    "nbsp": lambda lines: [lines[0], lines[1] + " ", *lines[2:]],
    "quoted_number": lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ',"1"', *lines[2:]],
    "blank_line": lambda lines: [lines[0], "", *lines[1:]],
    "no_final_newline": lambda lines: lines[:-1],
    "header_only": lambda lines: lines[:1] + [""],
}


@pytest.mark.parametrize("trap", sorted(TRAPS))
@pytest.mark.parametrize("name", sorted(VALID))
def test_loadtxt_traps_keep_the_per_cell_outcome(name, trap):
    read, oracle, text = VALID[name]
    assert_reads_alike(name, "\n".join(TRAPS[trap](text.split("\n"))), read, oracle)


def test_warps_row_with_five_fields_exits_2(tmp_path, capsys):
    sim, run = tmp_path / "sim", tmp_path / "run"
    assert main(["simulate", "--model", "model1", "--n", "4", "--r", "21", "--seed", "1", "--out", str(sim)]) == 0
    assert main(["register", str(sim / "observed.csv"), "--out", str(run)]) == 0
    lines = (run / "warps.csv").read_text().splitlines()
    lines[5] += ",0"
    (run / "warps.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["diagnose", str(run), "--out", str(tmp_path / "dia")]) == 2
    assert "cannot read warps.csv: line 6: expected 4 fields, got 5" in capsys.readouterr().err


NON_FINITE_TIMES = {
    "wide_nan_first": ("t,a,b\nnan,1,2\n2,3,4\n3,5,6\n4,1,1\n", 2),
    "wide_inf_later": ("t,a,b\n0,1,2\n0.5,3,4\ninf,5,6\n2,1,1\n", 4),
    "long_minus_inf_first": ("curve_id,t,value\na,-inf,1\na,0.5,2\na,1,3\nb,0,1\nb,0.5,2\nb,1,3\n", 2),
    "long_nan_later": ("curve_id,t,value\na,0,1\na,0.5,2\na,2,3\nb,0,1\nb,nan,2\nb,1,1\nb,2,1\n", 6),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_TIMES))
def test_non_finite_time_exits_2_on_its_own_line(case, tmp_path, capsys):
    # not as a duplicate time point on another row's line, and without a warning
    text, line = NON_FINITE_TIMES[case]
    (tmp_path / "curves.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["register", str(tmp_path / "curves.csv"), "--out", str(tmp_path / "run")]) == 2
    assert f"cannot read curves.csv: line {line}: time must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---- writers -----------------------------------------------------------------


def assert_writes_alike(write, oracle, *args):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        write(new, *args)
        oracle(old, *args)
        assert new.read_bytes() == old.read_bytes()


def arrays(n):
    return st.lists(FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))


@st.composite
def sample(draw, min_curves=1):
    """(ids, grid, rows): rows of values on ``grid``."""
    ids = draw(id_lists(4, min_curves))
    size = draw(st.integers(0, 12))
    return ids, draw(arrays(size)), [draw(arrays(size)) for _ in ids]


@given(sample())
def test_write_wide_matches_per_cell_writer(s):
    assert_writes_alike(dataio.write_wide_csv, oracles.per_cell_write_wide_csv, *s)


@given(sample(), st.sampled_from(["shared", "copies", "own"]), st.data())
def test_write_long_matches_per_cell_writer(s, grids, data):
    ids, grid, rows = s
    own = {"shared": lambda: grid, "copies": grid.copy, "own": lambda: data.draw(arrays(grid.size))}[grids]
    curves = [SimpleNamespace(grid=own(), values=v) for v in rows]
    assert_writes_alike(dataio.write_long_csv, oracles.per_cell_write_long_csv, ids, curves)


@given(sample(), st.data())
def test_write_warps_matches_per_cell_writer(s, data):
    ids, grid, rows = s
    inverse = [data.draw(arrays(grid.size)) for _ in ids]
    assert_writes_alike(dataio.write_warps_csv, oracles.per_cell_write_warps_csv, ids, rows, inverse, grid)


@given(sample(min_curves=0))
def test_write_mean_template_eigen_scores_match_per_cell_writers(s):
    ids, grid, rows = s
    table = np.array(rows).reshape(len(rows), grid.size)
    assert_writes_alike(dataio.write_mean_csv, oracles.per_cell_write_mean_csv, SimpleNamespace(grid=grid, values=grid[::-1]))
    cdf = SimpleNamespace(jump_locations=grid, cum_values=grid[::-1])
    assert_writes_alike(dataio.write_template_csv, oracles.per_cell_write_template_csv, cdf)
    if rows:
        assert_writes_alike(dataio.write_eigen_csv, oracles.per_cell_write_eigen_csv, grid, table)
    if grid.size:
        assert_writes_alike(dataio.write_scores_csv, oracles.per_cell_write_scores_csv, ids, table)


@given(id_lists(5), st.data())
def test_metrics_rows_match_per_cell_writer(ids, data):
    """metrics.csv as ``cmd_diagnose`` writes it, a column left empty where it has no values."""
    n = len(ids)
    columns = [data.draw(st.none() | arrays(n)) for _ in range(3)]
    header = ["curve_id", "z_stat", "warp_sup_error", "curve_rel_l2_error"]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        dataio.write_rows(new, header, ((cid, [None if v is None else v[i:i + 1] for v in columns])
                                        for i, cid in enumerate(ids)))
        cells = [[oracles.per_cell_fmt(x) for x in v] if v is not None else [""] * n for v in columns]
        oracles.per_cell_write_rows(old, header, zip(ids, *cells))
        assert new.read_bytes() == old.read_bytes()


def test_write_rows_spans_several_blocks(tmp_path):
    grid = np.linspace(0.0, 1.0, 3 * dataio._BLOCK_ROWS + 7)
    assert_writes_alike(dataio.write_warps_csv, oracles.per_cell_write_warps_csv,
                        ["a", "b,c"], [grid**2, grid**3], [np.sqrt(grid), grid], grid)


# ---- memory ------------------------------------------------------------------


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_warps_and_write_template_peaks_stay_below_file_size(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--model", "model1", "--n", "100", "--r", "101", "--seed", "3",
                 "--noise", "0.1", "--out", str(sim)]) == 0
    warps = sim / "truth_warps.csv"
    assert _peak(lambda: dataio.read_warps_csv(warps)) < warps.stat().st_size

    rng = np.random.default_rng(7)
    jumps = 51001
    locs = np.sort(rng.random(jumps))
    locs[-1] = 1.0
    cums = np.cumsum(rng.random(jumps))
    cdf = StepCdf(locs, cums / cums[-1])
    out = tmp_path / "template.csv"
    peak = _peak(lambda: dataio.write_template_csv(out, cdf))
    assert peak < out.stat().st_size
    assert dataio.read_template_csv(out).jump_locations.size == jumps
