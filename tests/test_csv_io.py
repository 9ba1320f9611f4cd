"""The expression CSV's two read paths, and the CSV writer.

``read_expression_csv`` parses plain files with numpy's C reader
(``expression._parse_fast``), checks the result as an ``ExpressionMatrix``,
and leaves everything else to the ``csv`` loop (``expression._parse_csv``),
the only place that reports errors. The fast path may decline any file, but what the
matrix accepts from it must read exactly as the loop reads it.
"""

import csv
import importlib.util
import math
import re
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profilerank as pr
from profilerank import cli, expression
from profilerank.errors import DataError, csv_records, write_csv
from profilerank.outputs import _fmt
from profilerank.ranking import (
    _DEGENERATE, _INSUFFICIENT, _NONFINITE, _VIOLATED, REASONS, RankedTable, ScoreTable,
)

ARRAYS = ("a1", "a2")
HEADER = "gene_id,a1,a2\n"


def _reference(path, array_ids):
    """What the csv loop alone makes of a file: an ExpressionMatrix or the
    message of the error it raises."""
    try:
        gene_ids, values = expression._parse_csv(path, array_ids)
        return pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=array_ids, values=values)
    except DataError as exc:
        return str(exc)


def _fast_matrix(path, array_ids):
    """The fast path's parse as an ExpressionMatrix; None where it declines
    the file or the matrix rejects the parse."""
    fast = expression._parse_fast(path, array_ids)
    try:
        return fast and pr.ExpressionMatrix(gene_ids=fast[0], array_ids=array_ids,
                                            values=fast[1])
    except DataError:
        return None


def _read(path, array_ids):
    try:
        return pr.read_expression_csv(path, array_ids)
    except DataError as exc:
        return str(exc)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    _assert_same_parse((got.gene_ids, got.values), (want.gene_ids, want.values))


def _assert_same_parse(got, want):
    (got_ids, got_values), (want_ids, want_values) = got, want
    assert got_ids == want_ids
    missing = np.isnan(want_values)
    assert np.array_equal(np.isnan(got_values), missing)
    assert np.array_equal(got_values[~missing].view(np.uint64),
                          want_values[~missing].view(np.uint64))


# ---------------------------------------------------------------------------
# the fast path agrees with the loop on every file
# ---------------------------------------------------------------------------

_PLAIN_IDS = st.text("ABCXYZabcxyz0189_.-", min_size=1, max_size=5)
_ODD_IDS = st.sampled_from(
    ["", " g", "g\t", "g\xa0", '"g"', '"q,1"', '"a\rb"', "é", "#g", "NA", "g\x00", "١",
     "g\x01x", "g\x0cy", "g\uffff", "g 1", "g\t1",
     # where str.splitlines would break a line, and the csv reader would not
     "g\x0by", "g\x85y", "g\u2028y", "g\u2029y"]
)
_PLAIN_VALUES = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.just("NA")
_ODD_VALUES = st.sampled_from([
    "", " NA", "NA ", " 1.5", "2.5 ", "\t3", '"4.0"', "nan", "NaN", "-nan", "inf",
    "-inf", "Infinity", "1e400", "-1e400", "1_0", "#1", "١", "١.٥", "0x10", "-NA",
    "+NA", "NA1", "NANA", "NAN", "na", "\xa01", "5e-324", "1e-320", ".5", "5.", "-0.0",
    "1\x00", " ", "\x1c1", "NA\t",
])


_ODD_HEADERS = st.sampled_from(
    ["gene_id,a1,a2\r\n", '"gene_id",a1,a2\n', "gene_id,a2,a1\n", "gene_id,a1\n", ""])
_ODD_BLANKS = st.sampled_from(["\n", "\r\n", "  \n", ",\n"])
# Values come in the most kinds, so they are edited most often.
_EDITS = ("id", "duplicate-id", "value", "value", "value", "field-count", "line-end",
          "blank-line", "header")


@st.composite
def _expression_files(draw):
    """``(text, plain)``: a file for ARRAYS of plain ids, plain numbers and
    NA with ``\\n`` line ends, which the fast path must take, and unless
    ``plain``, one to three unusual edits to it."""
    n_rows = draw(st.integers(1, 5))
    ids = draw(st.lists(_PLAIN_IDS, min_size=n_rows, max_size=n_rows, unique=True))
    rows = [[gene_id, *draw(st.lists(_PLAIN_VALUES, min_size=2, max_size=2))] for gene_id in ids]
    header, ends, blanks = HEADER, ["\n"] * n_rows, [""] * n_rows
    plain = draw(st.booleans())
    for _ in range(0 if plain else draw(st.integers(1, 3))):
        i, edit = draw(st.integers(0, n_rows - 1)), draw(st.sampled_from(_EDITS))
        if edit == "id":
            rows[i][0] = draw(_ODD_IDS)
        elif edit == "duplicate-id":
            rows[i][0] = draw(st.sampled_from(ids))
        elif edit == "value":
            rows[i][draw(st.integers(1, len(rows[i]) - 1))] = draw(_ODD_VALUES)
        elif edit == "field-count":
            rows[i] = rows[i][:2] if draw(st.booleans()) else [*rows[i], draw(_PLAIN_VALUES)]
        elif edit == "line-end":
            ends[i] = "\r\n"
        elif edit == "blank-line":
            blanks[i] = draw(_ODD_BLANKS)
        else:
            header = draw(_ODD_HEADERS)
    text = header + "".join(",".join(row) + end + blank
                            for row, end, blank in zip(rows, ends, blanks))
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    return text, plain


@settings(max_examples=500, deadline=None)
@given(case=_expression_files())
def test_fast_path_declines_or_agrees_with_the_loop(case):
    text, plain = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "expr.csv")
        path.write_text(text, encoding="utf-8", newline="")
        want = _reference(path, ARRAYS)
        fast = _fast_matrix(path, ARRAYS)
        got = _read(path, ARRAYS)
    if plain:
        assert fast is not None
    if fast is not None:
        _assert_same(fast, want)
    _assert_same(got, want)


# ---------------------------------------------------------------------------
# one test per decline trigger
# ---------------------------------------------------------------------------

_LONG_ID = "g" * 70000  # with a long value, a line beyond the field limit
# Files that the fast path declines.
_DECLINED = {
    # scanned per line
    "quote": HEADER + '"g1",1.0,2.0\n',
    "blank-line": HEADER + "g1,1.0,2.0\n\ng2,3.0,4.0\n",
    "carriage-return-blank-line": HEADER + "g1,1.0,2.0\r\r\ng2,3.0,4.0\n",
    "id-only-line": HEADER + "g1\n",
    "long-line": HEADER + f"{_LONG_ID},1.{'0' * 70000},2.0\n",
    "no-data-rows": HEADER,
    # loadtxt errors
    "trailing-comma": HEADER + "g1,1.0,\n",
    "double-comma": HEADER + "g1,,2.0\n",
    "space-only-value": HEADER + "g1, ,2.0\n",
    "nul-in-a-value": HEADER + "g1,1.0\x00,2.0\n",
    "na-inside-a-field": HEADER + "g1,-NA,2.0\n",
    "loadtxt-error": HEADER + "g1,1_0,2.0\n",
    "non-ascii-digit": HEADER + "g1,١,2.0\n",
    "field-count-changes": HEADER + "g1,1.0,2.0\ng2,3.0\n",
    # found after parsing
    "inf": HEADER + "g1,inf,2.0\n",
    "overflow": HEADER + "g1,1e400,2.0\n",
    "nan-not-na": HEADER + "g1,nan,2.0\n",
}
# Files that the fast path parses but ExpressionMatrix rejects, so the read
# falls back to the loop.
_REJECTED = {
    "leading-comma": HEADER + ",1.0,2.0\n",
    "nul": HEADER + "g\x001,1.0,2.0\n",
    "carriage-return-mid-line": HEADER + "g1,1.0\r,2.0\n",
    "id-with-unicode-space": HEADER + "g1\xa0,1.0,2.0\n",
    "every-row-too-wide": HEADER + "g1,1.0,2.0,3.0\ng2,4.0,5.0,6.0\n",
    "duplicate-id": HEADER + "g1,1.0,2.0\ng2,3.0,4.0\ng1,5.0,6.0\n",
    "id-not-xml": HEADER + "g1,1.0,2.0\ng\x01x,3.0,4.0\ng\x0cy,5.0,6.0\n",
    "id-noncharacter": HEADER + "g\ufffe,1.0,2.0\n",
}


# Files that the fast path takes: lines end at "\r", "\n" or "\r\n", as
# the csv loop's records do, a leading byte-order mark is not read, and
# whitespace around a value is stripped, as the loop strips it.
_TAKEN = {
    "byte-order-mark": "\ufeff" + HEADER + "g1,1.0,NA\ng2,3.0,4.0\n",
    "carriage-return": HEADER + "g1,1.0,2.0\r\ng2,3.0,4.0\r\n",
    "crlf-header": "gene_id,a1,a2\r\ng1,1.0,2.0\n",
    "carriage-return-only": "gene_id,a1,a2\rg1,1.0,NA\rg2,3.0,4.0\r",
    "mixed-line-ends": "gene_id,a1,a2\r\ng1,1.0,2.0\rg2,NA,4.0\ng3,5.0,6.0\r\n",
    "trailing-carriage-return": HEADER + "g1,1.0,2.0\ng2,3.0,4.0\r",
    "space": HEADER + "g1, 1.0,2.0\n",
    "tab": HEADER + "g1,1.0\t,2.0\n",
    "na-trailing-space": HEADER + "g1,NA ,2.0\n",
}


@pytest.mark.parametrize("text", _TAKEN.values(), ids=_TAKEN)
def test_fast_path_takes(tmp_path, text):
    path = tmp_path / "expr.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _reference(path, ARRAYS)
    assert not isinstance(want, str), want
    fast = _fast_matrix(path, ARRAYS)
    assert fast is not None
    _assert_same(fast, want)
    _assert_same(_read(path, ARRAYS), want)


@pytest.mark.parametrize("text, parsed", [*((t, False) for t in _DECLINED.values()),
                                          *((t, True) for t in _REJECTED.values())],
                         ids=[*_DECLINED, *_REJECTED])
def test_fast_path_declines(tmp_path, text, parsed):
    # The read takes no fast result that _parse_fast declines or that
    # ExpressionMatrix rejects; either way the loop reads the file.
    path = tmp_path / "expr.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert (expression._parse_fast(path, ARRAYS) is not None) == parsed
    assert _fast_matrix(path, ARRAYS) is None
    _assert_same(_read(path, ARRAYS), _reference(path, ARRAYS))


def test_fast_path_declines_empty_values_of_a_one_array_file(tmp_path):
    # Each line "g1," holds a body of "\n" alone, which loadtxt would read
    # as no data, with a warning, had the fast path taken it.
    path = tmp_path / "expr.csv"
    path.write_text("gene_id,a1\ng1,\ng2,\n", encoding="utf-8", newline="")
    assert expression._parse_fast(path, ("a1",)) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pr.read_expression_csv(path, ("a1",))
    assert got.values.shape == (2, 1) and np.isnan(got.values).all()
    _assert_same(got, _reference(path, ("a1",)))


def test_a_plain_read_checks_its_ids_once(tmp_path, monkeypatch):
    path = tmp_path / "expr.csv"
    path.write_text(HEADER + "g1,1.0,2.0\ng2,NA,4.0\n", encoding="utf-8")
    calls = {"check_gene_ids": 0, "_ids_unique": 0}
    for name in calls:
        def counted(ids, check=getattr(expression, name), name=name):
            calls[name] += 1
            return check(ids)
        monkeypatch.setattr(expression, name, counted)
    assert pr.read_expression_csv(path, ARRAYS).gene_ids == ("g1", "g2")
    assert calls == {"check_gene_ids": 1, "_ids_unique": 1}


def test_fast_path_raises_a_decode_error_past_the_first_chunk(tmp_path):
    # Far past the first read, so the error comes from inside np.loadtxt.
    path = tmp_path / "expr.csv"
    lines = [HEADER.encode()] + [f"g{i},1.0,2.0\n".encode() for i in range(5000)]
    lines[4000] = b"g\xe9,1.0,2.0\n"
    path.write_bytes(b"".join(lines))
    for read in (expression._parse_fast, pr.read_expression_csv):
        with pytest.raises(DataError, match=r"expr.csv:4001: not UTF-8 text: byte 0xe9"):
            read(path, ARRAYS)


_INF_ON_LINE_2 = "g1,1.0,inf\ng2,3.0,4.0\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (HEADER + _INF_ON_LINE_2 + "g3,5.0\n", "expr.csv:2: column 3: not a finite number"),
        (HEADER + _INF_ON_LINE_2 + "g3,wat,6.0\n", "expr.csv:2: column 3: not a finite number"),
        (HEADER + _INF_ON_LINE_2 + ",5.0,6.0\n", "expr.csv:2: column 3: not a finite number"),
        (HEADER + _INF_ON_LINE_2 + "g1,5.0,6.0\n", "expr.csv:2: column 3: not a finite number"),
        (HEADER + _INF_ON_LINE_2 + '"g3,5.0,6.0\n', "expr.csv:2: column 3: not a finite number"),
        (HEADER + "g1,1e400,wat\n", "expr.csv:2: column 2: not a finite number"),
        (HEADER + "g1,wat,inf\n", "expr.csv:2: column 2: not a number: 'wat'"),
        (HEADER + "g1,1.0\ng2,inf,4.0\n", "expr.csv:2: expected 3 fields, got 2"),
    ],
    ids=["field-count", "not-a-number", "empty-id", "duplicate-id", "open-quote",
         "same-line", "same-line-reversed", "structural-error-first"],
)
def test_the_first_problem_in_file_order_is_reported(tmp_path, text, error):
    # Finiteness is checked after reading, but an earlier non-finite value
    # still wins over an error found later in the file.
    path = tmp_path / "expr.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(DataError, match="^" + re.escape(f"{path.parent}/{error}")):
        pr.read_expression_csv(path, ARRAYS)


_MULTI_LINE_ID = '"g\n1",1.0,2.0\n'


@pytest.mark.parametrize(
    "text, error",
    [
        (HEADER + _MULTI_LINE_ID + "g2,wat,2.0\n", "expr.csv:4: column 2: not a number: 'wat'"),
        (HEADER + "g0,1.0,2.0\n" + _MULTI_LINE_ID * 2,
         "expr.csv:5: column 1: gene id 'g\\n1' is not unique, it is also on line 3"),
        (HEADER + _MULTI_LINE_ID + "g2,1.0\n", "expr.csv:4: expected 3 fields, got 2"),
        (HEADER + _MULTI_LINE_ID + '"g2"x,1.0,2.0\n',
         "expr.csv:4: text follows the closing quote of a field"),
        (HEADER + _MULTI_LINE_ID + '"g2,1.0,2.0\ng3,1.0,2.0\n',
         "expr.csv:4: a quote is not closed before the end of the file"),
        (HEADER + _MULTI_LINE_ID + 'g2,1.0,"2.0" \n',
         "expr.csv:4: text follows the closing quote of a field"),
    ],
    ids=["value", "duplicate-id", "field-count", "text-after-quote", "open-quote",
         "space-after-quote"],
)
def test_a_record_is_named_by_its_first_line(tmp_path, text, error):
    # A quoted id may hold a line feed, so a record's index is not its line.
    path = tmp_path / "expr.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(DataError, match="^" + re.escape(f"{path.parent}/{error}")):
        pr.read_expression_csv(path, ARRAYS)


@pytest.mark.parametrize(
    "line, gene_id, values",
    [
        (' "g1",1.0,2.0\n', "g1", [1.0, 2.0]),
        (' "g,1",1.0,2.0\n', "g,1", [1.0, 2.0]),
        ('  "g1", "1.0",  "NA"\n', "g1", [1.0, math.nan]),
        ('g1, "",2.0\n', "g1", [math.nan, 2.0]),
    ],
    ids=["id", "id-with-comma", "every-field", "empty-value"],
)
def test_spaces_before_an_opening_quote_are_skipped(tmp_path, line, gene_id, values):
    # The quote opens the field as it would at the very start, so neither
    # the quotes nor a comma inside them change the record.
    path = tmp_path / "expr.csv"
    path.write_text(HEADER + line, encoding="utf-8", newline="")
    got = pr.read_expression_csv(path, ARRAYS)
    assert got.gene_ids == (gene_id,)
    np.testing.assert_array_equal(got.values, [values])


@pytest.mark.parametrize(
    "line, column",
    [
        (' \t"g1",1.0,2.0\n', 1),
        ('g1,\t"1.0",2.0\n', 2),
        ('\t"g,1",1.0,2.0\n', 1),
        ('g1,1.0,\t "2.0"\n', 3),
    ],
    ids=["id", "value", "id-with-comma", "tab-then-space"],
)
def test_a_tab_before_an_opening_quote_is_an_error(tmp_path, line, column):
    # The reader skips only spaces before a quote: after a tab it would keep
    # the quotes as text, and a comma inside them would split the field.
    path = tmp_path / "expr.csv"
    path.write_text(HEADER + _MULTI_LINE_ID + line, encoding="utf-8", newline="")
    with pytest.raises(DataError, match="^" + re.escape(
            f"{path}:4: column {column}: '\\t' comes before the opening quote of a field")):
        pr.read_expression_csv(path, ARRAYS)


def test_a_space_after_a_closing_quote_stays_an_error(tmp_path):
    path = tmp_path / "expr.csv"
    path.write_text(HEADER + ' "g1" ,1.0,2.0\n', encoding="utf-8", newline="")
    with pytest.raises(DataError, match=re.escape(
            "expr.csv:2: text follows the closing quote of a field")):
        pr.read_expression_csv(path, ARRAYS)


def test_benchmark_file_takes_the_fast_path(tmp_path, monkeypatch, stemcell_design):
    # The benchmark's own input generator at its default seed, complete and
    # with 5% NA, at 2000 genes instead of 20 000 to keep the test quick.
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(workloads, "GENES", 2000)
    array_ids = stemcell_design.array_ids
    paths = [workloads.generate_inputs(workloads.DEFAULT_SEED, missing, tmp_path / str(i)).expression
             for i, missing in enumerate((0.0, workloads.MISSING_FRACTION))]
    wants = [_reference(path, array_ids) for path in paths]

    def loop_called(*args):
        raise AssertionError("the csv loop ran on a benchmark-format file")

    monkeypatch.setattr(expression, "_parse_csv", loop_called)
    for path, want in zip(paths, wants):
        got = pr.read_expression_csv(path, array_ids)
        assert got.n_genes == 2000
        assert np.isnan(got.values).sum() == path.read_text(encoding="utf-8").count("NA")
        _assert_same(got, want)
    assert np.isnan(got.values).any()


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------


def test_write_csv_quotes_a_lone_carriage_return(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["gene_id", "x"], [["a\rb", "1"]])
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["gene_id", "x"], ["a\rb", "1"]]


# Surrounding whitespace is left out: csv_records strips it.
@pytest.mark.parametrize("field", ["plain", "a,b", 'say "hi"', "a\nb", "a\rb", "", "NA",
                                   "a b", '"', ","])
def test_write_csv_reads_back_as_written(tmp_path, field):
    path = tmp_path / "out.csv"
    rows = [["h1", "h2", "h3"], [field, "1", field], ["x", field, "2"]]
    write_csv(path, rows[0], rows[1:])
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == rows
    records = csv_records(path, "output", DataError, 3)
    assert [next(records), *(fields for _, fields in records)] == rows


def _per_field_excluded_csv(table, path):
    # excluded.csv written field by field, one _fmt call per U value: the
    # reference that the block writer must match byte for byte.
    s = table.scores
    n_u = s.u_values.shape[1]
    header = ["gene_id", "reason"] + [f"U_{i + 1}" for i in range(n_u)]
    rows = []
    for j in table.dropped.tolist():
        code = int(s.reason[j])
        u = [""] * n_u if code >= _INSUFFICIENT else map(_fmt, s.u_values[j].tolist())
        rows.append([s.gene_ids[j], REASONS[code], *u])
    write_csv(path, header, rows)


@pytest.mark.parametrize("block_rows", [2, 1024])
def test_excluded_csv_is_written_as_the_per_field_writer_writes_it(tmp_path, monkeypatch,
                                                                   block_rows):
    monkeypatch.setattr(expression, "_BLOCK_ROWS", block_rows)
    inf, nan = math.inf, math.nan
    genes = [  # (gene id, reason code, U values)
        ("plain", _VIOLATED, [1.5, -2.25, 0.1]),
        ('a,"b', _VIOLATED, [inf, -inf, -0.0]),  # zero se
        ("big", _DEGENERATE, [1234567.0, 1e-05, -1e-05]),
        ("nan", _VIOLATED, [0.5, nan, 2.0]),
        ("all-nan", _DEGENERATE, [nan, nan, nan]),
        ('q"', _INSUFFICIENT, [nan, nan, nan]),
        ("unfit", _INSUFFICIENT, [nan, nan, nan]),
        ("x,y", _NONFINITE, [nan, nan, nan]),
    ]
    n = len(genes)
    u_values = np.array([u for _, _, u in genes])
    scores = ScoreTable(
        gene_ids=tuple(g for g, _, _ in genes), gamma=np.zeros((n, 3)), se=np.ones((n, 3)),
        u_values=u_values, u=u_values.min(axis=1),
        reason=np.array([code for _, code, _ in genes], dtype=np.int8),
        s2=np.ones(n), posterior_s2=np.ones(n),
    )
    table = RankedTable(scores=scores, order=np.array([], dtype=np.intp),
                        dropped=np.array([4, 0, 1, 3, 2, 7, 5, 6]))
    cli._write_excluded_csv(table, tmp_path / "block.csv")
    _per_field_excluded_csv(table, tmp_path / "reference.csv")
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert b'"a,""b",criterion violated,inf,-inf,-0\n' in written
    assert b"big,degenerate variance,1.23457e+06,1e-05,-1e-05\n" in written
    assert b"nan,criterion violated,0.5,NA,2\n" in written
    assert b'"x,y",non-finite fit,,,\n' in written



def test_excluded_csv_blocks_split_between_fallback_and_unfit_rows(tmp_path):
    # More excluded genes than one block holds. On each side of the first
    # block boundary lie a fitted gene with a NaN U, which takes the
    # per-field fallback, and a gene without a usable fit, whose U values
    # are left empty, so each block mixes its templates with both kinds.
    n = expression._BLOCK_ROWS + 6
    rng = np.random.default_rng(12)
    u_values = rng.normal(0.0, 3.0, (n, 3))
    reason = np.where(rng.random(n) < 0.5, _VIOLATED, _DEGENERATE).astype(np.int8)
    edge = expression._BLOCK_ROWS
    for row, code, u in [(edge - 2, _VIOLATED, [0.5, math.nan, -1.0]),
                         (edge - 1, _INSUFFICIENT, [math.nan] * 3),
                         (edge, _NONFINITE, [math.nan] * 3),
                         (edge + 1, _DEGENERATE, [math.nan] * 3)]:
        reason[row], u_values[row] = code, u
    ids = tuple(f'g"{i}' if i % 7 == 5 else f"g{i}" for i in range(n))
    scores = ScoreTable(
        gene_ids=ids, gamma=np.zeros((n, 3)), se=np.ones((n, 3)), u_values=u_values,
        u=u_values.min(axis=1), reason=reason, s2=np.ones(n), posterior_s2=np.ones(n),
    )
    table = RankedTable(scores=scores, order=np.array([], dtype=np.intp),
                        dropped=np.arange(n))
    cli._write_excluded_csv(table, tmp_path / "block.csv")
    _per_field_excluded_csv(table, tmp_path / "reference.csv")
    written = (tmp_path / "block.csv").read_text(encoding="utf-8").splitlines()
    assert written == (tmp_path / "reference.csv").read_text(encoding="utf-8").splitlines()
    assert written[edge - 1:edge + 3] == [
        f"g{edge - 2},criterion violated,0.5,NA,-1",
        f"g{edge - 1},insufficient data,,,",
        f"g{edge},non-finite fit,,,",
        f"g{edge + 1},degenerate variance,NA,NA,NA",
    ]
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _per_cell_ranked_csv(s, order, path):
    # ranked.csv written cell by cell, one _fmt call per value: the
    # reference that the block writer must match byte for byte.
    n_u, n_k = s.u_values.shape[1], s.gamma.shape[1]
    header = (["rank", "gene_id", "U"] + [f"U_{i + 1}" for i in range(n_u)]
              + [f"gamma_{i + 1}" for i in range(n_k)] + [f"se_{i + 1}" for i in range(n_k)]
              + ["s2", "posterior_s2"])
    write_csv(path, header, (
        [str(rank), s.gene_ids[j], _fmt(s.u[j].item()), *map(_fmt, s.u_values[j].tolist()),
         *map(_fmt, s.gamma[j].tolist()), *map(_fmt, s.se[j].tolist()), _fmt(s.s2[j].item()),
         _fmt(s.posterior_s2[j].item())]
        for rank, j in enumerate(order.tolist(), 1)
    ))


@pytest.mark.parametrize("block_rows", [2, 1024])
def test_ranked_csv_is_written_as_the_per_cell_writer_writes_it(tmp_path, monkeypatch,
                                                                block_rows):
    monkeypatch.setattr(expression, "_BLOCK_ROWS", block_rows)
    inf, nan = math.inf, math.nan
    genes = [  # (gene id, U values, gamma, s2, posterior_s2)
        ("plain", [1.5, 2.25, 0.1], [0.5, -1.25, 3.0], 0.04, 0.05),
        ('a,"b', [inf, inf, -0.0], [2.0, 2.0, 0.0], 0.0, 0.0),  # zero se
        ("big", [1234567.0, 1e-05, 2.0], [1234567.0, 1e-05, -1e-05], 1e-05, 1234567.0),
        ('q"', [0.5, 0.75, 1.0], [1.0, 2.0, -0.5], nan, 0.25),
        ("x,y", [3.0, 0.25, 1.0], [-0.0, 4.0, 0.125], 0.5, nan),
        ("last", [2.0, 2.0, 2.0], [1.0, 1.0, 1.0], 0.125, 0.125),
    ]
    n = len(genes)
    u_values = np.array([u for _, u, _, _, _ in genes])
    scores = ScoreTable(
        gene_ids=tuple(g for g, *_ in genes), gamma=np.array([g for _, _, g, _, _ in genes]),
        se=np.full((n, 3), 0.5), u_values=u_values, u=u_values.min(axis=1),
        reason=np.zeros(n, dtype=np.int8), s2=np.array([s2 for *_, s2, _ in genes]),
        posterior_s2=np.array([p for *_, p in genes]),
    )
    order = np.array([4, 0, 1, 3, 2, 5])
    cli._write_ranked_csv(scores, order, tmp_path / "block.csv")
    _per_cell_ranked_csv(scores, order, tmp_path / "reference.csv")
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert b'1,"x,y",0.25,3,0.25,1,-0,4,0.125,0.5,0.5,0.5,0.5,NA\n' in written
    assert b'3,"a,""b",-0,inf,inf,-0,2,2,0,0.5,0.5,0.5,0,0\n' in written
    assert b'4,"q""",0.5,0.5,0.75,1,1,2,-0.5,0.5,0.5,0.5,NA,0.25\n' in written
    assert b"5,big,1e-05,1.23457e+06,1e-05,2,1.23457e+06,1e-05,-1e-05" in written


@pytest.mark.parametrize("gene_id", ["g\x00", "a\x08b", "a\x0bb", "a\x0cb", "a\x0eb",
                                     "a\x1fb", "a\ud800b", "a\udfffb", "a\ufffeb", "a\uffffb"])
def test_an_id_that_xml_cannot_hold_is_rejected(gene_id):
    with pytest.raises(DataError, match="a gene id must hold only characters that XML 1.0 allows"):
        pr.ExpressionMatrix(gene_ids=("ok", gene_id), array_ids=ARRAYS,
                            values=np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_tab_line_feed_and_other_controls_xml_holds_are_kept_inside_an_id():
    gene_ids = ("a\tb", "a\nb", "a\x7fb", "a\x85b", "a\ufffdb", "a\U0010ffffb")
    expr = pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=ARRAYS,
                               values=np.ones((len(gene_ids), 2)))
    assert expr.gene_ids == gene_ids


@pytest.mark.parametrize("gene_ids, message", [
    (("ok", " lead", "a\rb"), "a gene id must be non-empty, without surrounding whitespace, "
                               "got ' lead'"),
    (("ok", "a\rb", " lead"), "a gene id must be non-empty and hold no carriage return, "
                               "got 'a\\rb'"),
    (("ok", "g\x01x", ""), "a gene id must hold only characters that XML 1.0 allows, "
                           "got 'g\\x01x' (U+0001)"),
])
def test_of_two_bad_ids_the_first_is_named(gene_ids, message):
    # The ids are checked all at once; the message is the per-id rule's on
    # the first id that breaks it.
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=ARRAYS, values=np.ones((3, 2)))


def _matrix(gene_ids):
    return pr.ExpressionMatrix(gene_ids=tuple(gene_ids), array_ids=("a1",),
                               values=np.ones((len(gene_ids), 1)))


def _message(gene_ids):
    """The message of the DataError that ``_matrix(gene_ids)`` raises, or None."""
    try:
        _matrix(gene_ids)
    except DataError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(_PLAIN_IDS | _ODD_IDS | st.text(max_size=4), max_size=4, unique=True))
def test_the_bulk_id_check_is_the_per_id_rule(gene_ids):
    # A matrix of distinct ids fails exactly when one of its ids fails on
    # its own, and names the first such id as a matrix of that id alone does.
    alone = [message for message in (_message([gene_id]) for gene_id in gene_ids) if message]
    assert _message(gene_ids) == (alone[0] if alone else None)


class _OneHash(str):
    """An id whose hash equals every other's, so only the set can tell two
    of them apart."""

    def __hash__(self):
        return 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=3), max_size=8), st.booleans())
def test_the_hashed_uniqueness_check_is_the_set_check(gene_ids, collide):
    # Distinct ids whose hashes collide are accepted; a real repeat is named.
    if collide:
        gene_ids = [_OneHash(gene_id) for gene_id in gene_ids]
    repeats = [gene_id for i, gene_id in enumerate(gene_ids) if gene_id in gene_ids[:i]]
    expected = f"gene ids must be unique: {repeats[0]!r} repeats" if repeats else None
    assert _message(gene_ids) == expected


def test_a_200k_id_read_checks_its_ids_without_a_set(tmp_path):
    # A set of 200k ids peaks at 12 MiB; the fast path built one and
    # ExpressionMatrix built it again. Measured: 3.0 MiB above what the read
    # keeps, against 12.0 MiB with either set.
    n = 200_000
    path = tmp_path / "expr.csv"
    path.write_text(HEADER + "".join(f"g{i},{i % 9}.5,NA\n" for i in range(n)), encoding="utf-8")
    tracemalloc.start()
    try:
        expr = pr.read_expression_csv(path, ARRAYS)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expr.n_genes == n and np.isnan(expr.values[:, 1]).all()
    assert peak - kept < 4 * 2**20


def test_the_csv_loop_holds_one_block_of_python_floats_at_a_time(tmp_path):
    # An empty cell on every line sends the read to the csv loop. 8192 rows
    # of 20 values, eight whole blocks and an empty last one, peak at 6.2 MiB
    # above what the read keeps when all are lists of Python floats, and at
    # 1.7 MiB when each block becomes an array as it fills.
    arrays = tuple(f"a{j}" for j in range(20))
    n = 8 * expression._BLOCK_ROWS
    path = tmp_path / "expr.csv"
    path.write_text(f"gene_id,{','.join(arrays)}\n"
                    + "".join(f"g{i},{f'{i % 9}.5,' * 19}\n" for i in range(n)), encoding="utf-8")
    assert expression._parse_fast(path, arrays) is None
    tracemalloc.start()
    try:
        expr = pr.read_expression_csv(path, arrays)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expr.values.shape == (n, 20) and np.isnan(expr.values[:, -1]).all()
    assert expr.values[n - 1, 0] == (n - 1) % 9 + 0.5
    assert peak - kept < 3 * 2**20


def test_carriage_return_id_is_rejected_as_an_id():
    # The reader rejects such an id, so the matrix must not hold one that
    # write_expression_csv would write.
    with pytest.raises(DataError, match=r"^a gene id must be non-empty and hold no carriage "
                                        r"return, got 'a\\rb'$"):
        pr.ExpressionMatrix(gene_ids=("ok", "a\rb"), array_ids=ARRAYS,
                            values=np.array([[1.0, 2.0], [3.0, math.nan]]))
