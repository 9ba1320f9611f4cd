"""The expression CSV's two read paths, and the CSV writer.

``read_expression_csv`` parses plain files with numpy's C reader
(``fitting._parse_fast``) and leaves everything else to the ``csv`` loop
(``fitting._parse_csv``), the only place that reports errors. The fast path
may decline any file, but what it accepts must read exactly as the loop
reads it.
"""

import csv
import importlib.util
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profilerank as pr
from profilerank import fitting
from profilerank.csvout import write_csv
from profilerank.errors import DataError
from profilerank.synth import write_expression_csv

ARRAYS = ("a1", "a2")
HEADER = "gene_id,a1,a2\n"


def _reference(path, array_ids):
    """What the csv loop alone makes of a file: an ExpressionMatrix or the
    message of the error it raises."""
    try:
        gene_ids, values = fitting._parse_csv(path, array_ids)
        return pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=array_ids, values=values)
    except DataError as exc:
        return str(exc)


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
    ["", " g", "g\t", "g\xa0", '"g"', '"q,1"', '"a\rb"', "é", "#g", "NA", "g\x00", "١"]
)
_PLAIN_VALUES = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.just("NA")
_ODD_VALUES = st.sampled_from([
    "", " NA", "NA ", " 1.5", "2.5 ", "\t3", '"4.0"', "nan", "NaN", "-nan", "inf",
    "-inf", "Infinity", "1e400", "-1e400", "1_0", "#1", "١", "١.٥", "0x10", "-NA",
    "+NA", "NA1", "NANA", "NAN", "na", "\xa01", "5e-324", "1e-320", ".5", "5.", "-0.0",
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
        fast = fitting._parse_fast(path, ARRAYS)
        got = _read(path, ARRAYS)
    if plain:
        assert fast is not None
    if fast is not None:
        assert not isinstance(want, str), want
        if not isinstance(want, str):
            _assert_same_parse(fast, (want.gene_ids, want.values))
    _assert_same(got, want)


# ---------------------------------------------------------------------------
# one test per decline trigger
# ---------------------------------------------------------------------------

_LONG_ID = "g" * 70000  # with a long value, a line beyond the field limit
_DECLINED = {
    # scanned per line
    "quote": HEADER + '"g1",1.0,2.0\n',
    "carriage-return": HEADER + "g1,1.0,2.0\r\ng2,3.0,4.0\r\n",
    "space": HEADER + "g1, 1.0,2.0\n",
    "tab": HEADER + "g1,1.0\t,2.0\n",
    "nul": HEADER + "g\x001,1.0,2.0\n",
    "leading-comma": HEADER + ",1.0,2.0\n",
    "trailing-comma": HEADER + "g1,1.0,\n",
    "double-comma": HEADER + "g1,,2.0\n",
    "blank-line": HEADER + "g1,1.0,2.0\n\ng2,3.0,4.0\n",
    "id-only-line": HEADER + "g1\n",
    "long-line": HEADER + f"{_LONG_ID},1.{'0' * 70000},2.0\n",
    "id-with-unicode-space": HEADER + "g1\xa0,1.0,2.0\n",
    "na-inside-a-field": HEADER + "g1,-NA,2.0\n",
    "header-not-plain": "gene_id,a1,a2\r\ng1,1.0,2.0\n",
    "no-data-rows": HEADER,
    # found after parsing
    "loadtxt-error": HEADER + "g1,1_0,2.0\n",
    "non-ascii-digit": HEADER + "g1,١,2.0\n",
    "inf": HEADER + "g1,inf,2.0\n",
    "overflow": HEADER + "g1,1e400,2.0\n",
    "nan-not-na": HEADER + "g1,nan,2.0\n",
    "field-count-changes": HEADER + "g1,1.0,2.0\ng2,3.0\n",
    "every-row-too-wide": HEADER + "g1,1.0,2.0,3.0\ng2,4.0,5.0,6.0\n",
    "duplicate-id": HEADER + "g1,1.0,2.0\ng2,3.0,4.0\ng1,5.0,6.0\n",
}


@pytest.mark.parametrize("text", _DECLINED.values(), ids=_DECLINED.keys())
def test_fast_path_declines(tmp_path, text):
    path = tmp_path / "expr.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert fitting._parse_fast(path, ARRAYS) is None
    _assert_same(_read(path, ARRAYS), _reference(path, ARRAYS))


def test_fast_path_raises_a_decode_error_past_the_first_chunk(tmp_path):
    # Far past the first read, so the error comes from inside np.loadtxt.
    path = tmp_path / "expr.csv"
    lines = [HEADER.encode()] + [f"g{i},1.0,2.0\n".encode() for i in range(5000)]
    lines[4000] = b"g\xe9,1.0,2.0\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(UnicodeDecodeError):
        fitting._parse_fast(path, ARRAYS)
    with pytest.raises(DataError, match=r"expr.csv:4001: not UTF-8 text: byte 0xe9"):
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

    monkeypatch.setattr(fitting, "_parse_csv", loop_called)
    for path, want in zip(paths, wants):
        got = pr.read_expression_csv(path, array_ids)
        assert got.n_genes == 2000
        assert np.isnan(got.values).sum() == path.read_text().count("NA")
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


@pytest.mark.parametrize("field", ["plain", "a,b", 'say "hi"', "a\nb", "a\rb", "", "NA"])
def test_write_csv_reads_back_as_written(tmp_path, field):
    path = tmp_path / "out.csv"
    rows = [["h1", "h2", "h3"], [field, "1", field], ["x", field, "2"]]
    write_csv(path, rows[0], rows[1:])
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == rows


def test_carriage_return_id_is_rejected_as_an_id(tmp_path):
    expr = pr.ExpressionMatrix(gene_ids=("ok", "a\rb"), array_ids=ARRAYS,
                               values=np.array([[1.0, 2.0], [3.0, math.nan]]))
    path = tmp_path / "expr.csv"
    write_expression_csv(expr, path)
    with pytest.raises(DataError, match=r"expr.csv:3: column 1: a gene id must be non-empty "
                                        r"and hold no carriage return"):
        pr.read_expression_csv(path, ARRAYS)
