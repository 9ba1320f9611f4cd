"""The expression table and its CSV reader.

An ``ExpressionMatrix`` holds genes x arrays log2 ratios, with NaN for a
missing spot, and checks its gene ids and its shape when it is built.
``read_expression_csv`` reads one from a CSV file: numpy's C reader takes
plain files, and a field-by-field ``csv`` loop takes the rest and names the
file, line and column of the first problem. ``_BLOCK_ROWS`` is the one
block size of the package: the reader, the fit, the writers and ``synth``
all cut their genes into blocks of it.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, csv_records, located, reading

__all__ = [
    "ExpressionMatrix",
    "read_expression_csv",
]

_MISSING_TOKENS = {"", "NA"}

# Most rows that a fit or a writer turns into temporaries at once: bounds
# their memory by a block, not by the number of genes.
_BLOCK_ROWS = 1024

# Characters that XML 1.0 cannot hold, so that profiles.svg could not show
# a gene id holding one: C0 controls other than tab, line feed and carriage
# return (the id rule rejects the last on its own), lone surrogates, U+FFFE
# and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class ExpressionMatrix:
    """Genes x arrays matrix of log2 ratios; NaN marks a missing spot."""

    gene_ids: tuple[str, ...]
    array_ids: tuple[str, ...]
    values: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        check_gene_ids(self.gene_ids)
        if not _ids_unique(self.gene_ids):
            seen: set[str] = set()
            for gene_id in self.gene_ids:  # a repeat, or only a hash collision
                if gene_id in seen:
                    raise DataError(f"gene ids must be unique: {gene_id!r} repeats")
                seen.add(gene_id)
        if self.values.shape != (len(self.gene_ids), len(self.array_ids)):
            raise DataError(
                f"expression matrix shape {self.values.shape} does not match "
                f"{len(self.gene_ids)} genes x {len(self.array_ids)} arrays"
            )
        self.values.setflags(write=False)

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)


def check_gene_ids(gene_ids: Iterable[str]) -> None:
    """The rule on gene ids, which ``ExpressionMatrix`` checks on its ids and
    the reader on each id it has stripped: non-empty, without surrounding
    whitespace, without a carriage return and without a character that XML
    1.0 cannot hold. The reader strips whitespace and rejects a carriage
    return, so only such an id reads back as it was written;
    ``profiles.svg`` holds ids as XML text. The first id that breaks the
    rule is named."""
    for gene_id in gene_ids:
        if not gene_id or gene_id != gene_id.strip():
            raise DataError(f"a gene id must be non-empty, without surrounding "
                            f"whitespace, got {gene_id!r}")
        if not gene_id.isprintable():  # printable text, the usual case, passes
            if "\r" in gene_id:
                raise DataError(f"a gene id must be non-empty and hold no carriage "
                                f"return, got {gene_id!r}")
            bad = _NOT_XML.search(gene_id)
            if bad:
                raise DataError(f"a gene id must hold only characters that XML 1.0 "
                                f"allows, got {gene_id!r} (U+{ord(bad.group()):04X})")


def _ids_unique(ids: Sequence[str]) -> bool:
    """Whether no id's hash repeats, which proves that no id repeats: equal
    ids have equal hashes. Sorted hashes settle it in 8 bytes per id, where
    building a set of the ids peaks at about 60; a repeated hash may be a
    repeated id or only a collision."""
    hashes = np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))
    hashes.sort()
    return not (hashes[1:] == hashes[:-1]).any()


def read_expression_csv(path, array_ids: tuple[str, ...]) -> ExpressionMatrix:
    """Read a log-ratio table: header ``gene_id,<array ids...>`` matching the
    design order exactly; a gene id (stripped) must pass ``check_gene_ids``
    and be unique; values are finite decimals, ``NA`` or empty for missing
    (``inf``, ``nan`` and overflow are errors, not missing spots).

    Files go from numpy's C reader into ``ExpressionMatrix``, which checks
    them. A file with a line that the C reader could read differently (a
    quote, an over-long line, a line without a value), one that it fails to
    parse and one that the matrix rejects go through the ``csv`` loop, which
    names the file, line and column of the first problem.
    """
    array_ids = tuple(array_ids)
    fast = _parse_fast(path, array_ids)
    if fast is not None:
        try:
            return ExpressionMatrix(gene_ids=fast[0], array_ids=array_ids, values=fast[1])
        except DataError:
            del fast  # freed before the loop rereads the file to name the line
    gene_ids, values = _parse_csv(path, array_ids)
    return ExpressionMatrix(gene_ids=gene_ids, array_ids=array_ids, values=values)


def _parse_fast(path, array_ids: tuple[str, ...]):
    """``(gene ids, values)`` from ``np.loadtxt``, or None where the csv loop
    could read a line differently; it checks neither ids nor shape.

    Lines end at ``\\r``, ``\\n`` or ``\\r\\n``, as csv records do. A line is
    declined only for what ``loadtxt`` would read differently and nothing
    after it would catch: a quote, a line over the csv field limit, or no
    value at all, which ``loadtxt`` would skip as blank. ``NA`` after a comma
    becomes ``nan``; any other value must parse, as ``loadtxt`` parses it
    (an empty value, a NUL or ``NA1`` does not), and be finite.
    """
    limit = csv.field_size_limit()
    gene_ids: list[str] = []
    n_missing = 0

    def bodies(lines):
        nonlocal n_missing
        for line in lines:
            if '"' in line or len(line) > limit:
                raise ValueError
            n_missing += line.count(",NA")
            gene_id, _, body = line.replace(",NA", ",nan").partition(",")
            if body in ("", "\n"):
                raise ValueError
            gene_ids.append(gene_id)
            yield body

    with reading(path, "expression", DataError) as fh:
        header = fh.readline()
        if (header.removesuffix("\n").split(",") != ["gene_id", *array_ids]
                or '"' in header or "\0" in header):
            return None
        lines = bodies(fh)
        try:
            first = next(lines, None)
            if first is None:
                return None
            values = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                comments=None, ndmin=2, dtype=float)
        except UnicodeDecodeError:
            raise
        except ValueError:
            return None
    if np.count_nonzero(~np.isfinite(values)) != n_missing:
        return None
    return tuple(gene_ids), values


def _parse_csv(path, array_ids: tuple[str, ...]):
    """``(gene ids, values)`` read field by field from ``csv_records``; the
    first malformed input in file order raises a ``DataError`` naming its
    position. Values are held as Python floats for ``_BLOCK_ROWS`` rows at
    a time, then as a float array."""
    expected = ["gene_id", *array_ids]
    line_of: dict[str, int] = {}  # gene id -> its line, in file order
    rows: list[list[float]] = []
    blocks: list[np.ndarray] = []
    records = csv_records(path, "expression", DataError, len(expected))
    header = next(records)
    if header is None:
        raise DataError(f"{path}: empty file")
    if header != expected:
        raise DataError(
            f"{path}: header does not match the design's arrays; "
            f"expected {','.join(expected)!r}, got {','.join(header)!r}"
        )
    for lineno, fields in records:
        gene_id = fields[0]
        with located(f"{path}:{lineno}: column 1"):
            check_gene_ids((gene_id,))
        if gene_id in line_of:
            raise DataError(f"{path}:{lineno}: column 1: gene id {gene_id!r} is not "
                            f"unique, it is also on line {line_of[gene_id]}")
        line_of[gene_id] = lineno
        values = []
        for col, text in enumerate(fields[1:], start=2):
            if text in _MISSING_TOKENS:
                values.append(math.nan)
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise DataError(
                    f"{path}:{lineno}: column {col}: not a number: {text!r}"
                ) from exc
            if not math.isfinite(value):
                raise DataError(
                    f"{path}:{lineno}: column {col}: not a finite number "
                    f"(parsed as {value}); use NA for a missing spot"
                )
            values.append(value)
        rows.append(values)
        if len(rows) == _BLOCK_ROWS:
            blocks.append(np.array(rows, dtype=float))
            rows.clear()
    if not line_of:
        raise DataError(f"{path}: no gene rows")
    blocks.append(np.array(rows, dtype=float).reshape(len(rows), len(array_ids)))
    return tuple(line_of), np.concatenate(blocks)
