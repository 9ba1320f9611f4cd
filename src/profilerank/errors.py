"""Exception types shared across the package, and how a read of an input
file reports failure.

Two families matter to callers: configuration problems (bad design,
profile, or option values) and data problems (malformed or inconsistent
expression files). The CLI maps them to distinct exit codes.

Every input file is read under ``reading``, and the two CSV inputs through
``csv_records``, so an unreadable file, text that is not UTF-8, a wrong
field count and a csv error are reported the same way for each of them.
A CSV error names the physical line where its record starts, and the csv
reader is strict, so a quote left open or text after a closing quote is an
error rather than a silently different field. Spaces before an opening
quote are skipped, so a space then ``"g,1"`` is the field ``g,1``.
"""

import csv
from contextlib import contextmanager


class ProfileRankError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ProfileRankError):
    """A design, profile, conditions list, or option value is invalid."""


class DataError(ProfileRankError):
    """An expression data file is malformed or inconsistent with the design."""


def not_utf8(path, error: type[ProfileRankError]) -> ProfileRankError:
    """An ``error`` naming the first line of ``path`` that is not valid
    UTF-8, found by reading the file again as bytes after a decode failure."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return error(f"{path}:{lineno}: not UTF-8 text: byte "
                             f"0x{line[exc.start]:02x} at position {exc.start + 1} of the line")
    return error(f"{path}: not UTF-8 text")


@contextmanager
def located(where: str):
    """Put ``<where>: `` in front of the message of a package error raised inside."""
    try:
        yield
    except ProfileRankError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@contextmanager
def reading(path, what: str, error: type[ProfileRankError]):
    """Raise an ``error`` for a failed read of ``path``, the ``what`` file:
    ``cannot read <what> file`` for an OS error, and the line and byte for
    text that is not UTF-8."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, error) from exc


# What the csv module's errors for a quote mean, in this package's words.
_CSV_ERRORS = {
    "unexpected end of data": "a quote is not closed before the end of the file",
    "',' expected after '\"'": "text follows the closing quote of a field",
}


def csv_records(path, what: str, error: type[ProfileRankError], n_fields: int):
    """Yield the header of the CSV file ``path`` as read (None if the file
    is empty), then ``(line, fields)`` for each record that is not blank,
    its fields stripped. ``line`` is the record's first physical line, which
    differs from its index once a quoted field has held a line feed.

    The csv reader is strict: a quote must be closed, and nothing may follow
    a closing quote but the delimiter or the end of the line. Spaces at the
    start of a field are skipped before the reader looks for a quote. A
    record without ``n_fields`` fields, or a csv error, raises an ``error`` at
    ``path:line:``, naming the line where the record starts; a csv error
    past that line, such as an open quote that runs into the field limit,
    also names the line where reading stopped."""
    with reading(path, what, error), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, strict=True, skipinitialspace=True)
        lineno = 1
        try:
            yield next(reader, None)
            while True:
                lineno = reader.line_num + 1
                row = next(reader, None)
                if row is None:
                    return
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != n_fields:
                    raise error(f"{path}:{lineno}: expected {n_fields} fields, got {len(row)}")
                yield lineno, [f.strip() for f in row]
        except csv.Error as exc:
            message = _CSV_ERRORS.get(str(exc))
            if message is None:
                message = str(exc)
                if reader.line_num > lineno:  # only a quoted field runs on past its line
                    message += (f" in a quoted field that runs on to line {reader.line_num}; "
                                "is a quote not closed?")
            raise error(f"{path}:{lineno}: {message}") from exc
