"""Exception types shared across the package, and how a read of an input
file or a write of an output file reports failure.

Two families matter to callers: configuration problems (bad design,
profile, or option values) and data problems (malformed or inconsistent
expression files). The CLI maps them to distinct exit codes.

Every input file is opened by ``reading``, as UTF-8 text whose leading BOM
is not read, and every output file by ``writing``. The CSV inputs are read
through ``csv_records`` and the others through ``content_lines``, so an
unreadable file, text that is not UTF-8, a wrong field count and a csv
error are reported the same way for each of them. Every line ends at
``\\n``, ``\\r\\n`` or a lone ``\\r``, as in csv and text-mode files.
A CSV error names the physical line where its record starts, and the csv
reader is strict, so a quote left open or text after a closing quote is an
error rather than a silently different field. Spaces before an opening
quote are skipped, so a space then ``"g,1"`` is the field ``g,1``; any other
whitespace there, such as a tab, is an error, because the reader would keep
the quotes as text.
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
    UTF-8, found by reading the file again after a decode failure: Latin-1
    text is one character per byte, split into lines as every reader splits
    them. A position counts bytes from the first after a leading BOM."""
    with open(path, encoding="latin-1") as fh:
        if fh.read(3) != "\xef\xbb\xbf":
            fh.seek(0)
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return error(f"{path}:{lineno}: not UTF-8 text: byte "
                             f"0x{ord(line[exc.start]):02x} at position {exc.start + 1} of the line")
    return error(f"{path}: not UTF-8 text")


def content_lines(lines):
    """Yield ``(line number, text)`` for each line of ``lines`` that is
    neither blank nor a ``#`` comment, its text stripped."""
    for lineno, raw in enumerate(lines, start=1):
        if (line := raw.strip()) and not line.startswith("#"):
            yield lineno, line


@contextmanager
def located(where: str):
    """Put ``<where>: `` in front of the message of a package error raised inside."""
    try:
        yield
    except ProfileRankError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@contextmanager
def reading(path, what: str, error: type[ProfileRankError], newline=None):
    """Open the input file ``path``, the ``what`` file, for UTF-8 text whose
    leading BOM is not read, and raise an ``error`` for a failed read:
    ``cannot read <what> file`` for an OS error, and the line and byte for
    text that is not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, error) from exc


@contextmanager
def writing(path):
    """Open the output file ``path`` for UTF-8 text, written with no line-end
    translation, and raise a ``ValidationError`` naming it for an OS error
    in opening, writing or closing it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write output file {path}: {exc.strerror or exc}") from exc


# What the csv module's errors for a quote mean, in this package's words.
_CSV_ERRORS = {
    "unexpected end of data": "a quote is not closed before the end of the file",
    "',' expected after '\"'": "text follows the closing quote of a field",
}


def _check_no_quote_after_whitespace(row, where: str, error: type[ProfileRankError]) -> None:
    """Raise an ``error`` at ``where`` for a field of ``row`` whose quote
    the reader kept as text, because whitespace other than a space came
    before it. The reader skips spaces before it looks for a quote, so a
    field that starts with a space was quoted; so, in the one other case
    this rejects, was a quoted field that itself starts with a tab and a
    quote."""
    for col, field in enumerate(row, start=1):
        if field[:1].isspace() and field[0] != " " and field.lstrip()[:1] == '"':
            raise error(f"{where}: column {col}: {field[0]!r} comes before the opening "
                        "quote of a field; only spaces may")


def csv_records(path, what: str, error: type[ProfileRankError], n_fields: int):
    """Yield the header of the CSV file ``path`` as read (None if the file
    is empty), then ``(line, fields)`` for each record that is not blank,
    its fields stripped. ``line`` is the record's first physical line, which
    differs from its index once a quoted field has held a line feed.

    The csv reader is strict: a quote must be closed, and nothing may follow
    a closing quote but the delimiter or the end of the line. Spaces at the
    start of a field are skipped before the reader looks for a quote. A
    quote after other whitespace at the start of a field, a record without
    ``n_fields`` fields, or a csv error, raises an ``error`` at
    ``path:line:``, naming the line where the record starts; a csv error
    past that line, such as an open quote that runs into the field limit,
    also names the line where reading stopped."""
    with reading(path, what, error, newline="") as fh:
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
                if '"' in "".join(row):
                    _check_no_quote_after_whitespace(row, f"{path}:{lineno}", error)
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
