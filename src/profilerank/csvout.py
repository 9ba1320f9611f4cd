"""The one CSV writer behind every table profilerank writes."""

from .errors import writing


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, lists of strings, with ``\\n``
    line ends; a field is quoted only when it holds a comma, a quote or a
    line break (``\\n`` or ``\\r``)."""
    write_lines(path, header, map(_line, rows))


def write_lines(path, header, lines) -> None:
    """Write ``header``, a list of strings, as ``write_csv`` does, and then
    ``lines``, strings of whole CSV lines, each line with its ``\\n``."""
    with writing(path) as fh:
        fh.write(_line(header))
        fh.writelines(lines)


def _line(row) -> str:
    line = ",".join(row)
    if '"' in line or "\n" in line or "\r" in line or line.count(",") != len(row) - 1:
        line = ",".join(map(_quoted, row))
    return line + "\n"


def _quoted(field: str) -> str:
    if "," in field or '"' in field or "\n" in field or "\r" in field:
        return '"' + field.replace('"', '""') + '"'
    return field
