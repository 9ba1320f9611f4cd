"""The one CSV writer behind every table profilerank writes."""

import csv


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` with ``\\n`` line ends; a field is
    quoted only when it holds a comma, a quote or a line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
