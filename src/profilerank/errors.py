"""Exception types shared across the package.

Two families matter to callers: configuration problems (bad design,
profile, or option values) and data problems (malformed or inconsistent
expression files). The CLI maps them to distinct exit codes.
"""


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
