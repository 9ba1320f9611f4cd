"""Experiment design: two-colour comparisons and the composed model matrix.

A design lists which two conditions each array compares (cy3 vs cy5). The
comparison matrix encodes every array as a +1/-1 row over conditions, so a
row times the true condition means gives that array's expected log ratio.
Composing with a profile basis yields the per-gene regression matrix, after
eliminating coefficients the comparisons cannot estimate.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, not_utf8

__all__ = [
    "LABEL_PATTERN",
    "ArrayComparison",
    "ComparisonDesign",
    "ComparisonMatrix",
    "ModelMatrix",
    "build_comparison_matrix",
    "compose_model_matrix",
    "least_squares_operator",
    "read_conditions_csv",
    "read_design_csv",
]

LABEL_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

# Singular values below this fraction of the largest count as zero when
# ranking design matrices. The matrices here are small with integer or
# simple-decimal entries, so the choice is uncritical but must be fixed.
RANK_TOLERANCE = 1e-10


def _check_label(label: str, role: str) -> str:
    if not LABEL_PATTERN.match(label):
        raise ValidationError(
            f"invalid {role} label {label!r}: only [A-Za-z0-9_.-]+ is allowed"
        )
    return label


@dataclass(frozen=True)
class ArrayComparison:
    """One two-colour array: cy5-labelled sample compared against cy3."""

    array_id: str
    cy3: str
    cy5: str
    replicate_group: str = ""


@dataclass(frozen=True)
class ComparisonDesign:
    """Ordered condition labels plus the array comparisons made between them.

    ``replicate_group`` on each array is carried as metadata only; all
    arrays are pooled as independent replicates when fitting.
    """

    conditions: tuple[str, ...]
    arrays: tuple[ArrayComparison, ...]

    def __post_init__(self) -> None:
        if len(self.conditions) < 2:
            raise ValidationError("a design needs at least two conditions")
        for label in self.conditions:
            _check_label(label, "condition")
        if len(set(self.conditions)) != len(self.conditions):
            raise ValidationError("condition labels must be unique")
        if not self.arrays:
            raise ValidationError("a design needs at least one array")
        known = set(self.conditions)
        seen_ids: set[str] = set()
        for arr in self.arrays:
            _check_label(arr.array_id, "array_id")
            if arr.array_id in seen_ids:
                raise ValidationError(f"duplicate array_id {arr.array_id!r}")
            seen_ids.add(arr.array_id)
            for dye in ("cy3", "cy5"):
                label = getattr(arr, dye)
                if label not in known:
                    raise ValidationError(
                        f"array {arr.array_id!r}: unknown {dye} condition {label!r}"
                    )
            if arr.cy3 == arr.cy5:
                raise ValidationError(
                    f"array {arr.array_id!r}: cy3 and cy5 must differ"
                )

    @property
    def array_ids(self) -> tuple[str, ...]:
        return tuple(arr.array_id for arr in self.arrays)


@dataclass(frozen=True)
class ComparisonMatrix:
    """Arrays x conditions matrix with +1 at cy5 and -1 at cy3 per row."""

    values: np.ndarray = field(compare=False)
    conditions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.values.setflags(write=False)


@dataclass(frozen=True)
class ModelMatrix:
    """Regression matrix from comparisons composed with a profile basis.

    ``x`` holds only estimable columns; ``dropped_coefficients`` records the
    basis-column indices removed because the comparisons cancel them.
    ``coefficient_indices`` maps retained columns back to basis columns.
    ``x`` must have full column rank and leave at least one residual degree
    of freedom; the one SVD that checks this also gives ``unscaled_se``,
    sqrt of the diagonal of (X'X)^-1 for a gene that observed every array.
    """

    x: np.ndarray = field(compare=False)
    coefficient_indices: tuple[int, ...] = ()
    dropped_coefficients: tuple[int, ...] = ()
    unscaled_se: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.x.setflags(write=False)
        solved = least_squares_operator(self.x)
        if solved is None:
            rank = _rank(np.linalg.svd(self.x, compute_uv=False))
            raise ValidationError(
                "profile not identifiable under this design: retained model matrix "
                f"has rank {rank} < {self.n_coefficients} columns"
            )
        if self.residual_df < 1:
            raise ValidationError(
                f"insufficient residual degrees of freedom: {self.n_arrays} arrays "
                f"for {self.rank} coefficients"
            )
        solved[1].setflags(write=False)
        object.__setattr__(self, "unscaled_se", solved[1])

    @property
    def n_arrays(self) -> int:
        return self.x.shape[0]

    @property
    def n_coefficients(self) -> int:
        return self.x.shape[1]

    @property
    def rank(self) -> int:
        return self.n_coefficients  # full column rank, checked in __post_init__

    @property
    def residual_df(self) -> int:
        return self.n_arrays - self.rank


def _rank(s: np.ndarray) -> int:
    # Singular values (descending) above RANK_TOLERANCE * the largest.
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOLERANCE * s[0]))


def least_squares_operator(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Pseudo-inverse of ``x`` and sqrt of the diagonal of (X'X)^-1, from one
    SVD, or None when ``x`` has rank (under RANK_TOLERANCE) below its column
    count, as every ``x`` with fewer rows than columns has. The pseudo-inverse
    is built from the SVD factors exactly as ``np.linalg.pinv`` builds it."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if _rank(s) < x.shape[1]:
        return None
    pinv = vt.T @ ((1 / s)[:, None] * u.T)
    return pinv, np.sqrt(np.diag(pinv @ pinv.T))


def build_comparison_matrix(design: ComparisonDesign) -> ComparisonMatrix:
    """Encode each array as a +1/-1 row over the design's conditions."""
    col = {label: j for j, label in enumerate(design.conditions)}
    values = np.zeros((len(design.arrays), len(design.conditions)))
    for i, arr in enumerate(design.arrays):
        values[i, col[arr.cy5]] = 1.0
        values[i, col[arr.cy3]] = -1.0
    return ComparisonMatrix(values=values, conditions=design.conditions)


def compose_model_matrix(xstar: ComparisonMatrix, profile) -> ModelMatrix:
    """Multiply the comparison matrix by the profile basis and certify the result.

    Columns that come out identically zero are unestimable: they are dropped
    when the coefficient is unconstrained and rejected when it carries a
    test. ``ModelMatrix`` checks that the retained matrix has full column
    rank and leaves at least one residual degree of freedom.
    """
    if tuple(profile.condition_labels) != tuple(xstar.conditions):
        raise ValidationError(
            "profile conditions "
            f"{list(profile.condition_labels)} do not match design conditions "
            f"{list(xstar.conditions)} (same labels, same order required)"
        )
    full = xstar.values @ profile.basis
    retained: list[int] = []
    dropped: list[int] = []
    for j in range(full.shape[1]):
        # Exact zero test: basis entries are user-supplied exact decimals and
        # comparison entries are +-1/0, so a structurally cancelled column is
        # exactly zero and a nearly-zero one signals a user error.
        if not full[:, j].any():
            if profile.constraints[j].is_test_bearing:
                raise ValidationError(
                    f"constrained coefficient unestimable: basis column {j} "
                    f"({profile.coefficient_names[j]!r}) cancels out in every "
                    "comparison"
                )
            dropped.append(j)
        else:
            retained.append(j)
    return ModelMatrix(x=full[:, retained], coefficient_indices=tuple(retained),
                       dropped_coefficients=tuple(dropped))


def read_conditions_csv(path) -> tuple[str, ...]:
    """Read the ordered condition list: one label per line, '#' comments allowed."""
    labels: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not LABEL_PATTERN.match(line):
                    raise ValidationError(
                        f"{path}:{lineno}: invalid condition label {line!r}"
                    )
                labels.append(line)
    except OSError as exc:
        raise ValidationError(f"cannot read conditions file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, ValidationError) from exc
    if not labels:
        raise ValidationError(f"{path}: no condition labels found")
    return tuple(labels)


def read_design_csv(path, conditions: tuple[str, ...]) -> ComparisonDesign:
    """Read the array table: header ``array_id,cy3,cy5,replicate_group``."""
    expected = ["array_id", "cy3", "cy5", "replicate_group"]
    arrays: list[ArrayComparison] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected:
                raise ValidationError(
                    f"{path}: expected header {','.join(expected)!r}, "
                    f"got {','.join(header) if header else '<empty file>'!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    raise ValidationError(
                        f"{path}:{lineno}: expected 4 fields, got {len(row)}"
                    )
                arrays.append(ArrayComparison(*[f.strip() for f in row]))
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read design file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, ValidationError) from exc
    return ComparisonDesign(conditions=tuple(conditions), arrays=tuple(arrays))
