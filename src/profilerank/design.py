"""Experiment design: two-colour comparisons and the composed model matrix.

A design lists which two conditions each array compares (cy3 vs cy5). The
comparison matrix encodes every array as a +1/-1 row over conditions, so a
row times the true condition means gives that array's expected log ratio.
Composing with a profile basis yields the per-gene regression matrix, after
eliminating coefficients the comparisons cannot estimate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, content_lines, csv_records, located, reading

__all__ = [
    "ArrayComparison",
    "ComparisonDesign",
    "ComparisonMatrix",
    "ModelMatrix",
    "build_comparison_matrix",
    "compose_model_matrix",
    "read_conditions_csv",
    "read_design_csv",
]

LABEL_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

# Singular values below this fraction of the largest count as zero when
# ranking design matrices. The matrices here are small with integer or
# simple-decimal entries, so the choice is uncritical but must be fixed.
RANK_TOLERANCE = 1e-10


def check_label(text: str, what: str, seen: set[str] | None = None) -> None:
    """The rule for a name in a design or profile: it matches ``LABEL_PATTERN``
    and, given ``seen``, the names before it, is not among them; it is added."""
    if not LABEL_PATTERN.match(text):
        raise ValidationError(f"invalid {what} {text!r}: only [A-Za-z0-9_.-]+ is allowed")
    if seen is not None:
        if text in seen:
            raise ValidationError(f"{what}s must be unique: {text!r} repeats")
        seen.add(text)


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
        known: set[str] = set()
        for label in self.conditions:
            check_label(label, "condition label", known)
        if not self.arrays:
            raise ValidationError("a design needs at least one array")
        seen_ids: set[str] = set()
        for arr in self.arrays:
            _check_array(arr, known, seen_ids)

    @property
    def array_ids(self) -> tuple[str, ...]:
        return tuple(arr.array_id for arr in self.arrays)


def _check_array(arr: ArrayComparison, conditions, seen_ids: set[str]) -> None:
    """The rules for one array over ``conditions``: a valid ``array_id`` not
    in ``seen_ids`` (it is added there), and two different known conditions."""
    check_label(arr.array_id, "array_id label")
    if arr.array_id in seen_ids:
        raise ValidationError(f"duplicate array_id {arr.array_id!r}")
    seen_ids.add(arr.array_id)
    for dye in ("cy3", "cy5"):
        label = getattr(arr, dye)
        if label not in conditions:
            raise ValidationError(
                f"array {arr.array_id!r}: unknown {dye} condition {label!r}"
            )
    if arr.cy3 == arr.cy5:
        raise ValidationError(f"array {arr.array_id!r}: cy3 and cy5 must differ")


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
        (rank,), _, unscaled_se = least_squares_operators(self.x[None])
        if rank < self.n_coefficients:
            raise ValidationError(
                "profile not identifiable under this design: retained model matrix "
                f"has rank {rank} < {self.n_coefficients} columns"
            )
        if self.residual_df < 1:
            raise ValidationError(
                f"insufficient residual degrees of freedom: {self.n_arrays} arrays "
                f"for {self.rank} coefficients"
            )
        se = unscaled_se[0]
        se.setflags(write=False)
        object.__setattr__(self, "unscaled_se", se)

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


def _rank(s: np.ndarray) -> np.ndarray:
    # Singular values (descending along the last axis) above
    # RANK_TOLERANCE * the largest: one rank per matrix of a stack.
    return np.count_nonzero(s > RANK_TOLERANCE * s[..., :1], axis=-1)


def least_squares_operators(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least-squares operators of a stack ``x`` of equal-shape matrices
    (matrices x rows x columns), from one stacked SVD: ``(rank, pinv,
    unscaled_se)``. Every model matrix is solved here, a single one as a
    stack of one. ``rank`` holds each matrix's rank under RANK_TOLERANCE,
    below the column count wherever there are fewer rows than columns;
    ``pinv`` and ``unscaled_se`` hold the pseudo-inverse and sqrt of the
    diagonal of (X'X)^-1 of each matrix of full column rank only, in stack
    order, so no singular value of a rank-deficient one is ever inverted.
    LAPACK and BLAS are called per matrix exactly as for a single one, and
    the pseudo-inverse is built from the SVD factors as ``np.linalg.pinv``
    builds it, so each result is bit for bit that of the matrix alone."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = _rank(s)
    full_rank = rank == x.shape[-1]
    u, s, vt = u[full_rank], s[full_rank], vt[full_rank]
    pinv = vt.transpose(0, 2, 1) @ ((1 / s)[:, :, None] * u.transpose(0, 2, 1))
    gram = pinv @ pinv.transpose(0, 2, 1)
    return rank, pinv, np.sqrt(np.diagonal(gram, axis1=1, axis2=2))


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
    seen: set[str] = set()
    with reading(path, "conditions", ValidationError) as fh:
        for lineno, line in content_lines(fh):
            with located(f"{path}:{lineno}"):
                check_label(line, "condition label", seen)
            labels.append(line)
    if not labels:
        raise ValidationError(f"{path}: no condition labels found")
    return tuple(labels)


def read_design_csv(path, conditions: tuple[str, ...]) -> ComparisonDesign:
    """Read the array table: header ``array_id,cy3,cy5,replicate_group``,
    then one array per record of 4 fields, read by ``csv_records``."""
    expected = ["array_id", "cy3", "cy5", "replicate_group"]
    arrays: list[ArrayComparison] = []
    seen_ids: set[str] = set()
    records = csv_records(path, "design", ValidationError, len(expected))
    header = next(records)
    if header != expected:
        raise ValidationError(
            f"{path}: expected header {','.join(expected)!r}, "
            f"got {','.join(header) if header else '<empty file>'!r}"
        )
    for lineno, fields in records:
        arr = ArrayComparison(*fields)
        with located(f"{path}:{lineno}"):
            _check_array(arr, conditions, seen_ids)
        arrays.append(arr)
    return ComparisonDesign(conditions=tuple(conditions), arrays=tuple(arrays))
