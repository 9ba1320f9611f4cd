"""Pre-specified expression profiles: basis matrix plus per-coefficient tests.

A profile writes the vector of true condition means as a linear combination
of basis columns. Each coefficient carries one of three constraints:

* ``free``      -- no test; the coefficient only absorbs structure,
* ``pos[:d]``   -- must exceed the threshold d (default 0),
* ``equiv:e``   -- must be equivalent to zero within the margin e > 0.

Basis entries live as exact decimal text in the profile file and are parsed
to floats once at load; linear independence is certified by exact rational
elimination on that text, so validation never depends on floating-point
tolerance.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .design import check_label
from .errors import ValidationError, content_lines, located, reading, writing

__all__ = [
    "Constraint",
    "ProfileSpec",
    "validate_profile",
    "parse_profile",
    "format_profile",
    "profile_from_file",
    "profile_to_file",
    "bundled_profile",
    "bundled_data_path",
    "BUNDLED_PROFILES",
]

BUNDLED_PROFILES = (
    "pluripotent",
    "sox2",
    "day3_marker_v1",
    "day3_marker_v2",
    "day3_marker_v3",
)


@dataclass(frozen=True)
class Constraint:
    """Test attached to one profile coefficient."""

    kind: str  # "free" | "pos" | "equiv"
    value: float = 0.0  # threshold for "pos", margin for "equiv"

    def __post_init__(self) -> None:
        if self.kind not in ("free", "pos", "equiv"):
            raise ValidationError(f"unknown constraint kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValidationError(
                f"{self.kind} constraint value must be a finite number, got {self.value!r}"
            )
        if self.kind == "equiv" and not self.value > 0.0:
            raise ValidationError(
                f"equivalence margin must be > 0, got {self.value!r}"
            )
        if self.kind == "pos" and self.value < 0.0:
            raise ValidationError(
                f"positivity threshold must be >= 0, got {self.value!r}"
            )

    @classmethod
    def unconstrained(cls) -> "Constraint":
        return cls("free")

    @classmethod
    def positive_above(cls, threshold: float = 0.0) -> "Constraint":
        return cls("pos", float(threshold))

    @classmethod
    def equivalent_zero(cls, margin: float) -> "Constraint":
        return cls("equiv", float(margin))

    @property
    def is_test_bearing(self) -> bool:
        return self.kind != "free"

    def token(self) -> str:
        if self.kind == "free":
            return "free"
        if self.kind == "pos":
            return "pos" if self.value == 0.0 else f"pos:{self.value!r}"
        return f"equiv:{self.value!r}"


def _parse_constraint(token: str, where: str) -> Constraint:
    name, sep, arg = token.partition(":")
    if name not in ("free", "pos", "equiv"):
        raise ValidationError(f"{where}: unknown constraint {token!r}")
    if name == "free" and sep:
        raise ValidationError(f"{where}: 'free' takes no argument")
    if name == "equiv" and not sep:
        raise ValidationError(f"{where}: 'equiv' needs a margin, e.g. equiv:1")
    try:
        value = float(arg) if sep else 0.0
    except ValueError as exc:
        what = "pos threshold" if name == "pos" else "equiv margin"
        raise ValidationError(f"{where}: bad {what} {arg!r}") from exc
    with located(f"{where}: {token}"):
        return Constraint(name, value)


def _basis_column(cname: str, column: tuple[str, ...], n_cond: int) -> list[float]:
    # The entries of one basis column as floats: one per condition, each a
    # finite number.
    if len(column) != n_cond:
        raise ValidationError(
            f"coefficient {cname!r}: {len(column)} basis entries for {n_cond} conditions"
        )
    values = []
    for text in column:
        try:
            value = float(text)
        except ValueError as exc:
            raise ValidationError(
                f"coefficient {cname!r}: non-numeric basis entry {text!r}"
            ) from exc
        if not math.isfinite(value):
            raise ValidationError(
                f"coefficient {cname!r}: basis entry {text!r} is not a finite number"
            )
        values.append(value)
    return values


def _check_independent(name: str, coefficient_names, basis_text) -> None:
    # Linear independence of the basis columns, certified exactly over the
    # rationals parsed from the decimal text, so acceptance matches
    # brute-force elimination by construction. ``float`` has placed any
    # digit-group underscores, which ``Fraction`` takes only from Python 3.11.
    columns = []
    for cname, col in zip(coefficient_names, basis_text):
        try:
            columns.append([Fraction(v.replace("_", "")) for v in col])
        except ValueError as exc:
            raise ValidationError(
                f"coefficient {cname!r}: entry not an exact decimal"
            ) from exc
    if _exact_rank(columns) < len(columns):
        raise ValidationError(f"profile {name!r}: basis columns are linearly dependent")


def _exact_rank(columns: list[list[Fraction]]) -> int:
    # Gaussian elimination over the rationals; exact, no tolerance.
    if not columns:
        return 0
    rows = len(columns[0])
    mat = [[col[i] for col in columns] for i in range(rows)]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, rows) if mat[i][j] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][j]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(rows):
            if i != rank and mat[i][j] != 0:
                factor = mat[i][j]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class ProfileSpec:
    """A named basis over conditions with one constraint per coefficient.

    ``basis_text`` keeps the exact decimal entries for auditability and file
    round-trips; ``basis`` is parsed from it and is the float matrix
    actually used in computation (conditions x coefficients). Every profile
    rule runs on construction, so a ``ProfileSpec`` has linearly independent
    basis columns and at least one coefficient that carries a test.
    """

    name: str
    condition_labels: tuple[str, ...]
    coefficient_names: tuple[str, ...]
    basis_text: tuple[tuple[str, ...], ...]  # one inner tuple per coefficient
    constraints: tuple[Constraint, ...]
    basis: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_label(self.name, "profile name")
        labels: set[str] = set()
        for label in self.condition_labels:
            check_label(label, "condition label", labels)
        names: set[str] = set()
        for cname in self.coefficient_names:
            check_label(cname, "coefficient name", names)
        n_cond = len(self.condition_labels)
        n_coef = len(self.coefficient_names)
        if len(self.basis_text) != n_coef:
            raise ValidationError(
                f"{n_coef} coefficients but {len(self.basis_text)} basis columns"
            )
        if len(self.constraints) != n_coef:
            raise ValidationError(
                f"{n_coef} coefficients but {len(self.constraints)} constraints"
            )
        parsed = [_basis_column(cname, column, n_cond)
                  for cname, column in zip(self.coefficient_names, self.basis_text)]
        _check_independent(self.name, self.coefficient_names, self.basis_text)
        if not self.test_bearing:
            raise ValidationError(
                f"profile {self.name!r}: every coefficient is unconstrained, "
                "so there is nothing to rank by"
            )
        basis = np.array(parsed, dtype=float).T.reshape(n_cond, n_coef)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def test_bearing(self) -> tuple[int, ...]:
        """Indices of the coefficients that carry a test."""
        return tuple(j for j, con in enumerate(self.constraints) if con.is_test_bearing)

    @classmethod
    def from_columns(cls, name, condition_labels, columns, constraints):
        """Build a spec from (coefficient_name, entries) pairs.

        Entries may be decimal strings (kept verbatim) or numbers
        (stored via repr, which round-trips exactly).
        """
        coef_names = tuple(cname for cname, _ in columns)
        text = tuple(
            tuple(v if isinstance(v, str) else repr(float(v)) for v in entries)
            for _, entries in columns
        )
        return cls(
            name=name,
            condition_labels=tuple(condition_labels),
            coefficient_names=coef_names,
            basis_text=text,
            constraints=tuple(constraints),
        )

    def _require_equiv(self, use: str) -> None:
        """``use`` changes only equivalence margins, so it needs a profile
        with an ``equiv`` coefficient."""
        if not any(con.kind == "equiv" for con in self.constraints):
            raise ValidationError(
                f"profile {self.name!r} has no equiv coefficient, so {use} would vary nothing"
            )

    def with_margins(self, epsilon=None, deltas=None) -> "ProfileSpec":
        """Return a copy with overridden test margins.

        ``epsilon`` replaces the margin of every equivalence constraint, so
        the profile must have one; ``deltas`` maps coefficient names to new
        positivity thresholds.
        """
        deltas = dict(deltas or {})
        unknown = set(deltas) - set(self.coefficient_names)
        if unknown:
            raise ValidationError(
                f"delta override for unknown coefficient(s): {sorted(unknown)}"
            )
        if epsilon is not None:
            self._require_equiv(f"an epsilon of {epsilon}")
        new = []
        for cname, con in zip(self.coefficient_names, self.constraints):
            if con.kind == "equiv" and epsilon is not None:
                con = Constraint.equivalent_zero(epsilon)
            if cname in deltas:
                if con.kind != "pos":
                    raise ValidationError(
                        f"coefficient {cname!r} has no positivity threshold "
                        "to override"
                    )
                con = Constraint.positive_above(deltas[cname])
            new.append(con)
        return replace(self, constraints=tuple(new))


def validate_profile(spec: ProfileSpec) -> ProfileSpec:
    """Return ``spec``: a ``ProfileSpec`` is checked when it is built.

    Kept for its callers: acceptance criteria 1 and 7, the test fixtures
    and the benchmark workloads pass every profile through it.
    """
    return spec


def parse_profile(text: str, source: str = "<string>") -> ProfileSpec:
    """Parse the plain-text profile format.

    Line 1: ``name <string>``; line 2: ``conditions <a,b,...>``; then one
    ``coef <name> <decimals> <constraint>`` line per basis column. Blank
    lines and ``#`` comments are skipped.
    """
    name = None
    conditions: tuple[str, ...] | None = None
    columns: list[tuple[str, tuple[str, ...]]] = []
    constraints: list[Constraint] = []
    names: set[str] = set()  # coefficient names so far
    for lineno, line in content_lines(io.StringIO(text, newline=None)):
        where = f"{source}:{lineno}"
        fields = line.split()
        keyword = fields[0]
        if keyword == "name":
            if len(fields) != 2:
                raise ValidationError(f"{where}: expected 'name <string>'")
            if name is not None:
                raise ValidationError(f"{where}: duplicate 'name' line")
            with located(where):
                check_label(fields[1], "profile name")
            name = fields[1]
        elif keyword == "conditions":
            if len(fields) != 2:
                raise ValidationError(
                    f"{where}: expected 'conditions <comma-separated labels>'"
                )
            if conditions is not None:
                raise ValidationError(f"{where}: duplicate 'conditions' line")
            conditions = tuple(fields[1].split(","))
            labels: set[str] = set()
            with located(where):
                for label in conditions:
                    check_label(label, "condition label", labels)
        elif keyword == "coef":
            if len(fields) != 4:
                raise ValidationError(
                    f"{where}: expected 'coef <name> <decimals> <constraint>'"
                )
            if conditions is None:
                raise ValidationError(
                    f"{where}: 'coef' lines must follow the 'conditions' line"
                )
            entries = tuple(fields[2].split(","))
            with located(where):
                check_label(fields[1], "coefficient name", names)
                _basis_column(fields[1], entries, len(conditions))
            columns.append((fields[1], entries))
            constraints.append(_parse_constraint(fields[3], where))
        else:
            raise ValidationError(f"{where}: unknown keyword {keyword!r}")
    if name is None:
        raise ValidationError(f"{source}: missing 'name' line")
    if conditions is None:
        raise ValidationError(f"{source}: missing 'conditions' line")
    if not columns:
        raise ValidationError(f"{source}: no 'coef' lines")
    return ProfileSpec(
        name=name,
        condition_labels=conditions,
        coefficient_names=tuple(cname for cname, _ in columns),
        basis_text=tuple(entries for _, entries in columns),
        constraints=tuple(constraints),
    )


def format_profile(spec: ProfileSpec) -> str:
    """Render a spec in the profile file format; parse(format(p)) == p."""
    lines = [f"name {spec.name}", f"conditions {','.join(spec.condition_labels)}"]
    for cname, col, con in zip(
        spec.coefficient_names, spec.basis_text, spec.constraints
    ):
        lines.append(f"coef {cname} {','.join(col)} {con.token()}")
    return "\n".join(lines) + "\n"


def profile_from_file(path) -> ProfileSpec:
    with reading(path, "profile", ValidationError) as fh:
        return parse_profile(fh.read(), source=str(path))


def profile_to_file(spec: ProfileSpec, path) -> None:
    with writing(path) as fh:
        fh.write(format_profile(spec))


def bundled_data_path(filename: str):
    """Path to a data file shipped with the package."""
    # Imported here, its only use: the commands never call this, and the
    # import takes tens of milliseconds where the interpreter has not loaded
    # it already.
    from importlib import resources

    return resources.files("profilerank.data").joinpath(filename)


def bundled_profile(name: str) -> ProfileSpec:
    """Load one of the profiles shipped with the package."""
    if name not in BUNDLED_PROFILES:
        raise ValidationError(
            f"unknown bundled profile {name!r}; available: {BUNDLED_PROFILES}"
        )
    with reading(bundled_data_path(f"{name}.profile"), "profile", ValidationError) as fh:
        return parse_profile(fh.read(), source=f"<bundled:{name}>")
