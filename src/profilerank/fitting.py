"""Per-gene least squares and cross-gene variance moderation.

Each gene's observed log ratios are regressed on the composed model matrix;
rows with missing values are deleted per gene, with an identifiability
re-check on the surviving rows. Genes that observed the same arrays share
that check and one pseudo-inverse, so fitting runs once per missingness
pattern. Residual variances are then shrunk toward
a prior estimated from all genes by matching moments of the log sample
variances, giving per-gene posterior variances and augmented degrees of
freedom for the downstream tests.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .design import ModelMatrix, least_squares_operator
from .errors import DataError, not_utf8
from .special import digamma, trigamma, trigamma_inverse

__all__ = [
    "ExpressionMatrix",
    "FitTable",
    "GeneFit",
    "ModerationResult",
    "fit_gene",
    "fit_all",
    "posterior_variance",
    "moderate_variances",
    "read_expression_csv",
]

_MISSING_TOKENS = {"", "NA"}

REASON_INSUFFICIENT = "insufficient data"
REASON_NONFINITE = "non-finite fit"


@dataclass(frozen=True)
class ExpressionMatrix:
    """Genes x arrays matrix of log2 ratios; NaN marks a missing spot."""

    gene_ids: tuple[str, ...]
    array_ids: tuple[str, ...]
    values: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        for gene_id in self.gene_ids:
            # The reader strips each id, so one that is empty or padded with
            # whitespace would not read back as written.
            if not gene_id or gene_id != gene_id.strip():
                raise DataError(f"a gene id must be non-empty, without surrounding "
                                f"whitespace, got {gene_id!r}")
        if len(set(self.gene_ids)) != len(self.gene_ids):
            seen: set[str] = set()
            for gene_id in self.gene_ids:
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


@dataclass(frozen=True)
class GeneFit:
    """Least-squares output for one gene, or the reason none exists.

    ``unscaled_se`` holds sqrt of the diagonal of (X'X)^-1 on the rows the
    gene actually used; multiplying by a residual-scale estimate gives
    coefficient standard errors.
    """

    gene_id: str
    status: str  # "ok" | "excluded"
    reason: str | None = None
    gamma_hat: np.ndarray | None = field(default=None, compare=False)
    s2: float | None = None
    df: int | None = None
    unscaled_se: np.ndarray | None = field(default=None, compare=False)
    n_used: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _excluded(gene_id: str, reason: str, n_used: int) -> GeneFit:
    return GeneFit(gene_id=gene_id, status="excluded", reason=reason, n_used=n_used)


class LazyRows(Sequence):
    """A read-only sequence whose items are built on demand by ``_row``.

    Columnar tables subclass it so that code written against a list of
    per-gene objects keeps working without the table holding those objects.
    Slices give tuples; a view equals any sequence with equal items.
    """

    def _row(self, i: int):
        raise NotImplementedError

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return tuple(self._row(j) for j in range(*i.indices(n)))
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        return self._row(i)

    def __iter__(self):
        return (self._row(i) for i in range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class FitTable(LazyRows):
    """Least-squares fits of every gene, one row per gene, in input order.

    ``gamma`` and ``unscaled_se`` are genes x coefficients, ``s2`` the
    residual variance, ``df`` the residual degrees of freedom and
    ``n_used`` the number of observed arrays. ``ok`` is False for genes
    excluded as ``insufficient data`` (``df == 0``), whose float columns are
    NaN, and as a ``non-finite fit``, whose ``s2`` or ``gamma`` overflowed.
    As a sequence the table yields one ``GeneFit`` per gene.
    """

    gene_ids: tuple[str, ...]
    gamma: np.ndarray
    unscaled_se: np.ndarray
    s2: np.ndarray
    df: np.ndarray
    n_used: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.gamma, self.unscaled_se, self.s2, self.df, self.n_used):
            column.setflags(write=False)

    @cached_property
    def ok(self) -> np.ndarray:
        ok = (self.df > 0) & np.isfinite(self.s2) & np.isfinite(self.gamma).all(axis=1)
        ok.setflags(write=False)
        return ok

    def __len__(self) -> int:
        return len(self.gene_ids)

    def _row(self, i: int) -> GeneFit:
        if not self.ok[i]:
            reason = REASON_NONFINITE if self.df[i] else REASON_INSUFFICIENT
            return _excluded(self.gene_ids[i], reason, int(self.n_used[i]))
        return GeneFit(
            gene_id=self.gene_ids[i],
            status="ok",
            gamma_hat=self.gamma[i],
            s2=float(self.s2[i]),
            df=int(self.df[i]),
            unscaled_se=self.unscaled_se[i],
            n_used=int(self.n_used[i]),
        )


def fit_gene(y, model: ModelMatrix, gene_id: str = "") -> GeneFit:
    """Fit one gene's log ratios against the model matrix: ``fit_all`` on
    a one-row matrix.

    Rows where ``y`` is missing (NaN) are removed first; the gene is
    excluded when the surviving rows cannot identify the coefficients or
    leave no residual degree of freedom, or when its fit overflows.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (model.n_arrays,):
        raise DataError(
            f"gene {gene_id!r}: {y.shape[0] if y.ndim == 1 else y.shape} values "
            f"for {model.n_arrays} arrays"
        )
    return _fit_rows((gene_id,), y[None, :], model)[0]


def fit_all(expr: ExpressionMatrix, model: ModelMatrix) -> FitTable:
    """Fit every gene of an expression matrix whose arrays are the model's."""
    if len(expr.array_ids) != model.n_arrays:
        raise DataError(
            f"expression matrix has {len(expr.array_ids)} arrays but the "
            f"model expects {model.n_arrays}"
        )
    return _fit_rows(expr.gene_ids, expr.values, model)


def _fit_rows(gene_ids: tuple[str, ...], values: np.ndarray, model: ModelMatrix) -> FitTable:
    """Fit each row of ``values`` (genes x the model's arrays).

    Genes that observed the same set of arrays share one model matrix, so
    the identifiability check and the pseudo-inverse run once per
    missingness pattern and are applied to all of its genes with one matrix
    product. Only NaN marks a missing spot; an infinite value counts as
    observed. A fit that overflows or takes an infinite value is kept as
    it is; ``FitTable.ok`` marks it.
    """
    observed = ~np.isnan(values)
    n_genes, k = values.shape[0], model.n_coefficients
    gamma = np.full((n_genes, k), math.nan)
    unscaled_se = np.full((n_genes, k), math.nan)
    s2 = np.full(n_genes, math.nan)
    df = np.zeros(n_genes, dtype=np.int64)
    n_used = observed.sum(axis=1)
    if n_genes:
        _, pattern = np.unique(
            np.packbits(observed, axis=1), axis=0, return_inverse=True
        )
        pattern = pattern.ravel()
        by_pattern = np.argsort(pattern, kind="stable")
        ends = np.cumsum(np.bincount(pattern))[:-1]
        for rows in np.split(by_pattern, ends):
            mask = observed[rows[0]]
            n = int(n_used[rows[0]])
            if n - k < 1:
                continue
            x_obs = model.x[mask]
            solved = least_squares_operator(x_obs)
            if solved is None:
                continue
            pinv, se = solved
            y_obs = values[np.ix_(rows, mask)]
            with np.errstate(over="ignore", invalid="ignore"):
                g = y_obs @ pinv.T
                resid = y_obs - g @ x_obs.T
                s2[rows] = np.einsum("ij,ij->i", resid, resid) / (n - k)
            gamma[rows] = g
            unscaled_se[rows] = se
            df[rows] = n - k
    return FitTable(
        gene_ids=gene_ids,
        gamma=gamma,
        unscaled_se=unscaled_se,
        s2=s2,
        df=df,
        n_used=n_used,
    )


@dataclass(frozen=True)
class ModerationResult:
    """Prior (d0, s0_2) and per-gene posterior variances.

    ``posterior_s2`` and ``posterior_df`` align with the fits that
    produced them; entries for excluded genes are NaN. ``d0`` may be
    ``inf``, in which case every posterior variance equals ``s0_2``.
    """

    d0: float
    s0_2: float
    posterior_s2: np.ndarray = field(compare=False)
    posterior_df: np.ndarray = field(compare=False)
    zero_variance_genes: tuple[int, ...] = ()
    n_estimation_genes: int = 0

    def __post_init__(self) -> None:
        self.posterior_s2.setflags(write=False)
        self.posterior_df.setflags(write=False)


def posterior_variance(d0: float, s0_2: float, df: float, s2: float) -> float:
    """df-weighted average of the prior and sample variance for one gene:
    ``moderate_variances``' shrinkage of a single value."""
    return float(_shrink(d0, s0_2, df, s2))


def _shrink(d0: float, s0_2: float, df: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """df-weighted averages ``(d0*s0_2 + df*s2) / (d0 + df)`` of the prior
    and each sample variance.

    Equal weights when df == d0; each result is clamped to the closed
    interval between s0_2 and its s2 so the shrinkage bound holds exactly
    even under float rounding. With d0 = inf the prior wins outright.
    """
    if math.isinf(d0):
        return np.full(np.shape(s2), s0_2)
    post = (d0 * s0_2 + df * s2) / (d0 + df)
    return np.minimum(np.maximum(post, np.minimum(s0_2, s2)), np.maximum(s0_2, s2))


def _variance_columns(fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (ok, s2, df) columns of a FitTable or of any sequence of GeneFit.
    if isinstance(fits, FitTable):
        return fits.ok, fits.s2, fits.df
    ok = np.array([f.ok for f in fits], dtype=bool)
    s2 = np.array([f.s2 if f.ok else math.nan for f in fits], dtype=float)
    df = np.array([f.df if f.ok else 0 for f in fits], dtype=np.int64)
    return ok, s2, df


def moderate_variances(fits) -> ModerationResult:
    """Estimate the variance prior from all genes and shrink each gene
    toward it.

    ``fits`` is a ``FitTable`` or any sequence of ``GeneFit``. Matching
    the mean and variance of ``log s2 - digamma(df/2) + log(df/2)``
    against the scaled-inverse-chi-square hierarchy yields (d0, s0_2); each
    gene's posterior variance is then the df-weighted average
    ``(d0*s0_2 + df*s2) / (d0 + df)``.

    Only genes with a usable fit (``ok``) enter: a gene without one gets
    no posterior variance. Genes with a perfect fit (s2 == 0) are excluded
    from prior estimation but still moderated; if the observed variances
    are under-dispersed relative to pure chi-square sampling noise, the
    prior is degenerate (d0 = inf) with s0_2 the geometric mean of the
    usable variances, and every posterior variance equals s0_2.
    """
    ok, s2, df = _variance_columns(fits)
    est = ok & (s2 > 0.0) & (df >= 1)
    n_est = int(est.sum())
    if n_est < 2:
        raise DataError(
            "variance moderation needs at least 2 genes with a positive "
            f"residual variance, got {n_est}"
        )
    # Scalar math.log on purpose: np.log may differ from it in the last
    # bit, which would move the prior.
    log_s2 = np.array([math.log(v) for v in s2[est].tolist()])
    dfs = df[est].astype(float)
    distinct, which = np.unique(dfs, return_inverse=True)
    dig = np.array([digamma(d / 2.0) for d in distinct])[which]
    tri = np.array([trigamma(d / 2.0) for d in distinct])[which]
    e = log_s2 - dig + np.log(dfs / 2.0)
    e_mean = float(e.mean())
    e_var = float(((e - e_mean) ** 2).sum() / (len(e) - 1))
    excess = e_var - float(np.mean(tri))
    if excess > 0.0:
        d0 = 2.0 * trigamma_inverse(excess)
        s0_2 = math.exp(e_mean + digamma(d0 / 2.0) - math.log(d0 / 2.0))
    else:
        d0 = math.inf
        s0_2 = math.exp(float(log_s2.mean()))

    posterior_s2 = np.full(len(ok), math.nan)
    posterior_df = np.full(len(ok), math.nan)
    posterior_df[ok] = d0 + df[ok]
    posterior_s2[ok] = _shrink(d0, s0_2, df[ok], s2[ok])
    return ModerationResult(
        d0=d0,
        s0_2=s0_2,
        posterior_s2=posterior_s2,
        posterior_df=posterior_df,
        zero_variance_genes=tuple(np.flatnonzero(ok & (s2 == 0.0)).tolist()),
        n_estimation_genes=n_est,
    )


def read_expression_csv(path, array_ids: tuple[str, ...]) -> ExpressionMatrix:
    """Read a log-ratio table: header ``gene_id,<array ids...>`` matching the
    design order exactly; a gene id (stripped) must be non-empty, without a
    carriage return; values are finite decimals, ``NA`` or empty for missing
    (``inf``, ``nan`` and overflow are errors, not missing spots).

    Plain files are parsed by numpy's C reader; anything else, and every
    file with an error, goes through the ``csv`` loop, which names the
    file, line and column of the first problem.
    """
    array_ids = tuple(array_ids)
    try:
        gene_ids, values = _parse_fast(path, array_ids) or _parse_csv(path, array_ids)
    except OSError as exc:
        raise DataError(f"cannot read expression file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, DataError) from exc
    return ExpressionMatrix(gene_ids=gene_ids, array_ids=array_ids, values=values)


class _Declined(Exception):
    """A line that only the csv loop may judge."""


def _parse_fast(path, array_ids: tuple[str, ...]):
    """``(gene ids, values)`` from ``np.loadtxt``, or None where the csv loop
    could read the file differently or must report an error.

    Only plain lines are taken: no quote, carriage return, NUL, space or
    tab, no empty field, no blank line, no line longer than the csv field
    limit, and ``NA`` only as a whole field, rewritten to ``nan``. The file
    goes back to the loop when ``loadtxt`` fails, the shape is wrong, or a
    value is non-finite without having been ``NA``.
    """
    limit = csv.field_size_limit()
    gene_ids: list[str] = []
    n_missing = 0

    def bodies(lines):
        nonlocal n_missing
        for line in lines:
            gene_id, _, body = line.partition(",")
            if (not gene_id or not body or len(line) > limit or ",," in line
                    or body.endswith((",", ",\n")) or '"' in line or "\r" in line
                    or "\0" in line or " " in line or "\t" in line
                    or gene_id.strip() != gene_id):
                raise _Declined
            n = body.count("NA")
            if n:
                if body.startswith("NA") + body.count(",NA") != n:
                    raise _Declined
                body = body.replace("NA", "nan")
                n_missing += n
            gene_ids.append(gene_id)
            yield body

    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline()
        if (header.removesuffix("\n").split(",") != ["gene_id", *array_ids]
                or '"' in header or "\r" in header or "\0" in header):
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
        except (_Declined, ValueError):
            return None
    if (values.shape != (len(gene_ids), len(array_ids))
            or np.count_nonzero(~np.isfinite(values)) != n_missing
            or len(set(gene_ids)) != len(gene_ids)):
        return None
    return tuple(gene_ids), values


def _parse_csv(path, array_ids: tuple[str, ...]):
    """``(gene ids, values)`` read field by field with the ``csv`` module;
    the first malformed input in file order raises a ``DataError`` naming
    its position."""
    expected = ["gene_id", *array_ids]
    line_of: dict[str, int] = {}  # gene id -> its line, in file order
    rows: list[list[float]] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if header != expected:
                raise DataError(
                    f"{path}: header does not match the design's arrays; "
                    f"expected {','.join(expected)!r}, got {','.join(header)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(expected):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(expected)} fields, "
                        f"got {len(row)}"
                    )
                gene_id = row[0].strip()
                if not gene_id or "\r" in gene_id:
                    raise DataError(f"{path}:{lineno}: column 1: a gene id must be non-empty "
                                    f"and hold no carriage return, got {row[0]!r}")
                if gene_id in line_of:
                    raise DataError(f"{path}:{lineno}: column 1: gene id {gene_id!r} is not "
                                    f"unique, it is also on line {line_of[gene_id]}")
                line_of[gene_id] = lineno
                values = []
                for col, text in enumerate(row[1:], start=2):
                    text = text.strip()
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
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not line_of:
        raise DataError(f"{path}: no gene rows")
    return tuple(line_of), np.array(rows, dtype=float)
