"""Per-gene least squares and cross-gene variance moderation.

Each gene's observed log ratios are regressed on the composed model matrix;
rows with missing values are deleted per gene, with an identifiability
re-check on the surviving rows. Genes that observed the same arrays share
that check and one pseudo-inverse, computed for many missingness patterns
by one stacked SVD; the genes are fitted in row blocks of fixed size,
blocks of one shape together, so that memory does not grow with the number
of genes. Residual variances are then shrunk toward a prior estimated from
all genes by matching moments of the log sample variances, giving per-gene
posterior variances and augmented degrees of freedom for the downstream
tests.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .design import ModelMatrix, least_squares_operators
from .errors import DataError, csv_records, located, reading
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

# Most rows that a fit or a writer turns into temporaries at once: bounds
# their memory by a block, not by the number of genes.
_BLOCK_ROWS = 1024

# Most missingness patterns whose least-squares operators one stacked SVD
# computes: bounds the stack's memory by a chunk, not by the number of
# patterns.
_OPERATOR_CHUNK = 128

# Characters that XML 1.0 cannot hold, so that profiles.svg could not show
# a gene id holding one: C0 controls other than tab, line feed and carriage
# return (the id rule rejects the last on its own), lone surrogates, U+FFFE
# and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

REASON_INSUFFICIENT = "insufficient data"
REASON_NONFINITE = "non-finite fit"


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
        rows = range(len(self))[i]
        return tuple(map(self._row, rows)) if isinstance(rows, range) else self._row(rows)

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
    a one-row matrix, whose values are bit for bit the gene's row of any
    larger ``fit_all``, since a gene's fit depends on that gene alone.

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
    missingness pattern, from one stacked SVD per ``_OPERATOR_CHUNK``
    patterns that observed equally many arrays. Each pattern's genes are
    cut into row blocks of at most ``_BLOCK_ROWS``, and the blocks of one
    shape are fitted together by stacked products of at most
    ``_BLOCK_ROWS`` genes, so the temporaries stay the size of a block, not
    of the matrix. Only NaN marks a missing spot; an infinite value counts
    as observed. A fit that overflows or takes an infinite value is kept as
    it is; ``FitTable.ok`` marks it.

    A gene's fit is a function of that gene alone, whatever genes share its
    block or call: the products are ``np.einsum`` sums without ``optimize``,
    which never call BLAS, and not ``@``, since BLAS picks its kernel, and so
    its rounding, by the batch shape.
    """
    n_genes, k = values.shape[0], model.n_coefficients
    gamma = np.full((n_genes, k), math.nan)
    unscaled_se = np.full((n_genes, k), math.nan)
    s2 = np.full(n_genes, math.nan)
    df = np.zeros(n_genes, dtype=np.int64)
    observed = ~np.isnan(values)
    n_used = observed.sum(axis=1)
    by_pattern, start, size, masks = _pattern_groups(observed)
    del observed  # the loop needs only each pattern's mask
    n_obs = masks.sum(axis=1)  # observed arrays per pattern
    for n in np.flatnonzero(np.bincount(n_obs)).tolist():
        if n - k < 1:
            continue
        for chunk in _blocks(np.flatnonzero(n_obs == n), _OPERATOR_CHUNK):
            cols = np.nonzero(masks[chunk])[1].reshape(len(chunk), n)
            x_obs = model.x[cols]
            rank, pinv, se = least_squares_operators(x_obs)
            full_rank = rank == k
            chunk, cols, x_obs = chunk[full_rank], cols[full_rank], x_obs[full_rank]
            for p, offset, r in _block_calls(size[chunk]):
                genes = by_pattern[(start[chunk[p]] + offset)[:, None] + np.arange(r)]
                y_obs = values[genes[:, :, None], cols[p][:, None, :]]
                with np.errstate(over="ignore", invalid="ignore"):
                    g = np.einsum("brn,bkn->brk", y_obs, pinv[p])
                    resid = y_obs - np.einsum("brk,bnk->brn", g, x_obs[p])
                    s2[genes] = np.einsum("bij,bij->bi", resid, resid) / (n - k)
                gamma[genes] = g
                unscaled_se[genes] = se[p][:, None]
                df[genes] = n - k
    return FitTable(
        gene_ids=gene_ids,
        gamma=gamma,
        unscaled_se=unscaled_se,
        s2=s2,
        df=df,
        n_used=n_used,
    )


def _blocks(rows: np.ndarray, size: int | None = None):
    """Consecutive slices of ``rows``, each at most ``size`` (by default
    ``_BLOCK_ROWS``) long."""
    size = size or _BLOCK_ROWS
    return (rows[i:i + size] for i in range(0, len(rows), size))


def _block_calls(sizes: np.ndarray):
    """The row blocks of patterns of ``sizes`` genes, grouped by shape into
    calls of at most ``_BLOCK_ROWS`` genes: ``(pattern, offset, rows)`` per
    call, where the call's block ``b`` is genes ``offset[b]`` to
    ``offset[b] + rows - 1`` of pattern ``pattern[b]``. A pattern is cut as
    ``_blocks`` cuts it: full blocks, then the rest."""
    per_pattern = -(-sizes // _BLOCK_ROWS)
    pattern = np.repeat(np.arange(len(sizes)), per_pattern)
    first = np.cumsum(per_pattern) - per_pattern  # each pattern's first block
    offset = (np.arange(len(pattern)) - np.repeat(first, per_pattern)) * _BLOCK_ROWS
    rows = np.minimum(sizes[pattern] - offset, _BLOCK_ROWS)
    for r in np.flatnonzero(np.bincount(rows)).tolist():
        for call in _blocks(np.flatnonzero(rows == r), _BLOCK_ROWS // r):
            yield pattern[call], offset[call], r


def _pattern_groups(observed: np.ndarray):
    """The rows of the genes x arrays mask ``observed`` grouped by the arrays
    they observed: ``(by_pattern, start, size, masks)``. Group ``g`` holds
    rows ``by_pattern[start[g]:start[g] + size[g]]``, in input order, and
    observed the arrays where ``masks[g]`` is True.

    Each row is packed to bits and read as one fixed-width byte string, so
    one stable sort of n keys groups the rows, for any number of arrays; a
    group starts wherever two consecutive sorted keys differ.
    """
    packed = np.packbits(observed, axis=1)
    by_pattern = np.argsort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                            kind="stable")
    packed = packed[by_pattern]
    first = np.ones(len(packed), dtype=bool)
    first[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    start = np.flatnonzero(first)
    size = np.diff(start, append=len(packed))
    masks = np.unpackbits(packed[start], axis=1, count=observed.shape[1]).view(bool)
    return by_pattern, start, size, masks


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
    return float(_shrink(d0, s0_2, np.array([df], dtype=float), np.array([s2], dtype=float))[0])


def _shrink(d0: float, s0_2: float, df: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """df-weighted averages ``(d0*s0_2 + df*s2) / (d0 + df)`` of the prior
    and each sample variance.

    Equal weights when df == d0; each result is clamped to the closed
    interval between s0_2 and its s2 so the shrinkage bound holds exactly
    even under float rounding. With d0 = inf the prior wins outright. The
    average is built and clamped in place, in two gene-length arrays.
    """
    if math.isinf(d0):
        return np.full(np.shape(s2), s0_2)
    post = df * s2
    post += d0 * s0_2
    bound = d0 + df
    post /= bound
    np.maximum(post, np.minimum(s0_2, s2, out=bound), out=post)
    return np.minimum(post, np.maximum(s0_2, s2, out=bound), out=post)


def _variance_columns(fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (ok, s2, df) columns of a FitTable or of any sequence of GeneFit.
    if isinstance(fits, FitTable):
        return fits.ok, fits.s2, fits.df
    ok = np.array([f.ok for f in fits], dtype=bool)
    s2 = np.array([f.s2 if f.ok else math.nan for f in fits], dtype=float)
    df = np.array([f.df if f.ok else 0 for f in fits], dtype=np.int64)
    return ok, s2, df


def _estimate_prior(s2: np.ndarray, df: np.ndarray) -> tuple[float, float]:
    """``(d0, s0_2)`` from sample variances ``s2 > 0`` and their residual
    ``df >= 1``. Its gene-length temporaries are freed on return, before
    ``moderate_variances`` allocates the posterior columns."""
    # Scalar math.log on purpose: np.log may differ from it in the last
    # bit, which would move the prior.
    log_s2 = np.fromiter(map(math.log, s2), float, len(s2))
    # With return_counts np.unique sorts; without, numpy 2 uses a hash
    # table whose first use imports numpy.ma, 20 ms of start-up.
    distinct = np.unique(df, return_counts=True)[0]
    which = np.searchsorted(distinct, df)
    # e = log_s2 - digamma(df/2) + log(df/2), then its squared deviations,
    # computed in place.
    e = np.array([digamma(d / 2.0) for d in distinct])[which]
    np.subtract(log_s2, e, out=e)
    half_df = df / 2.0
    e += np.log(half_df, out=half_df)
    del half_df
    e_mean = float(e.mean())
    e -= e_mean
    e **= 2
    e_var = float(e.sum() / (len(e) - 1))
    del e
    excess = e_var - float(np.mean(np.array([trigamma(d / 2.0) for d in distinct])[which]))
    if excess > 0.0:
        d0 = 2.0 * trigamma_inverse(excess)
        return d0, math.exp(e_mean + digamma(d0 / 2.0) - math.log(d0 / 2.0))
    return math.inf, math.exp(float(log_s2.mean()))


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
    d0, s0_2 = _estimate_prior(s2[est], df[est])
    posterior_s2 = np.full(len(ok), math.nan)
    posterior_df = np.full(len(ok), math.nan)
    df_ok, s2_ok = df[ok], s2[ok]
    posterior_df[ok] = d0 + df_ok
    posterior_s2[ok] = _shrink(d0, s0_2, df_ok, s2_ok)
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
