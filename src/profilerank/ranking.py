"""U statistics, inclusion decisions, and gene ranking.

Every test-bearing coefficient contributes a standardized signed distance
from its estimate to the criterion boundary:

* positivity above d:      U = (gamma_hat - d) / se
* equivalence within e:    U = (e - |gamma_hat|) / se

with se built from the moderated variance. A gene is included only when
every U is strictly positive; included genes are ranked by the minimum U,
so the score is the distance (in standard errors) to the nearest boundary
of the joint rejection region. Fixed-level decisions come from one-sided
confidence-interval inclusion per criterion, combined by requiring all
criteria to reject at once, which holds the overall level at alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .design import ComparisonDesign, ModelMatrix, build_comparison_matrix, compose_model_matrix
from .errors import ValidationError
from .expression import ExpressionMatrix
from .fitting import (
    REASON_INSUFFICIENT,
    REASON_NONFINITE,
    FitTable,
    GeneFit,
    LazyRows,
    ModerationResult,
    fit_all,
    moderate_variances,
)
from .profiles import Constraint, ProfileSpec
from .special import student_t_upper_quantile

__all__ = [
    "ScoreTable",
    "UStatistics",
    "RankedGene",
    "ExcludedGene",
    "RankedTable",
    "CIIDecision",
    "u_statistics",
    "gene_statistics",
    "rank_genes",
    "cii_decision",
    "iut_decision",
    "FittedExperiment",
    "fit_experiment",
    "rank_from_fits",
    "analyze",
    "SweepResult",
    "sweep_from_fits",
    "sensitivity_sweep",
]

REASON_VIOLATED = "criterion violated"
REASON_DEGENERATE = "degenerate variance"
# Codes of ScoreTable.reason and the exclusion reason each one stands for.
# Codes from _INSUFFICIENT on mark genes without a usable fit: they have no
# U values and are listed last.
REASONS = (None, REASON_VIOLATED, REASON_DEGENERATE, REASON_INSUFFICIENT, REASON_NONFINITE)
_INCLUDED, _VIOLATED, _DEGENERATE, _INSUFFICIENT, _NONFINITE = range(len(REASONS))


@dataclass(frozen=True)
class UStatistics:
    """Per-gene test statistics and the inclusion verdict.

    ``u_values`` aligns with the profile's test-bearing coefficients (in
    retained-column order); ``se`` and ``gamma_hat`` cover all retained
    coefficients. ``u`` is the minimum U, the gene's ranking score.
    """

    gene_id: str
    gamma_hat: np.ndarray = field(compare=False)
    se: np.ndarray = field(compare=False)
    u_values: np.ndarray = field(compare=False)
    u: float
    included: bool
    exclusion_reason: str | None
    s2: float | None
    posterior_s2: float | None


def u_statistics(
    fit: GeneFit,
    mod: ModerationResult,
    profile: ProfileSpec,
    model: ModelMatrix,
    gene_index: int,
) -> UStatistics:
    """Compute the per-criterion U statistics for one fitted gene: the
    scoring pass of ``gene_statistics`` on one row.

    ``gene_index`` selects this gene's posterior variance from the
    moderation result. Inclusion requires strictly positive U for every
    criterion; a zero standard error excludes the gene as degenerate
    unless the sign of the estimate already violates a criterion.
    """
    if not fit.ok:
        raise ValueError(f"gene {fit.gene_id!r}: cannot score an excluded fit")
    posterior_s2 = float(mod.posterior_s2[gene_index])
    if math.isnan(posterior_s2):
        raise ValueError(
            f"gene {fit.gene_id!r}: no moderated variance at index {gene_index}"
        )
    gamma = np.array(fit.gamma_hat, dtype=float, ndmin=2)
    posterior_s2 = np.array([posterior_s2])
    se = _standard_errors(fit.unscaled_se[None, :], posterior_s2)
    return ScoreTable(
        (fit.gene_id,), gamma, se, *_score(gamma, se, np.zeros(1, np.int8), profile, model),
        s2=np.array([fit.s2], dtype=float), posterior_s2=posterior_s2,
    )[0]


def _standard_errors(unscaled_se: np.ndarray, posterior_s2: np.ndarray) -> np.ndarray:
    # Coefficient standard errors, genes x coefficients, from the
    # moderated residual variance of each gene.
    return unscaled_se * np.sqrt(posterior_s2)[:, None]


def _u_column(gamma: np.ndarray, se: np.ndarray, constraint: Constraint) -> np.ndarray:
    # Signed distance to the criterion boundary in standard errors; a zero
    # se gives +-inf by the sign of the distance, and 0 on the boundary.
    if constraint.kind == "pos":
        num = gamma - constraint.value
    else:
        num = constraint.value - np.abs(gamma)
    with np.errstate(all="ignore"):
        u = num / se
    zero = se == 0.0
    if zero.any():
        num = num[zero]
        u[zero] = np.where(num > 0, math.inf, np.where(num < 0, -math.inf, 0.0))
    return u


def _tests(profile: ProfileSpec, model: ModelMatrix) -> list[tuple[int, Constraint]]:
    # (retained column, constraint) of each test-bearing coefficient.
    tests = []
    for j in profile.test_bearing:
        if j not in model.coefficient_indices:
            raise ValidationError(
                f"test-bearing coefficient {profile.coefficient_names[j]!r} "
                "is not in the model"
            )
        tests.append((model.coefficient_indices.index(j), profile.constraints[j]))
    return tests


def _score(gamma: np.ndarray, se: np.ndarray, unfit: np.ndarray,
           profile: ProfileSpec, model: ModelMatrix):
    """``(u_values, u, reason)`` of every row of ``gamma`` and ``se``, as
    ``u_statistics`` describes them; a row whose ``unfit`` code is not
    ``_INCLUDED`` keeps that code as its reason."""
    tests = _tests(profile, model)
    u_values = np.empty((len(gamma), len(tests)), order="F")
    for col, (p, con) in enumerate(tests):
        u_values[:, col] = _u_column(gamma[:, p], se[:, p], con)
    u = u_values.min(axis=1)
    included = np.all(u_values > 0.0, axis=1) & np.all(np.isfinite(u_values), axis=1)
    reason = np.select(
        [unfit != _INCLUDED, included, u > 0.0], [unfit, _INCLUDED, _DEGENERATE], _VIOLATED
    )
    return u_values, u, reason.astype(np.int8)


@dataclass(frozen=True, eq=False)
class ScoreTable(LazyRows):
    """U statistics of every gene, one row per row of the fit table.

    ``gamma`` and ``se`` cover all retained coefficients, so they have one
    column per model column; ``u_values`` has one column per test-bearing
    coefficient of the profile, and ``u`` is its row minimum. ``reason``
    codes the verdict as an index into ``REASONS``, whose entry 0 (None)
    means included; genes the fit excluded read ``insufficient data`` or
    ``non-finite fit`` and hold NaN in ``se``, ``u_values``, ``u`` and
    ``posterior_s2``. As a sequence the table yields one ``UStatistics``
    per gene.
    """

    gene_ids: tuple[str, ...]
    gamma: np.ndarray
    se: np.ndarray
    u_values: np.ndarray
    u: np.ndarray
    reason: np.ndarray
    s2: np.ndarray
    posterior_s2: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.gamma, self.se, self.u_values, self.u, self.reason,
                       self.s2, self.posterior_s2):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.gene_ids)

    @property
    def included(self) -> np.ndarray:
        return self.reason == _INCLUDED

    def _row(self, i: int) -> UStatistics:
        return UStatistics(
            gene_id=self.gene_ids[i],
            gamma_hat=self.gamma[i],
            se=self.se[i],
            u_values=self.u_values[i],
            u=float(self.u[i]),
            included=bool(self.reason[i] == _INCLUDED),
            exclusion_reason=REASONS[self.reason[i]],
            s2=float(self.s2[i]),
            posterior_s2=float(self.posterior_s2[i]),
        )

    @classmethod
    def from_stats(cls, stats) -> "ScoreTable":
        """Stack per-gene ``UStatistics`` into columns, one row each."""
        stats = list(stats)

        def column(values):
            if not stats:
                return np.empty((0, 0))
            return np.array(values, dtype=float).reshape(len(stats), -1)

        return cls(
            gene_ids=tuple(s.gene_id for s in stats),
            gamma=column([s.gamma_hat for s in stats]),
            se=column([s.se for s in stats]),
            u_values=column([s.u_values for s in stats]),
            u=np.array([s.u for s in stats], dtype=float),
            reason=np.array(
                [_INCLUDED if s.included else REASONS.index(s.exclusion_reason or REASON_VIOLATED)
                 for s in stats],
                dtype=np.int8,
            ),
            # A missing (None) variance becomes NaN.
            s2=np.array([s.s2 for s in stats], dtype=float),
            posterior_s2=np.array([s.posterior_s2 for s in stats], dtype=float),
        )


@dataclass(frozen=True)
class RankedGene:
    rank: int
    gene_id: str
    u: float
    u_values: np.ndarray = field(compare=False)
    gamma_hat: np.ndarray = field(compare=False)
    se: np.ndarray = field(compare=False)
    s2: float = math.nan
    posterior_s2: float = math.nan


@dataclass(frozen=True)
class ExcludedGene:
    gene_id: str
    reason: str
    u_values: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True, eq=False)
class RankedTable:
    """Included genes in rank order plus the excluded list.

    Index arrays into one ``ScoreTable``: ``order`` holds the rows of the
    included genes in rank order and ``dropped`` the rows of the excluded
    genes, those without a usable fit last, each group in row order.
    ``rows`` and ``excluded`` present the same data as tuples of
    ``RankedGene`` and ``ExcludedGene``, built on first use.
    """

    scores: ScoreTable
    order: np.ndarray
    dropped: np.ndarray

    @cached_property
    def rows(self) -> tuple[RankedGene, ...]:
        s = self.scores
        return tuple(
            RankedGene(rank=rank, gene_id=s.gene_ids[j], u=float(s.u[j]),
                       u_values=s.u_values[j], gamma_hat=s.gamma[j], se=s.se[j],
                       s2=float(s.s2[j]), posterior_s2=float(s.posterior_s2[j]))
            for rank, j in enumerate(self.order.tolist(), start=1)
        )

    @cached_property
    def excluded(self) -> tuple[ExcludedGene, ...]:
        s = self.scores
        return tuple(
            ExcludedGene(gene_id=s.gene_ids[j], reason=REASONS[s.reason[j]],
                         u_values=None if s.reason[j] >= _INSUFFICIENT else s.u_values[j])
            for j in self.dropped.tolist()
        )

    @cached_property
    def _rank_by_id(self) -> dict[str, int]:
        return {gene_id: rank for rank, gene_id in enumerate(self.included_ids, start=1)}

    def rank_of(self, gene_id: str) -> int | None:
        return self._rank_by_id.get(gene_id)

    @cached_property
    def included_ids(self) -> tuple[str, ...]:
        ids = self.scores.gene_ids
        return tuple(ids[i] for i in self.order.tolist())


def _id_order(ids: list[str]) -> np.ndarray:
    # Position of each id in sorted order: a sort key equal to the id's own.
    key = np.empty(len(ids), dtype=np.intp)
    key[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return key


def _rank(scores: ScoreTable) -> RankedTable:
    """Included genes by descending U, ties by gene id: one stable sort."""
    included = np.flatnonzero(scores.included)
    ids = [scores.gene_ids[i] for i in included.tolist()]
    order = included[np.lexsort((_id_order(ids), -scores.u[included]))]
    excluded = np.flatnonzero(~scores.included)
    unfit_last = np.argsort(scores.reason[excluded] >= _INSUFFICIENT, kind="stable")
    return RankedTable(scores=scores, order=order, dropped=excluded[unfit_last])


def rank_genes(stats) -> RankedTable:
    """Sort included genes by descending U (ties by gene id) and assign
    contiguous ranks; everything else lands in the excluded list.

    ``stats`` is any sequence of ``UStatistics``, stacked into one
    ``ScoreTable`` and ranked as ``rank_from_fits`` ranks.
    """
    return _rank(ScoreTable.from_stats(stats))


@dataclass(frozen=True)
class CIIDecision:
    reject_h0: bool
    interval: tuple[float, float]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValidationError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    return alpha


def cii_decision(
    fit: GeneFit,
    mod: ModerationResult,
    gene_index: int,
    coefficient: int,
    constraint: Constraint,
    alpha: float,
) -> CIIDecision:
    """Confidence-interval-inclusion test for one coefficient.

    Equivalence: reject non-equivalence iff the two-sided interval built
    from one-sided (1-alpha) limits lies strictly inside (-margin, margin).
    Positivity: reject iff the one-sided lower limit exceeds the threshold.
    Either holds exactly when the criterion's U exceeds the t quantile, the
    test ``iut_decision`` applies, so the decision is made by that test and
    the two agree, with one exception: a zero standard error
    (``posterior_s2 = 0``). The interval is then the point gamma_hat, even
    at t* = inf, and U is infinite, so this test rejects wherever gamma_hat
    meets the criterion (nowhere at t* = inf, which no U exceeds), while
    ``iut_decision`` never passes an infinite U: such a gene is excluded as
    ``degenerate variance``. The t quantile uses the moderated degrees of
    freedom (normal when the prior is degenerate). ``coefficient`` indexes
    retained model columns.
    """
    alpha = _check_alpha(alpha)
    if not fit.ok:
        raise ValueError(f"gene {fit.gene_id!r}: cannot test an excluded fit")
    if not constraint.is_test_bearing:
        raise ValidationError("unconstrained coefficients have no test")
    se = float(_standard_errors(fit.unscaled_se[None, :],
                                mod.posterior_s2[[gene_index]])[0, coefficient])
    tstar = student_t_upper_quantile(alpha, float(mod.posterior_df[gene_index]))
    gamma = float(fit.gamma_hat[coefficient])
    half = tstar * se if se else 0.0  # not inf * 0 = nan at t* = inf
    upper = gamma + half if constraint.kind == "equiv" else math.inf
    u = _u_column(np.array([gamma]), np.array([se]), constraint)
    reject = _passes(u[:, None], mod.posterior_df[[gene_index]], alpha)[0]
    return CIIDecision(reject_h0=bool(reject), interval=(gamma - half, upper))


def iut_decision(u: UStatistics, posterior_df: float, alpha: float) -> bool:
    """Overall alpha-level decision: every criterion must reject at level
    alpha, i.e. every U must exceed the one-sided t quantile."""
    alpha = _check_alpha(alpha)
    if u.u_values.size == 0 or not np.all(np.isfinite(u.u_values)):
        return False
    return bool(_passes(u.u_values[None, :], np.array([posterior_df], dtype=float), alpha)[0])


def _passes(u_values: np.ndarray, df: np.ndarray, alpha: float) -> np.ndarray:
    """Rows of ``u_values`` whose every U exceeds the one-sided t quantile
    at level ``alpha`` and the row's moderated ``df``: one quantile per
    distinct df. Its callers check ``alpha``."""
    distinct, which = np.unique(df, return_inverse=True)
    tstar = np.array([student_t_upper_quantile(alpha, float(d)) for d in distinct])
    return np.all(u_values > tstar[which][:, None], axis=1)


@dataclass(frozen=True)
class FittedExperiment:
    """Everything that does not depend on the test margins: the composed
    model, per-gene fits, the variance moderation and the standard errors
    ``se`` built from the last two, which every score table shares."""

    model: ModelMatrix
    fits: FitTable
    moderation: ModerationResult

    @cached_property
    def se(self) -> np.ndarray:
        se = _standard_errors(self.fits.unscaled_se, self.moderation.posterior_s2)
        se.setflags(write=False)
        return se


def fit_experiment(
    expr: ExpressionMatrix,
    design: ComparisonDesign,
    profile: ProfileSpec,
) -> FittedExperiment:
    """Compose the model, fit every gene, and moderate the variances."""
    if expr.array_ids != design.array_ids:
        raise ValidationError(
            "expression arrays do not match the design arrays "
            f"({list(expr.array_ids)} vs {list(design.array_ids)})"
        )
    xstar = build_comparison_matrix(design)
    model = compose_model_matrix(xstar, profile)
    fits = fit_all(expr, model)
    moderation = moderate_variances(fits)
    return FittedExperiment(model=model, fits=fits, moderation=moderation)


def gene_statistics(
    fitted: FittedExperiment, profile: ProfileSpec, rows: np.ndarray | None = None
) -> ScoreTable:
    """U statistics for every gene of the fit table, in one vectorized pass.

    The table shares ``gene_ids``, ``gamma`` and ``s2`` with the fit table,
    ``posterior_s2`` with the moderation result and ``se`` with ``fitted``;
    the NaN posterior variance of an unfit gene carries through to its
    ``se`` and U values. ``rows`` (fit-table row indices) scores only those
    genes, in that order, with copies of their rows: the same formula on
    the same numbers, so every value equals that of the full table.
    """
    fits = fitted.fits
    gene_ids, gamma, se, s2 = fits.gene_ids, fits.gamma, fitted.se, fits.s2
    posterior_s2, ok, df = fitted.moderation.posterior_s2, fits.ok, fits.df
    if rows is not None:
        gene_ids = tuple([gene_ids[i] for i in rows.tolist()])
        gamma, se, s2, posterior_s2, ok, df = (
            column[rows] for column in (gamma, se, s2, posterior_s2, ok, df))
    unfit = np.select([ok, df > 0], [_INCLUDED, _NONFINITE], _INSUFFICIENT)
    return ScoreTable(
        gene_ids, gamma, se, *_score(gamma, se, unfit, profile, fitted.model),
        s2=s2, posterior_s2=posterior_s2,
    )


def _alpha_pass_count(fitted: FittedExperiment, stats: ScoreTable, alpha: float) -> int:
    """Included genes that pass ``iut_decision`` at level ``alpha``."""
    included = stats.included
    return int(_passes(stats.u_values[included], fitted.moderation.posterior_df[included],
                       alpha).sum())


def _included_rows(fitted: FittedExperiment, profile: ProfileSpec) -> np.ndarray:
    """The fit-table rows that ``gene_statistics(fitted, profile)``
    includes, found one test column at a time without the score table."""
    fits, se = fitted.fits, fitted.se
    keep = fits.ok.copy()
    for p, con in _tests(profile, fitted.model):
        u = _u_column(fits.gamma[:, p], se[:, p], con)
        keep &= (u > 0.0) & np.isfinite(u)
    return np.flatnonzero(keep)


def rank_from_fits(
    fitted: FittedExperiment,
    profile: ProfileSpec,
    stats: ScoreTable | None = None,
) -> RankedTable:
    """Score and rank a fitted experiment under the profile's margins;
    ``stats`` reuses a ``gene_statistics`` result for the same profile."""
    return _rank(stats if stats is not None else gene_statistics(fitted, profile))


def analyze(
    expr: ExpressionMatrix, design: ComparisonDesign, profile: ProfileSpec
) -> tuple[FittedExperiment, RankedTable]:
    """Full pipeline: fit once, then rank under the profile's margins; pass
    ``profile.with_margins(...)`` to change them."""
    fitted = fit_experiment(expr, design, profile)
    return fitted, rank_from_fits(fitted, profile)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The ranks of a margin sweep, one entry per margin in grid order.

    ``epsilons`` are the margins as given. ``orders[t]`` holds the
    fit-table rows of the genes included at ``epsilons[t]``, in rank
    order. ``stability`` maps each gene included at any margin to its rank
    per margin (None where excluded), ordered by best achieved rank.
    ``fitted`` and ``profile`` are what the sweep ranked; ``tables[t]``,
    the full ``RankedTable`` at ``epsilons[t]``, is built from them through
    ``gene_statistics`` when ``tables`` is first read.
    """

    epsilons: tuple[float, ...]
    orders: tuple[np.ndarray, ...]
    stability: tuple[tuple[str, tuple[int | None, ...]], ...]
    fitted: FittedExperiment
    profile: ProfileSpec

    @cached_property
    def tables(self) -> tuple[RankedTable, ...]:
        return tuple(
            _rank(gene_statistics(self.fitted, self.profile.with_margins(epsilon=e)))
            for e in self.epsilons
        )


def _check_sweep(profile: ProfileSpec, epsilons) -> list[float]:
    """The sweep margins as floats: at least one, each finite and > 0, for a
    profile with an equivalence coefficient for them to vary."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValidationError("a margin sweep needs at least one margin")
    if any(not 0.0 < e < math.inf for e in eps):
        raise ValidationError(f"sweep margins must be > 0 and finite, got {eps}")
    profile._require_equiv("a margin sweep")
    return eps


def sweep_from_fits(
    fitted: FittedExperiment, profile: ProfileSpec, epsilons
) -> SweepResult:
    """Re-rank an already fitted experiment under each equivalence margin.

    Only the equivalence margins vary across the sweep, and each
    equivalence U grows with its margin, so inclusion sets are nested as
    the margin grows: every gene included at some margin is included at
    the widest. Only those candidates are scored and ranked at each
    margin, by the formula and sort key of ``gene_statistics`` and
    ``rank_from_fits``. The margins must pass ``_check_sweep``.
    """
    eps = _check_sweep(profile, epsilons)
    candidates = _included_rows(fitted, profile.with_margins(epsilon=max(eps)))
    # ranks[i, t]: rank of candidate i at margin t, 0 where excluded.
    ranks = np.zeros((len(candidates), len(eps)), dtype=np.intp)
    orders = []
    for t, e in enumerate(eps):
        order = _rank(gene_statistics(fitted, profile.with_margins(epsilon=e),
                                      rows=candidates)).order
        ranks[order, t] = np.arange(1, len(order) + 1)
        orders.append(candidates[order])
    best = np.where(ranks > 0, ranks, np.iinfo(np.intp).max).min(axis=1)
    ids = [fitted.fits.gene_ids[i] for i in candidates.tolist()]
    cells = np.where(ranks > 0, ranks, None).tolist()
    stability = tuple(
        (ids[i], tuple(cells[i])) for i in np.lexsort((_id_order(ids), best)).tolist()
    )
    return SweepResult(tuple(eps), tuple(orders), stability, fitted, profile)


def sensitivity_sweep(
    expr: ExpressionMatrix, design: ComparisonDesign, profile: ProfileSpec, epsilons
) -> SweepResult:
    """Fit once, then re-rank under each equivalence margin."""
    return sweep_from_fits(fit_experiment(expr, design, profile), profile, epsilons)
