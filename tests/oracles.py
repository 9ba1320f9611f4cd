"""Per-gene reference formulas the columnar kernels are diffed against.

The library's per-gene names (``fit_gene``, ``u_statistics``,
``rank_genes``, ``posterior_variance``, ``iut_decision``) are one-row calls
into the same kernels that ``rank`` runs, so they cannot check those
kernels. These functions compute each statistic once more, one gene at a
time with scalar Python arithmetic, and take no argument checks: callers
pass only what the formulas accept. ``synth_columns`` is the synthetic
data generator written the same way: each coefficient, variance and noise
row drawn with its own ``rng.uniform``/``rng.normal`` call.
"""

import math

import numpy as np

from profilerank.design import build_comparison_matrix, compose_model_matrix
from profilerank.ranking import (
    REASON_DEGENERATE,
    REASON_INSUFFICIENT,
    REASON_VIOLATED,
    RankedTable,
    ScoreTable,
    UStatistics,
    _model_positions,
)
from profilerank.special import student_t_upper_quantile
from profilerank.synth import (
    CHALLENGER_EQUIV_FRACTION,
    CHALLENGER_POS_MARGIN,
    D0,
    EQUIV_BAND,
    POS_MARGIN,
    ROLE_BACKGROUND,
    ROLE_CHALLENGER,
    ROLE_PLANTED,
    ROLE_TOP,
    S0_2,
    TOP_POS_MARGIN,
    VIOLATION,
)

from test_acceptance import _pure_python_normal_equations


def fit_gene(y, model):
    """``(n_used, df, gamma, s2, unscaled_se)`` of one gene from the normal
    equations on its observed rows; ``df`` is 0 and the rest None when
    those rows leave no residual degree of freedom or lose rank."""
    mask = np.isfinite(y)
    n_used, k = int(mask.sum()), model.n_coefficients
    x_obs = model.x[mask]
    if n_used - k < 1 or np.linalg.matrix_rank(x_obs) < k:
        return n_used, 0, None, None, None
    gamma, s2 = _pure_python_normal_equations(x_obs.tolist(), y[mask].tolist())
    unscaled_se = np.sqrt(np.diag(np.linalg.inv(x_obs.T @ x_obs)))
    return n_used, n_used - k, gamma, s2, unscaled_se


def posterior_variance(d0, s0_2, df, s2):
    """df-weighted average of the prior and sample variance, clamped to the
    closed interval between s0_2 and s2; with d0 = inf the prior wins."""
    if math.isinf(d0):
        return s0_2
    post = (d0 * s0_2 + df * s2) / (d0 + df)
    lo, hi = min(s0_2, s2), max(s0_2, s2)
    return min(max(post, lo), hi)


def single_u(gamma, se, constraint):
    """Signed distance from ``gamma`` to the criterion boundary in standard
    errors; a zero ``se`` gives +-inf by the sign, 0 on the boundary."""
    if constraint.kind == "pos":
        num = gamma - constraint.value
    else:
        num = constraint.value - abs(gamma)
    if se == 0.0:
        return math.inf if num > 0 else (-math.inf if num < 0 else 0.0)
    return num / se


def u_statistics(fit, mod, profile, model, gene_index):
    """U statistics of one fitted gene: ``single_u`` per test-bearing
    coefficient; included only when every U is finite and positive."""
    posterior_s2 = float(mod.posterior_s2[gene_index])
    scale = math.sqrt(posterior_s2)
    se = fit.unscaled_se * scale
    positions = _model_positions(profile, model)
    constraints = [profile.constraints[j] for j in profile.test_bearing]
    u_values = np.array(
        [
            single_u(float(fit.gamma_hat[p]), float(se[p]), con)
            for p, con in zip(positions, constraints)
        ]
    )
    u = float(u_values.min())
    included = bool(np.all(u_values > 0.0) and np.all(np.isfinite(u_values)))
    reason = None
    if not included:
        reason = REASON_DEGENERATE if u > 0.0 else REASON_VIOLATED
    return UStatistics(
        gene_id=fit.gene_id,
        gamma_hat=np.array(fit.gamma_hat),
        se=se,
        u_values=u_values,
        u=u,
        included=included,
        exclusion_reason=reason,
        s2=fit.s2,
        posterior_s2=posterior_s2,
    )


def rank_genes(stats):
    """Included genes by descending U, ties by gene id, with Python's
    ``sorted``; excluded genes in input order, ``insufficient data`` last."""
    stats = list(stats)
    order = sorted(
        (i for i, s in enumerate(stats) if s.included),
        key=lambda i: (-stats[i].u, stats[i].gene_id),
    )
    dropped = sorted(
        (i for i, s in enumerate(stats) if not s.included),
        key=lambda i: stats[i].exclusion_reason == REASON_INSUFFICIENT,
    )
    return RankedTable(
        scores=ScoreTable.from_stats(stats),
        order=np.array(order, dtype=np.intp),
        dropped=np.array(dropped, dtype=np.intp),
    )


def iut_decision(u_values, posterior_df, alpha):
    """Every U of one gene exceeds the one-sided t quantile at its df."""
    if u_values.size == 0 or not np.all(np.isfinite(u_values)):
        return False
    tstar = student_t_upper_quantile(alpha, float(posterior_df))
    return bool(np.all(u_values > tstar))


def _planted_gamma(constraint, rng, role):
    if constraint.kind == "pos":
        if role == ROLE_TOP:
            return constraint.value + TOP_POS_MARGIN
        if role == ROLE_CHALLENGER:
            return constraint.value + CHALLENGER_POS_MARGIN
        return constraint.value + rng.uniform(*POS_MARGIN)
    if constraint.kind == "equiv":
        if role == ROLE_TOP:
            return 0.0
        if role == ROLE_CHALLENGER:
            return CHALLENGER_EQUIV_FRACTION * constraint.value
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return sign * rng.uniform(*EQUIV_BAND)
    return rng.uniform(-1.0, 1.0)


def _background_gamma(constraints, rng):
    test_positions = [i for i, c in enumerate(constraints) if c.is_test_bearing]
    violate = rng.random(len(test_positions)) < 0.5
    if not violate.any():
        violate[rng.integers(len(test_positions))] = True
    violated = {p for p, v in zip(test_positions, violate) if v}
    gamma = []
    for i, con in enumerate(constraints):
        if i in violated:
            if con.kind == "pos":
                gamma.append(con.value - rng.uniform(*VIOLATION))
            else:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                gamma.append(sign * (con.value + rng.uniform(*VIOLATION)))
        else:
            gamma.append(_planted_gamma(con, rng, ROLE_PLANTED))
    return gamma


def synth_columns(design, profile, n_genes, n_planted, seed):
    """``(roles, gamma, sigma2, values)`` of ``generate_dataset``, one gene
    at a time."""
    model = compose_model_matrix(build_comparison_matrix(design), profile)
    constraints = [profile.constraints[j] for j in model.coefficient_indices]
    rng = np.random.default_rng(seed)
    planted_positions = (
        np.sort(rng.choice(n_genes, size=n_planted, replace=False))
        if n_planted
        else np.array([], dtype=int)
    )
    planted = dict(zip(planted_positions.tolist(),
                       [ROLE_TOP, ROLE_CHALLENGER, *[ROLE_PLANTED] * n_planted]))
    roles = tuple(planted.get(i, ROLE_BACKGROUND) for i in range(n_genes))

    n_arrays = model.n_arrays
    values = np.empty((n_genes, n_arrays))
    gamma = np.empty((n_genes, len(constraints)))
    sigma2 = np.empty(n_genes)
    for i, role in enumerate(roles):
        if role == ROLE_BACKGROUND:
            gamma[i] = _background_gamma(constraints, rng)
        else:
            gamma[i] = [_planted_gamma(c, rng, role) for c in constraints]
        sigma2[i] = D0 * S0_2 / rng.chisquare(D0)
        values[i] = model.x @ gamma[i] + rng.normal(0.0, np.sqrt(sigma2[i]), n_arrays)
    return roles, gamma, sigma2, values
