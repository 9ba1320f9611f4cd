"""Synthetic benchmark data with planted profile-matching genes.

The generator draws true coefficients per gene, a per-gene variance from a
scaled inverse-chi-square prior, and observed log ratios from the design's
model matrix plus Gaussian noise. Planted genes satisfy every criterion of
the target profile with a comfortable margin; background genes violate at
least one criterion. Two planted genes get fixed, documented roles so that
benchmark tests have a known strongest gene:

* ``planted_top``        -- large positivity margins, equivalence
                            coefficients exactly zero,
* ``planted_challenger`` -- even larger positivity margins but an
                            equivalence coefficient at 0.8 of the margin,
                            so it only becomes competitive when the
                            analysis margin is widened.

Other coefficients are drawn uniformly from fixed ranges: a satisfied
positivity criterion lands ``POS_MARGIN`` above its threshold, a satisfied
equivalence coefficient has magnitude in ``EQUIV_BAND``, and a violated
criterion lands ``VIOLATION`` beyond its boundary. A free coefficient is
drawn from U(-1, 1). Everything is driven by one seed; outputs are
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .csvout import write_csv
from .design import ComparisonDesign, build_comparison_matrix, compose_model_matrix
from .errors import ValidationError
from .fitting import ExpressionMatrix
from .profiles import ProfileSpec

__all__ = [
    "TruthRow",
    "SynthResult",
    "generate_dataset",
    "write_expression_csv",
    "write_truth_csv",
]

ROLE_BACKGROUND = "background"
ROLE_PLANTED = "planted"
ROLE_TOP = "planted_top"
ROLE_CHALLENGER = "planted_challenger"

TOP_POS_MARGIN = 3.0
CHALLENGER_POS_MARGIN = 2.5
CHALLENGER_EQUIV_FRACTION = 0.8

POS_MARGIN = (1.2, 2.2)
EQUIV_BAND = (0.55, 0.70)
VIOLATION = (0.25, 2.0)

# Gene variances: sigma2_g = D0 * S0_2 / chisq(D0).
D0 = 16.0
S0_2 = 0.05


@dataclass(frozen=True)
class TruthRow:
    gene_id: str
    planted: bool
    role: str
    gamma: tuple[float, ...]
    sigma2: float


@dataclass(frozen=True)
class SynthResult:
    """The data and, as columns in gene order, the truth behind it: one role
    per gene, the genes x retained-coefficients ``gamma`` and ``sigma2``."""

    expression: ExpressionMatrix
    coefficient_names: tuple[str, ...]
    roles: tuple[str, ...]
    gamma: np.ndarray = field(compare=False)
    sigma2: np.ndarray = field(compare=False)

    @cached_property
    def truth(self) -> tuple[TruthRow, ...]:
        """One ``TruthRow`` per gene, built on first use."""
        return tuple(
            TruthRow(gene_id, role != ROLE_BACKGROUND, role, tuple(gamma), sigma2)
            for gene_id, role, gamma, sigma2 in zip(
                self.expression.gene_ids, self.roles, self.gamma.tolist(),
                self.sigma2.tolist())
        )


def _planted_gamma(constraint, rng, role: str) -> float:
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


def _background_gamma(constraints, rng) -> list[float]:
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


def generate_dataset(
    design: ComparisonDesign,
    profile: ProfileSpec,
    n_genes: int,
    n_planted: int,
    seed: int,
) -> SynthResult:
    """Generate an expression matrix plus the ground truth behind it.

    Planted-gene margins are measured against the profile's constraints as
    given, so pass the margins you intend to analyse with. Every
    equivalence margin must exceed ``EQUIV_BAND``'s upper bound.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n_genes < 1:
        raise ValidationError("n_genes must be >= 1")
    if not 0 <= n_planted <= n_genes:
        raise ValidationError(
            f"n_planted must lie in [0, n_genes], got {n_planted} of {n_genes}"
        )
    equiv_margins = [c.value for c in profile.constraints if c.kind == "equiv"]
    if equiv_margins and EQUIV_BAND[1] >= min(equiv_margins):
        raise ValidationError(
            f"the equivalence band's upper bound {EQUIV_BAND[1]} must stay below "
            f"the smallest equivalence margin {min(equiv_margins)}"
        )

    xstar = build_comparison_matrix(design)
    model = compose_model_matrix(xstar, profile)
    constraints = [profile.constraints[j] for j in model.coefficient_indices]
    names = tuple(
        profile.coefficient_names[j] for j in model.coefficient_indices
    )
    rng = np.random.default_rng(seed)
    planted_positions = (
        np.sort(rng.choice(n_genes, size=n_planted, replace=False))
        if n_planted
        else np.array([], dtype=int)
    )
    planted = dict(zip(planted_positions.tolist(),
                       [ROLE_TOP, ROLE_CHALLENGER, *[ROLE_PLANTED] * n_planted]))
    roles = tuple(planted.get(i, ROLE_BACKGROUND) for i in range(n_genes))

    width = max(5, len(str(n_genes)))
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
    expr = ExpressionMatrix(
        gene_ids=tuple(f"g{i + 1:0{width}d}" for i in range(n_genes)),
        array_ids=design.array_ids,
        values=values,
    )
    return SynthResult(expression=expr, coefficient_names=names,
                       roles=roles, gamma=gamma, sigma2=sigma2)


def write_expression_csv(expr: ExpressionMatrix, path) -> None:
    """Write the data table with full-precision (round-trip) decimals."""
    rows = ([gene_id, *["NA" if v != v else repr(v) for v in row.tolist()]]
            for gene_id, row in zip(expr.gene_ids, expr.values))
    write_csv(path, ["gene_id", *expr.array_ids], rows)


def write_truth_csv(result: SynthResult, path) -> None:
    header = (
        ["gene_id", "planted", "role"]
        + [f"gamma_{name}" for name in result.coefficient_names]
        + ["sigma2"]
    )
    rows = zip(result.expression.gene_ids, result.roles, result.gamma, result.sigma2.tolist())
    write_csv(path, header, (
        [gene_id, "0" if role == ROLE_BACKGROUND else "1", role,
         *map(repr, gamma.tolist()), repr(sigma2)]
        for gene_id, role, gamma, sigma2 in rows
    ))
