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

Everything is driven by one seed; outputs are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvout import write_csv
from .design import ComparisonDesign, build_comparison_matrix, compose_model_matrix
from .errors import ValidationError
from .fitting import ExpressionMatrix
from .profiles import ProfileSpec

__all__ = [
    "GammaRanges",
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


@dataclass(frozen=True)
class GammaRanges:
    """Uniform draw ranges for true coefficients.

    ``pos_margin``: margin above the positivity threshold for satisfied
    criteria. ``equiv_band``: |coefficient| band for satisfied equivalence
    criteria (must stay below the margin). ``violate_pos`` /
    ``violate_equiv``: how far a violated criterion lands beyond its
    boundary.
    """

    pos_margin: tuple[float, float] = (1.2, 2.2)
    equiv_band: tuple[float, float] = (0.55, 0.70)
    violate_pos: tuple[float, float] = (0.25, 2.0)
    violate_equiv: tuple[float, float] = (0.25, 2.0)

    def __post_init__(self) -> None:
        for name in ("pos_margin", "equiv_band", "violate_pos", "violate_equiv"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi < math.inf:
                raise ValidationError(f"invalid range {name}: ({lo}, {hi})")


@dataclass(frozen=True)
class TruthRow:
    gene_id: str
    planted: bool
    role: str
    gamma: tuple[float, ...]
    sigma2: float


@dataclass(frozen=True)
class SynthResult:
    expression: ExpressionMatrix
    truth: tuple[TruthRow, ...]
    coefficient_names: tuple[str, ...]


def _planted_gamma(constraint, rng, ranges: GammaRanges, role: str) -> float:
    if constraint.kind == "pos":
        if role == ROLE_TOP:
            return constraint.value + TOP_POS_MARGIN
        if role == ROLE_CHALLENGER:
            return constraint.value + CHALLENGER_POS_MARGIN
        return constraint.value + rng.uniform(*ranges.pos_margin)
    if constraint.kind == "equiv":
        if role == ROLE_TOP:
            return 0.0
        if role == ROLE_CHALLENGER:
            return CHALLENGER_EQUIV_FRACTION * constraint.value
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return sign * rng.uniform(*ranges.equiv_band)
    return rng.uniform(-1.0, 1.0)


def _background_gamma(constraints, rng, ranges: GammaRanges) -> list[float]:
    test_positions = [i for i, c in enumerate(constraints) if c.is_test_bearing]
    violate = rng.random(len(test_positions)) < 0.5
    if not violate.any():
        violate[rng.integers(len(test_positions))] = True
    violated = {p for p, v in zip(test_positions, violate) if v}
    gamma = []
    for i, con in enumerate(constraints):
        if con.kind == "free":
            gamma.append(rng.uniform(-1.0, 1.0))
        elif i in violated:
            if con.kind == "pos":
                gamma.append(con.value - rng.uniform(*ranges.violate_pos))
            else:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                gamma.append(sign * (con.value + rng.uniform(*ranges.violate_equiv)))
        else:
            gamma.append(_planted_gamma(con, rng, ranges, ROLE_PLANTED))
    return gamma


def generate_dataset(
    design: ComparisonDesign,
    profile: ProfileSpec,
    n_genes: int,
    n_planted: int,
    seed: int,
    d0: float = 16.0,
    s0_2: float = 0.05,
    ranges: GammaRanges = GammaRanges(),
) -> SynthResult:
    """Generate an expression matrix plus the ground truth behind it.

    Planted-gene margins are measured against the profile's constraints as
    given, so pass the margins you intend to analyse with. Gene variances
    are sigma2_g = d0 * s0_2 / chisq(d0).
    """
    if n_genes < 1:
        raise ValidationError("n_genes must be >= 1")
    if not 0 <= n_planted <= n_genes:
        raise ValidationError(
            f"n_planted must lie in [0, n_genes], got {n_planted} of {n_genes}"
        )
    if not (0.0 < d0 < math.inf and 0.0 < s0_2 < math.inf):
        raise ValidationError(
            f"variance prior needs finite d0 > 0 and s0_2 > 0, got d0={d0}, s0_2={s0_2}"
        )
    equiv_margins = [c.value for c in profile.constraints if c.kind == "equiv"]
    if equiv_margins and ranges.equiv_band[1] >= min(equiv_margins):
        raise ValidationError(
            f"equiv_band upper bound {ranges.equiv_band[1]} must stay below "
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
    roles = {}
    for order, pos in enumerate(planted_positions):
        if order == 0:
            roles[int(pos)] = ROLE_TOP
        elif order == 1:
            roles[int(pos)] = ROLE_CHALLENGER
        else:
            roles[int(pos)] = ROLE_PLANTED

    width = max(5, len(str(n_genes)))
    n_arrays = model.n_arrays
    values = np.empty((n_genes, n_arrays))
    truth: list[TruthRow] = []
    for i in range(n_genes):
        role = roles.get(i, ROLE_BACKGROUND)
        if role == ROLE_BACKGROUND:
            gamma = _background_gamma(constraints, rng, ranges)
        else:
            gamma = [_planted_gamma(c, rng, ranges, role) for c in constraints]
        gamma = np.array(gamma)
        sigma2 = d0 * s0_2 / rng.chisquare(d0)
        values[i] = model.x @ gamma + rng.normal(0.0, np.sqrt(sigma2), n_arrays)
        truth.append(
            TruthRow(
                gene_id=f"g{i + 1:0{width}d}",
                planted=role != ROLE_BACKGROUND,
                role=role,
                gamma=tuple(float(g) for g in gamma),
                sigma2=float(sigma2),
            )
        )
    expr = ExpressionMatrix(
        gene_ids=tuple(row.gene_id for row in truth),
        array_ids=design.array_ids,
        values=values,
    )
    return SynthResult(
        expression=expr, truth=tuple(truth), coefficient_names=names
    )


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
    write_csv(path, header, (
        [row.gene_id, "1" if row.planted else "0", row.role,
         *map(repr, row.gamma), repr(row.sigma2)]
        for row in result.truth
    ))
