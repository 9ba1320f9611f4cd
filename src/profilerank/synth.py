"""Synthetic benchmark data with planted profile-matching genes.

The generator draws true coefficients per gene, a per-gene variance from a
scaled inverse-chi-square prior, and observed log ratios from the design's
model matrix plus Gaussian noise. Planted genes satisfy every criterion of
the target profile with a comfortable margin; background genes violate at
least one criterion. Two planted genes get fixed, documented roles so that
benchmark tests have a known strongest gene:

* ``planted_top``        -- large positivity margins, equivalence
                            coefficients exactly zero,
* ``planted_challenger`` -- smaller positivity margins (2.5 against 3.0)
                            and an equivalence coefficient at 0.8 of the
                            margin, so it only becomes competitive when
                            the analysis margin is widened.

Other coefficients are drawn uniformly from fixed ranges: a satisfied
positivity criterion lands ``POS_MARGIN`` above its threshold, a satisfied
equivalence coefficient has magnitude in ``EQUIV_BAND``, and a violated
criterion lands ``VIOLATION`` beyond its boundary. A free coefficient is
drawn from U(-1, 1). Everything is driven by one seed; outputs are
byte-stable.

The seeded stream is a contract: every seed-42 benchmark input depends on
it. One ``rng.choice`` picks the planted rows, if any, then each gene in
turn draws, in this order and from nothing else:

1. a background gene only: ``rng.random(k)``, one coin per test-bearing
   coefficient (heads, below 0.5, violates it), then ``rng.integers(k)``
   to pick the one violated coefficient when no coin came up heads;
2. its coefficients' doubles in coefficient order, one ``rng.random``
   call: one per pos or free coefficient, two per equiv coefficient (the
   sign, then the magnitude); a top or challenger gene draws only its
   free coefficients' doubles;
3. ``rng.chisquare(D0)`` for its variance;
4. one ``rng.standard_normal`` call for its noise, one double per array.

Genes are drawn in blocks of ``fitting._BLOCK_ROWS``, the fit's block
size; the arithmetic on a block's drawn numbers runs on its columns
after its draws and gives the bits that per-gene ``rng.uniform(a, b)``
(``a + (b - a) * u``), ``rng.normal(0, s)`` (``0.0 + s * z``) and
``model.x @ gamma`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import fitting
from .design import ComparisonDesign, build_comparison_matrix, compose_model_matrix
from .errors import ValidationError, write_csv
from .fitting import ExpressionMatrix
from .profiles import ProfileSpec

__all__ = [
    "TruthRow",
    "SynthResult",
    "generate_dataset",
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


def _uniform(bounds: tuple[float, float], u: np.ndarray) -> np.ndarray:
    """``rng.uniform(*bounds)`` applied to the doubles ``u`` it would draw."""
    low, high = bounds
    return low + (high - low) * u


def _gamma_columns(constraints, starts, u: np.ndarray, violated: np.ndarray,
                   top: np.ndarray, challenger: np.ndarray) -> np.ndarray:
    """Genes x coefficients truth, column by column, from each gene's drawn
    doubles ``u`` (coefficient j's first in column ``starts[j]``), its
    violated test-bearing coefficients ``violated`` and whether it is the
    ``top`` or the ``challenger`` gene, whose pos and equiv coefficients are
    fixed."""
    gamma = np.empty((len(u), len(constraints)))
    test = 0
    for j, (con, col) in enumerate(zip(constraints, starts)):
        if con.kind == "free":
            gamma[:, j] = _uniform((-1.0, 1.0), u[:, col])
            continue
        broken = violated[:, test]
        test += 1
        if con.kind == "pos":
            drawn = np.where(broken, con.value - _uniform(VIOLATION, u[:, col]),
                             con.value + _uniform(POS_MARGIN, u[:, col]))
            fixed = [con.value + TOP_POS_MARGIN, con.value + CHALLENGER_POS_MARGIN]
        else:
            sign = np.where(u[:, col] < 0.5, 1.0, -1.0)
            magnitude = u[:, col + 1]
            drawn = sign * np.where(broken, con.value + _uniform(VIOLATION, magnitude),
                                    _uniform(EQUIV_BAND, magnitude))
            fixed = [0.0, CHALLENGER_EQUIV_FRACTION * con.value]
        gamma[:, j] = np.select([top, challenger], fixed, drawn)
    return gamma


def _draw_block(rng, roles, constraints, noise: np.ndarray):
    """The draws of the genes ``roles`` in the stream's order (see the module
    docstring), each gene's standard normal noise into its row of ``noise``;
    returns their ``(gamma, chisq)``."""
    n_genes = len(roles)
    n_tests = sum(c.is_test_bearing for c in constraints)
    # Row i of u holds gene i's coefficient doubles in draw order; starts[j]
    # is coefficient j's first column.
    starts = [0, *accumulate(2 if c.kind == "equiv" else 1 for c in constraints)]
    free = [starts[j] for j, c in enumerate(constraints) if c.kind == "free"]
    coins = np.ones((n_genes, n_tests))
    u = np.zeros((n_genes, starts[-1]))
    chisq = np.empty(n_genes)
    for i, role in enumerate(roles):
        if role == ROLE_BACKGROUND:
            row = coins[i]
            rng.random(out=row)
            if min(row.tolist()) >= 0.5:  # no heads: violate one at random
                row[rng.integers(n_tests)] = 0.0
            rng.random(out=u[i])
        elif role == ROLE_PLANTED:
            rng.random(out=u[i])
        else:
            u[i, free] = rng.random(len(free))
        chisq[i] = rng.chisquare(D0)
        rng.standard_normal(out=noise[i])

    roles = np.array(roles, dtype=object)
    return _gamma_columns(constraints, starts, u, coins < 0.5,
                          roles == ROLE_TOP, roles == ROLE_CHALLENGER), chisq


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

    values = np.empty((n_genes, model.n_arrays))
    gamma = np.empty((n_genes, len(constraints)))
    sigma2 = np.empty(n_genes)
    size = fitting._BLOCK_ROWS
    for lo in range(0, n_genes, size):
        block = slice(lo, lo + size)
        rows = values[block]
        gamma[block], chisq = _draw_block(rng, roles[block], constraints, rows)
        sigma2[block] = D0 * S0_2 / chisq
        rows *= np.sqrt(sigma2[block])[:, None]
        rows += 0.0
        # One matrix-vector product per gene, stacked: the same bits as
        # model.x @ gamma[i], which gamma @ model.x.T does not promise.
        rows += np.matmul(model.x, gamma[block, :, None])[..., 0]
    width = max(5, len(str(n_genes)))
    expr = ExpressionMatrix(
        gene_ids=tuple(map(f"g{{:0{width}d}}".format, range(1, n_genes + 1))),
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
    rows = zip(result.expression.gene_ids, result.roles, result.gamma, result.sigma2)
    write_csv(path, header, (
        [gene_id, "0" if role == ROLE_BACKGROUND else "1", role,
         *map(repr, gamma.tolist()), repr(float(sigma2))]
        for gene_id, role, gamma, sigma2 in rows
    ))
