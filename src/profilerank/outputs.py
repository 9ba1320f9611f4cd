"""The result files of ``rank`` and ``sensitivity``: ``ranked.csv``,
``excluded.csv``, ``sensitivity.csv`` and ``moderation.json``."""

from __future__ import annotations

import json
import math

import numpy as np

from .csvout import _line, _quoted, write_csv, write_lines
from .fitting import _blocks
from .profiles import ProfileSpec
from .ranking import (
    REASONS,
    FittedExperiment,
    RankedTable,
    ScoreTable,
    SweepResult,
    _INSUFFICIENT,
)


def _fmt(x: float) -> str:
    return "NA" if x != x else f"{x:.6g}"


def _eps_label(e: float) -> str:
    return f"{e:g}"


def _block_rows(gene_ids, rows: np.ndarray, *columns: np.ndarray):
    """``(gene id, *values)`` of each gene in ``rows``, in that order, with
    the values of each column as Python numbers. They are converted one
    block of genes at a time, so no whole-column list is ever built."""
    for block in _blocks(rows):
        yield from zip([gene_ids[j] for j in block.tolist()],
                       *(column[block].tolist() for column in columns))


def _write_ranked_csv(s: ScoreTable, order: np.ndarray, path: str) -> None:
    """The rows ``order`` of ``s``, ranked 1, 2, ... in that order."""
    # Column counts come from the score table's shape, which the model (k)
    # and the profile (m) fix, so the header does not depend on the rows.
    n_u, n_k = s.u_values.shape[1], s.gamma.shape[1]
    header = (
        ["rank", "gene_id", "U"]
        + [f"U_{i + 1}" for i in range(n_u)]
        + [f"gamma_{i + 1}" for i in range(n_k)]
        + [f"se_{i + 1}" for i in range(n_k)]
        + ["s2", "posterior_s2"]
    )
    ranked = _block_rows(s.gene_ids, order, s.u, s.u_values, s.gamma, s.se, s.s2,
                         s.posterior_s2)
    write_csv(path, header, (
        [str(rank), gene_id, _fmt(u), *map(_fmt, u_values), *map(_fmt, gamma),
         *map(_fmt, se), _fmt(s2), _fmt(posterior_s2)]
        for rank, (gene_id, u, u_values, gamma, se, s2, posterior_s2) in enumerate(ranked, 1)
    ))


def _write_excluded_csv(table: RankedTable, path: str) -> None:
    s = table.scores
    n_u = s.u_values.shape[1]
    header = ["gene_id", "reason"] + [f"U_{i + 1}" for i in range(n_u)]
    # One line template per reason code, filled with the quoted gene id and
    # the U values: "%.6g" is _fmt's format, and a gene without a usable
    # fit has no U values ("%.0s" takes its NaN and writes nothing). A
    # fitted gene with a NaN U, which _fmt writes as NA, takes the fallback
    # template: its whole line, made by _line and _fmt, in place of its id.
    templates = [
        f"%s,{reason}" + ("," + ("%.0s" if code >= _INSUFFICIENT else "%.6g")) * n_u + "\n"
        for code, reason in enumerate(REASONS)
    ]
    fallback = "%s" + "%.0s" * n_u

    def blocks():
        # One % per block: the rows' templates joined in row order, filled
        # from one flat tuple of (id, *U values) per row.
        for block in _blocks(table.dropped):
            codes, u_values = s.reason[block], s.u_values[block]
            ids = [s.gene_ids[j] for j in block.tolist()]
            fields = np.empty((len(block), 1 + n_u), dtype=object)
            fields[:, 0] = [_quoted(gene_id) for gene_id in ids]
            fields[:, 1:] = u_values
            row_templates = [templates[code] for code in codes.tolist()]
            by_fmt = np.isnan(u_values).any(axis=1) & (codes < _INSUFFICIENT)
            for i in np.flatnonzero(by_fmt).tolist():
                fields[i, 0] = _line([ids[i], REASONS[codes[i]], *map(_fmt, u_values[i].tolist())])
                row_templates[i] = fallback
            yield "".join(row_templates) % tuple(fields.ravel().tolist())

    write_lines(path, header, blocks())


def _write_moderation_json(
    fitted: FittedExperiment, profile: ProfileSpec, n_included: int,
    alpha: float, path: str,
) -> None:
    """The prior and the run settings; ``n_included`` genes are included
    under ``profile``, and every other gene is excluded."""
    mod = fitted.moderation
    payload = {
        "d0": mod.d0 if math.isfinite(mod.d0) else "inf",
        "s0_2": mod.s0_2,
        "n_estimation_genes": mod.n_estimation_genes,
        "profile": profile.name,
        "margins": {
            profile.coefficient_names[j]: profile.constraints[j].token()
            for j in profile.test_bearing
        },
        "alpha": alpha,
        "n_included": n_included,
        "n_excluded": len(fitted.fits) - n_included,
    }
    # Strict JSON: a non-finite number raises instead of being written.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_sensitivity_csv(sweep: SweepResult, path: str) -> None:
    header = ["gene_id"] + [f"rank_eps_{_eps_label(e)}" for e in sweep.epsilons]
    write_csv(path, header, (
        [gene_id, *("" if r is None else str(r) for r in ranks)]
        for gene_id, ranks in sweep.stability
    ))
