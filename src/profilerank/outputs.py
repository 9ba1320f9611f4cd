"""The result files of ``rank`` and ``sensitivity``: ``ranked.csv``,
``excluded.csv``, ``sensitivity.csv`` and ``moderation.json``."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import _quoted, write_csv, write_lines, writing
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


def _score_lines(s: ScoreTable, rows: np.ndarray, columns, lead, after_lead):
    """The CSV lines of the rows ``rows`` of ``s``, in that order. A block
    of rows from position ``first`` of ``rows`` on takes its line heads from
    ``lead(first, block)``; a head is followed by ``after_lead[code]`` for
    the row's reason code and then by the row's values in ``columns``, as
    ``_fmt`` writes them. A gene without a usable fit has empty value cells."""
    n = np.column_stack([column[:0] for column in columns]).shape[1]
    # One % per block, filled from one flat tuple of (lead, *values) per
    # row: "%.6g" is _fmt's format, and "%.0s" takes an unfit gene's NaN
    # and writes nothing. A fitted row with a NaN, which _fmt writes as NA,
    # takes the fallback template: its whole line, made with _fmt.
    templates = [f"%s{after}" + ("," + ("%.0s" if code >= _INSUFFICIENT else "%.6g")) * n
                 + "\n" for code, after in enumerate(after_lead)]
    fallback = "%s" + "%.0s" * n + "\n"
    first = 0
    for block in _blocks(rows):
        codes = s.reason[block]
        values = np.column_stack([column[block] for column in columns])
        fields = np.empty((len(block), 1 + n), dtype=object)
        fields[:, 0] = lead(first, block)
        fields[:, 1:] = values
        row_templates = [templates[code] for code in codes.tolist()]
        for i in np.flatnonzero(np.isnan(values).any(axis=1) & (codes < _INSUFFICIENT)).tolist():
            fields[i, 0] = ",".join([fields[i, 0] + after_lead[codes[i]],
                                     *map(_fmt, values[i].tolist())])
            row_templates[i] = fallback
        yield "".join(row_templates) % tuple(fields.ravel().tolist())
        first += len(block)


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
    write_lines(path, header, _score_lines(
        s, order, (s.u, s.u_values, s.gamma, s.se, s.s2, s.posterior_s2),
        lambda first, block: [f"{rank},{_quoted(s.gene_ids[j])}"
                              for rank, j in enumerate(block.tolist(), first + 1)],
        [""] * len(REASONS)))


def _write_excluded_csv(table: RankedTable, path: str) -> None:
    s = table.scores
    header = ["gene_id", "reason"] + [f"U_{i + 1}" for i in range(s.u_values.shape[1])]
    write_lines(path, header, _score_lines(
        s, table.dropped, (s.u_values,),
        lambda first, block: [_quoted(s.gene_ids[j]) for j in block.tolist()],
        [f",{reason}" for reason in REASONS]))


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
    with writing(path) as fh:
        fh.write(text + "\n")


def _write_sensitivity_csv(sweep: SweepResult, path: str) -> None:
    header = ["gene_id"] + [f"rank_eps_{_eps_label(e)}" for e in sweep.epsilons]
    write_csv(path, header, (
        [gene_id, *("" if r is None else str(r) for r in ranks)]
        for gene_id, ranks in sweep.stability
    ))
