"""Workload definitions and seeded input generation for the benchmark.

Inputs come from the bundled stem-cell design and the ``pluripotent``
profile with ``--delta day6_vs_day9=1.5``, generated in-process with
``generate_dataset`` and ``write_expression_csv``. The program under test
only ever sees the written files.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from profilerank.design import read_conditions_csv, read_design_csv
from profilerank.fitting import ExpressionMatrix
from profilerank.profiles import bundled_data_path, profile_from_file, validate_profile
from profilerank.synth import generate_dataset, write_expression_csv, write_truth_csv

GENES = 20000
PLANTED = 20
MISSING_FRACTION = 0.05
# Second entry of the seed sequence that picks the NA spots, so the mask
# stream is independent of the one generate_dataset draws from.
MISSING_STREAM = 1
GRID = (0.5, 1.0, 1.5, 2.0)
GRID_ARG = ",".join(f"{eps:g}" for eps in GRID)
DELTA_ARG = "day6_vs_day9=1.5"
DEFAULT_SEED = 42

DESIGN = bundled_data_path("design_stemcell.csv")
CONDITIONS = bundled_data_path("conditions_stemcell.csv")
PROFILE = bundled_data_path("pluripotent.profile")

# name -> (CLI subcommand, fraction of spots set to NA, extra CLI flags)
WORKLOADS = {
    "rank_sweep_complete": ("rank", 0.0, ["--grid", GRID_ARG, "--top-n", "15"]),
    "rank_missing": ("rank", MISSING_FRACTION, []),
    "synth_write": ("synth", 0.0, ["--genes", str(GENES), "--planted", str(PLANTED)]),
}

MODEL_ARGS = [
    "--design", str(DESIGN),
    "--conditions", str(CONDITIONS),
    "--profile", str(PROFILE),
    "--delta", DELTA_ARG,
]


@dataclass(frozen=True)
class Inputs:
    """Files generated for one workload at one seed, plus their counts."""

    seed: int
    expression: Path
    truth: Path
    counts: dict
    sha256: str


def _design_and_profile():
    conditions = read_conditions_csv(CONDITIONS)
    design = read_design_csv(DESIGN, conditions)
    profile = validate_profile(profile_from_file(PROFILE))
    name, _, value = DELTA_ARG.partition("=")
    return design, profile.with_margins(deltas={name: float(value)})


def generate_inputs(seed: int, missing: float, directory: Path) -> Inputs:
    """Write ``expression.csv`` and ``truth.csv`` for ``seed`` into
    ``directory``; ``missing`` is the share of spots replaced by NA, chosen
    uniformly without replacement."""
    design, profile = _design_and_profile()
    result = generate_dataset(design, profile, n_genes=GENES, n_planted=PLANTED, seed=seed)
    expr = result.expression
    if missing:
        values = expr.values.copy()
        rng = np.random.default_rng([seed, MISSING_STREAM])
        spots = rng.choice(values.size, size=round(values.size * missing), replace=False)
        values.flat[spots] = np.nan
        expr = ExpressionMatrix(gene_ids=expr.gene_ids, array_ids=expr.array_ids, values=values)
    directory.mkdir(parents=True, exist_ok=True)
    expression, truth = directory / "expression.csv", directory / "truth.csv"
    write_expression_csv(expr, expression)
    write_truth_csv(result, truth)
    return Inputs(
        seed=seed,
        expression=expression,
        truth=truth,
        counts=count_inputs(expression),
        sha256=hashlib.sha256(expression.read_bytes()).hexdigest(),
    )


def count_inputs(path: Path) -> dict:
    """Counts read back from a written expression CSV: the base for any
    per-gene or per-pattern ratio."""
    patterns = set()
    genes = partial = missing = arrays = 0
    with open(path, encoding="utf-8") as fh:
        arrays = len(fh.readline().rstrip("\n").split(",")) - 1
        for line in fh:
            cells = line.rstrip("\n").split(",")[1:]
            mask = tuple(c in ("", "NA") for c in cells)
            genes += 1
            patterns.add(mask)
            n = sum(mask)
            if n:
                partial += 1
                missing += n
    return {
        "genes": genes,
        "arrays": arrays,
        "missing_spot_frac": missing / (genes * arrays),
        "partial_genes": partial,
        "missing_patterns": len(patterns),
        "input_bytes": os.path.getsize(path),
    }


def cli_args(workload: str, inputs: Inputs, out: Path) -> list[str]:
    """Arguments after ``python -m profilerank`` for one invocation."""
    command, _, extra = WORKLOADS[workload]
    if command == "synth":
        return ["synth", *MODEL_ARGS, *extra, "--seed", str(inputs.seed), "--out", str(out)]
    return ["rank", "--data", str(inputs.expression), *MODEL_ARGS, *extra, "--out", str(out)]


def setup_args() -> list[str]:
    """``validate`` on the workload's design, conditions and profile: the
    program's fixed start-up cost with no data."""
    return ["validate", *MODEL_ARGS]
