"""Command-line pipeline: validate inputs, rank genes, sweep margins,
generate benchmarks.

Subcommands
-----------
rank         fit, moderate, score, and rank genes; writes ranked.csv,
             excluded.csv, moderation.json, profiles.svg, and (with
             --grid) sensitivity.csv
sensitivity  dedicated margin sweep; per-margin ranked tables plus the
             stability report
synth        seeded synthetic dataset with planted profile-matching genes
validate     parse and validate inputs without running anything

Exit codes: 0 success, 2 invalid configuration or design/profile input,
3 malformed expression data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .csvout import write_csv
from .design import build_comparison_matrix, compose_model_matrix, read_conditions_csv, read_design_csv
from .errors import DataError, ValidationError
from .fitting import read_expression_csv
from .profiles import ProfileSpec, profile_from_file
from .ranking import (
    REASONS,
    FittedExperiment,
    RankedTable,
    ScoreTable,
    SweepResult,
    _INSUFFICIENT,
    _passes,
    gene_statistics,
    fit_experiment,
    rank_from_fits,
    sweep_from_fits,
)
from .svgplot import fitted_relative_profile, render_profiles_svg
from .synth import GammaRanges, generate_dataset, write_expression_csv, write_truth_csv

__all__ = ["main"]

# Level of the pass/fail test: the default of --alpha, and the level that
# sensitivity, which has no --alpha, records in moderation.json.
ALPHA = 0.05


def _require_file(path: str, what: str) -> None:
    if not os.path.isfile(path):
        raise ValidationError(f"{what} file not found: {path}")


def _fmt(x: float | None) -> str:
    return "NA" if x is None or x != x else f"{x:.6g}"


def _eps_label(e: float) -> str:
    return f"{e:g}"


def _load_inputs(args):
    """Check the margin flags and that every input file exists, then parse
    them: the design, the profile under ``--epsilon`` and ``--delta``, and
    the expression data when ``--data`` is given (else None)."""
    deltas = _parse_deltas(args.delta)
    if args.epsilon is not None and not 0.0 < args.epsilon < math.inf:
        raise ValidationError(f"--epsilon must be a finite number > 0, got {args.epsilon}")
    _require_file(args.conditions, "conditions")
    _require_file(args.design, "design")
    _require_file(args.profile, "profile")
    if args.data is not None:
        _require_file(args.data, "data")
    design = read_design_csv(args.design, read_conditions_csv(args.conditions))
    profile = profile_from_file(args.profile).with_margins(epsilon=args.epsilon, deltas=deltas)
    expr = None if args.data is None else read_expression_csv(args.data, design.array_ids)
    return design, profile, expr


def _fit_run(args):
    """Load the inputs, create the output directory and fit:
    ``(grid, profile, fitted)``."""
    grid = _parse_grid(args.grid)
    design, profile, expr = _load_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    return grid, profile, fit_experiment(expr, design, profile)


def _write_ranked_csv(table: RankedTable, path: str) -> None:
    # Column counts come from the score table's shape, which the model (k)
    # and the profile (m) fix, so the header does not depend on the rows.
    s, rows = table.scores, table.order
    n_u, n_k = s.u_values.shape[1], s.gamma.shape[1]
    header = (
        ["rank", "gene_id", "U"]
        + [f"U_{i + 1}" for i in range(n_u)]
        + [f"gamma_{i + 1}" for i in range(n_k)]
        + [f"se_{i + 1}" for i in range(n_k)]
        + ["s2", "posterior_s2"]
    )
    columns = zip(
        [s.gene_ids[j] for j in rows.tolist()],
        s.u[rows].tolist(),
        s.u_values[rows].tolist(),
        s.gamma[rows].tolist(),
        s.se[rows].tolist(),
        s.s2[rows].tolist(),
        s.posterior_s2[rows].tolist(),
    )
    write_csv(path, header, (
        [str(rank), gene_id, _fmt(u), *map(_fmt, u_values), *map(_fmt, gamma),
         *map(_fmt, se), _fmt(s2), _fmt(posterior_s2)]
        for rank, (gene_id, u, u_values, gamma, se, s2, posterior_s2) in enumerate(columns, 1)
    ))


def _write_excluded_csv(table: RankedTable, path: str) -> None:
    s, rows = table.scores, table.dropped
    n_u = s.u_values.shape[1]
    header = ["gene_id", "reason"] + [f"U_{i + 1}" for i in range(n_u)]
    codes = s.reason[rows].tolist()
    excluded = zip([s.gene_ids[j] for j in rows.tolist()], codes, s.u_values[rows].tolist())
    blanks = [""] * n_u  # a gene without a usable fit has no U values
    write_csv(path, header, (
        [gene_id, REASONS[code], *(blanks if code >= _INSUFFICIENT else map(_fmt, u_values))]
        for gene_id, code, u_values in excluded
    ))


def _write_moderation_json(
    fitted: FittedExperiment, profile: ProfileSpec, table: RankedTable,
    alpha: float, path: str,
) -> None:
    """The prior and the run settings; ``table`` was ranked under ``profile``."""
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
        "n_included": len(table.order),
        "n_excluded": len(table.dropped),
    }
    # Strict JSON: a non-finite number raises instead of being written.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_profiles_svg(fitted, profile, table: RankedTable, top_n: int, path: str) -> None:
    genes = []
    for rank, row in enumerate(table.order[:top_n].tolist(), start=1):
        fit = fitted.fits[row]
        rel = fitted_relative_profile(fit, profile, fitted.model)
        genes.append((fit.gene_id, rank, rel))
    title = (
        f"{profile.name}: top {len(genes)} fitted trajectories "
        f"(log ratio vs {profile.condition_labels[0]})"
    )
    svg = render_profiles_svg(genes, profile.condition_labels, title)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


def _write_sensitivity_csv(sweep: SweepResult, path: str) -> None:
    header = ["gene_id"] + [f"rank_eps_{_eps_label(e)}" for e in sweep.epsilons]
    write_csv(path, header, (
        [gene_id, *("" if r is None else str(r) for r in ranks)]
        for gene_id, ranks in sweep.stability
    ))


def _alpha_pass_count(fitted: FittedExperiment, stats: ScoreTable, alpha: float) -> int:
    """Included genes that pass ``iut_decision`` at level ``alpha``."""
    included = stats.included
    return int(_passes(stats.u_values[included], fitted.moderation.posterior_df[included],
                       alpha).sum())


def _parse_deltas(items) -> dict:
    deltas = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValidationError(
                f"--delta expects <coefficient>=<value>, got {item!r}"
            )
        try:
            deltas[name] = float(value)
        except ValueError as exc:
            raise ValidationError(
                f"--delta {item!r}: threshold is not a number"
            ) from exc
    return deltas


def _parse_grid(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        grid = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--grid expects comma-separated numbers, got {text!r}") from exc
    return grid


def _parse_range(text: str | None, flag: str) -> tuple[float, float] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects <lo>,<hi>, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"{flag}: bounds must be numbers, got {text!r}") from exc


def _add_input_flags(p: argparse.ArgumentParser, with_data: bool = True) -> None:
    if with_data:
        p.add_argument("--data", required=True, help="expression CSV (gene_id + one column per array)")
    p.add_argument("--design", required=True, help="design CSV (array_id,cy3,cy5,replicate_group)")
    p.add_argument("--conditions", required=True, help="ordered condition list, one label per line")
    p.add_argument("--profile", required=True, help="profile file")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override every equivalence margin")
    p.add_argument("--delta", action="append", metavar="COEF=VALUE",
                   help="override a positivity threshold (repeatable)")


def _cmd_rank(args) -> int:
    """Fit, score and rank once; write the result files and a summary line.
    Everything is computed before the first write, so an error leaves no
    output file."""
    if args.top_n < 1:
        raise ValidationError(f"--top-n must be >= 1, got {args.top_n}")
    grid, profile, fitted = _fit_run(args)
    stats = gene_statistics(fitted, profile)
    table = rank_from_fits(fitted, profile, stats=stats)
    sweep = sweep_from_fits(fitted, profile, grid) if grid else None
    n_pass = _alpha_pass_count(fitted, stats, args.alpha)
    _write_ranked_csv(table, os.path.join(args.out, "ranked.csv"))
    _write_excluded_csv(table, os.path.join(args.out, "excluded.csv"))
    _write_moderation_json(
        fitted, profile, table, args.alpha, os.path.join(args.out, "moderation.json")
    )
    _write_profiles_svg(
        fitted, profile, table, args.top_n, os.path.join(args.out, "profiles.svg")
    )
    if sweep is not None:
        _write_sensitivity_csv(sweep, os.path.join(args.out, "sensitivity.csv"))
    d0 = fitted.moderation.d0
    print(
        f"profile {profile.name}: {len(table.order)} genes ranked, "
        f"{len(table.dropped)} excluded; prior d0={'inf' if math.isinf(d0) else f'{d0:.4g}'}, "
        f"s0_2={fitted.moderation.s0_2:.4g}; "
        f"{n_pass} pass the alpha={args.alpha:g} test; "
        f"outputs in {args.out}"
    )
    return 0


def _cmd_sensitivity(args) -> int:
    grid, profile, fitted = _fit_run(args)
    sweep = sweep_from_fits(fitted, profile, grid)
    _write_sensitivity_csv(sweep, os.path.join(args.out, "sensitivity.csv"))
    for eps, table in zip(sweep.epsilons, sweep.tables):
        _write_ranked_csv(table, os.path.join(args.out, f"ranked_eps_{_eps_label(eps)}.csv"))
    _write_moderation_json(
        fitted, profile.with_margins(epsilon=grid[-1]), sweep.tables[-1], ALPHA,
        os.path.join(args.out, "moderation.json"),
    )
    sizes = ", ".join(
        f"eps={_eps_label(e)}: {len(t.order)}" for e, t in zip(sweep.epsilons, sweep.tables)
    )
    print(f"profile {profile.name}: included genes per margin: {sizes}; outputs in {args.out}")
    return 0


def _cmd_synth(args) -> int:
    design, profile, _ = _load_inputs(args)
    defaults = GammaRanges()
    ranges = GammaRanges(
        pos_margin=_parse_range(args.pos_margin, "--pos-margin") or defaults.pos_margin,
        equiv_band=_parse_range(args.equiv_band, "--equiv-band") or defaults.equiv_band,
        violate_pos=_parse_range(args.violate_pos, "--violate-pos") or defaults.violate_pos,
        violate_equiv=_parse_range(args.violate_equiv, "--violate-equiv") or defaults.violate_equiv,
    )
    result = generate_dataset(
        design,
        profile,
        n_genes=args.genes,
        n_planted=args.planted,
        seed=args.seed,
        d0=args.d0,
        s0_2=args.s02,
        ranges=ranges,
    )
    os.makedirs(args.out, exist_ok=True)
    expr_path = os.path.join(args.out, "expression.csv")
    truth_path = os.path.join(args.out, "truth.csv")
    write_expression_csv(result.expression, expr_path)
    write_truth_csv(result, truth_path)
    print(
        f"wrote {args.genes} genes ({args.planted} planted) for profile "
        f"{profile.name} to {expr_path} and {truth_path}"
    )
    return 0


def _cmd_validate(args) -> int:
    design, profile, expr = _load_inputs(args)
    model = compose_model_matrix(build_comparison_matrix(design), profile)
    conditions = design.conditions
    print(f"conditions: {len(conditions)} ({','.join(conditions)})")
    print(f"design: {len(design.arrays)} arrays, all labels valid")
    dropped = [profile.coefficient_names[j] for j in model.dropped_coefficients]
    print(
        f"profile {profile.name}: {len(profile.coefficient_names)} coefficients, "
        f"{len(profile.test_bearing)} test-bearing; "
        f"model rank {model.rank}, residual df {model.residual_df}"
        + (f", dropped: {','.join(dropped)}" if dropped else "")
    )
    if expr is not None:
        n_missing = int(np.isnan(expr.values).sum())
        print(f"data: {expr.n_genes} genes, {n_missing} missing values")
    print("all inputs valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profilerank",
        description=(
            "Rank time-course genes by agreement with a pre-specified "
            "expression profile using joint one-sided and equivalence tests."
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="run the full ranking pipeline")
    _add_input_flags(p_rank)
    p_rank.add_argument("--alpha", type=float, default=ALPHA, help=f"level for the pass/fail test (default {ALPHA})")
    p_rank.add_argument("--grid", default=None, help="comma-separated equivalence margins for an extra sensitivity sweep")
    p_rank.add_argument("--top-n", type=int, default=15, help="trajectories to plot (default 15)")
    p_rank.add_argument("--out", required=True, help="output directory")
    p_rank.add_argument("--threads", type=int, default=1, help="accepted and ignored: fitting is a few numpy calls per missingness pattern")
    p_rank.set_defaults(func=_cmd_rank)

    p_sens = sub.add_parser("sensitivity", help="rank under a grid of equivalence margins")
    _add_input_flags(p_sens)
    p_sens.add_argument("--grid", required=True, help="comma-separated equivalence margins")
    p_sens.add_argument("--out", required=True, help="output directory")
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic benchmark")
    _add_input_flags(p_synth, with_data=False)
    p_synth.add_argument("--genes", type=int, default=20000, help="total genes (default 20000)")
    p_synth.add_argument("--planted", type=int, default=20, help="planted profile-matching genes (default 20)")
    p_synth.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_synth.add_argument("--d0", type=float, default=16.0, help="variance prior df (default 16)")
    p_synth.add_argument("--s02", type=float, default=0.05, help="variance prior scale (default 0.05)")
    p_synth.add_argument("--pos-margin", default=None, metavar="LO,HI", help="satisfied positivity margin range")
    p_synth.add_argument("--equiv-band", default=None, metavar="LO,HI", help="satisfied |equivalence| range")
    p_synth.add_argument("--violate-pos", default=None, metavar="LO,HI", help="violation depth below a positivity threshold")
    p_synth.add_argument("--violate-equiv", default=None, metavar="LO,HI", help="violation distance beyond an equivalence margin")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth, data=None)

    p_val = sub.add_parser("validate", help="parse and validate inputs only")
    _add_input_flags(p_val, with_data=False)
    p_val.add_argument("--data", default=None, help="optional expression CSV to check against the design")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
