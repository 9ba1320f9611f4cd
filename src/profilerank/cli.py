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
import gc
import importlib
import math
import os
import sys

import numpy as np

from .design import build_comparison_matrix, compose_model_matrix, read_conditions_csv, read_design_csv
from .errors import DataError, ValidationError, located, writing
from .profiles import profile_from_file

__all__ = ["main", "run"]

# Level of the pass/fail test: the default of --alpha, and the level that
# sensitivity, which has no --alpha, records in moderation.json.
ALPHA = 0.05

# Names the commands call from the pipeline modules, which this module
# imports only when a command first calls one of them. The commands call
# each name as an attribute of this module (_cli), so __getattr__ imports
# its module on first use, and a wrapper set on the module from outside is
# what they call.
_DEFERRED = {
    "expression": ("read_expression_csv",),
    "ranking": ("_alpha_pass_count", "_check_alpha", "_check_sweep", "fit_experiment",
                "gene_statistics", "rank_from_fits", "sweep_from_fits"),
    "svgplot": ("fitted_relative_profile", "render_profiles_svg"),
    "synth": ("generate_dataset", "write_expression_csv", "write_truth_csv"),
    "outputs": ("_eps_label", "_write_excluded_csv", "_write_moderation_json",
                "_write_ranked_csv", "_write_sensitivity_csv"),
}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __package__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_file(path: str, what: str) -> None:
    """Refuse a missing ``path`` and a directory. The conditions, design and
    profile files are each read once, from the start, so they may be pipes;
    the data file must be a regular file, because the expression reader
    reads it again when its fast path declines it."""
    if not os.path.exists(path):
        raise ValidationError(f"{what} file not found: {path}")
    if os.path.isdir(path) or (what == "data" and not os.path.isfile(path)):
        raise ValidationError(f"{what} file is not a regular file: {path}")


def _load_inputs(args):
    """Check the margin flags and that every input file exists, then parse
    the design and the profile under ``--epsilon`` and then each ``--delta``,
    whose errors name the item; the expression data, which takes longest,
    is left to the caller."""
    deltas = _parse_deltas(args.delta)
    if args.epsilon is not None and not 0.0 < args.epsilon < math.inf:
        raise ValidationError(f"--epsilon must be a finite number > 0, got {args.epsilon}")
    _require_file(args.conditions, "conditions")
    _require_file(args.design, "design")
    _require_file(args.profile, "profile")
    if args.data is not None:
        _require_file(args.data, "data")
    design = read_design_csv(args.design, read_conditions_csv(args.conditions))
    profile = profile_from_file(args.profile).with_margins(epsilon=args.epsilon)
    for name, (item, threshold) in deltas.items():
        with located(f"--delta {item!r}"):
            profile = profile.with_margins(deltas={name: threshold})
    return design, profile


def _fit_run(args, grid: tuple[float, ...] | None):
    """Load the inputs and check the sweep margins ``grid`` (None when there
    is no sweep) and ``--out`` before reading the data, then fit:
    ``(profile, fitted)``."""
    design, profile = _load_inputs(args)
    if grid is not None:
        _cli._check_sweep(profile, grid)
    _check_out_dir(args.out)
    expr = _cli.read_expression_csv(args.data, design.array_ids)
    return profile, _cli.fit_experiment(expr, design, profile)


def _check_out_dir(path: str) -> None:
    """Fail where ``_make_out_dir`` would, but without creating anything:
    ``path`` must not be empty, and the nearest existing path at or above it
    must be a directory."""
    if not path:
        raise ValidationError("--out must name the output directory, got an empty path")
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValidationError(
            f"--out {path}: cannot create the output directory: {existing} is not a directory"
        )


def _make_out_dir(path: str) -> None:
    """Create the output directory. Commands call it only once every result
    is computed, so an error leaves no directory behind."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a file where the directory or a parent should be
        raise ValidationError(
            f"--out {path}: cannot create the output directory: {exc.strerror}"
        ) from exc


def _write_profiles_svg(fitted, profile, table, top_n: int, path: str) -> None:
    genes = []
    for rank, row in enumerate(table.order[:top_n].tolist(), start=1):
        fit = fitted.fits[row]
        rel = _cli.fitted_relative_profile(fit, profile, fitted.model)
        genes.append((fit.gene_id, rank, rel))
    title = (
        f"{profile.name}: top {len(genes)} fitted trajectories "
        f"(log ratio vs {profile.condition_labels[0]})"
    )
    svg = _cli.render_profiles_svg(genes, profile.condition_labels, title)
    with writing(path) as fh:
        fh.write(svg)


def _parse_deltas(items) -> dict:
    """``{coefficient: (the --delta item that sets it, threshold)}``."""
    deltas = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValidationError(
                f"--delta expects <coefficient>=<value>, got {item!r}"
            )
        try:
            threshold = float(value)
        except ValueError as exc:
            raise ValidationError(
                f"--delta {item!r}: threshold is not a number"
            ) from exc
        if name in deltas:
            raise ValidationError(
                f"--delta {deltas[name][0]!r} and {item!r} both set {name}; "
                "give each coefficient at most once"
            )
        deltas[name] = item, threshold
    return deltas


def _parse_grid(text: str | None) -> tuple[float, ...] | None:
    """The ``--grid`` margins; None when the flag is not given, and ``()``
    when it is given empty, which ``_check_sweep`` refuses."""
    if not text:
        return None if text is None else ()
    tokens = text.split(",")
    try:
        grid = tuple(float(v) for v in tokens)
    except ValueError as exc:
        raise ValidationError(f"--grid expects comma-separated numbers, got {text!r}") from exc
    # Each margin names its own column and ranked_eps_<label>.csv file.
    labels: dict[str, str] = {}
    for token, e in zip(tokens, grid):
        label = _cli._eps_label(e)
        if label in labels:
            raise ValidationError(
                f"--grid margins {labels[label]!r} and {token!r} are both labelled eps_{label}; "
                "give margins that differ in their first 6 significant digits"
            )
        labels[label] = token
    return grid


def _add_input_flags(p: argparse.ArgumentParser, omit: tuple[str, ...] = ()) -> None:
    """Add the input flags the subcommands share, except those in ``omit``."""
    if "--data" not in omit:
        p.add_argument("--data", required=True, help="expression CSV (gene_id + one column per array)")
    p.add_argument("--design", required=True, help="design CSV (array_id,cy3,cy5,replicate_group)")
    p.add_argument("--conditions", required=True, help="ordered condition list, one label per line")
    p.add_argument("--profile", required=True, help="profile file")
    if "--epsilon" not in omit:
        p.add_argument("--epsilon", type=float, default=None,
                       help="override every equivalence margin")
    p.add_argument("--delta", action="append", metavar="COEF=VALUE",
                   help="override a positivity threshold (repeatable)")


def _cmd_rank(args) -> int:
    """Fit, score and rank once; write the result files and a summary line.
    The flags are checked before the data is read, and everything is
    computed before the output directory is made, so an error leaves no
    output behind."""
    if args.top_n < 1:
        raise ValidationError(f"--top-n must be >= 1, got {args.top_n}")
    _cli._check_alpha(args.alpha)
    grid = _parse_grid(args.grid)
    profile, fitted = _fit_run(args, grid)
    stats = _cli.gene_statistics(fitted, profile)
    table = _cli.rank_from_fits(fitted, profile, stats=stats)
    sweep = _cli.sweep_from_fits(fitted, profile, grid) if grid is not None else None
    n_pass = _cli._alpha_pass_count(fitted, stats, args.alpha)
    _make_out_dir(args.out)
    _cli._write_ranked_csv(table.scores, table.order, os.path.join(args.out, "ranked.csv"))
    _cli._write_excluded_csv(table, os.path.join(args.out, "excluded.csv"))
    _cli._write_moderation_json(
        fitted, profile, len(table.order), args.alpha, os.path.join(args.out, "moderation.json")
    )
    _write_profiles_svg(
        fitted, profile, table, args.top_n, os.path.join(args.out, "profiles.svg")
    )
    if sweep is not None:
        _cli._write_sensitivity_csv(sweep, os.path.join(args.out, "sensitivity.csv"))
    print(
        f"profile {profile.name}: {len(table.order)} genes ranked, "
        f"{len(table.dropped)} excluded; prior d0={fitted.moderation.d0:.4g}, "
        f"s0_2={fitted.moderation.s0_2:.4g}; "
        f"{n_pass} pass the alpha={args.alpha:g} test; "
        f"outputs in {args.out}"
    )
    return 0


def _cmd_sensitivity(args) -> int:
    grid = _parse_grid(args.grid)
    profile, fitted = _fit_run(args, grid)
    sweep = _cli.sweep_from_fits(fitted, profile, grid)
    # Each margin's included genes, scored in rank order.
    ranked = [_cli.gene_statistics(fitted, profile.with_margins(epsilon=e), rows=order)
              for e, order in zip(sweep.epsilons, sweep.orders)]
    _make_out_dir(args.out)
    _cli._write_sensitivity_csv(sweep, os.path.join(args.out, "sensitivity.csv"))
    for eps, scores in zip(sweep.epsilons, ranked):
        _cli._write_ranked_csv(scores, np.arange(len(scores)),
                               os.path.join(args.out, f"ranked_eps_{_cli._eps_label(eps)}.csv"))
    _cli._write_moderation_json(
        fitted, profile.with_margins(epsilon=grid[-1]), len(sweep.orders[-1]), ALPHA,
        os.path.join(args.out, "moderation.json"),
    )
    sizes = ", ".join(
        f"eps={_cli._eps_label(e)}: {len(o)}" for e, o in zip(sweep.epsilons, sweep.orders)
    )
    print(f"profile {profile.name}: included genes per margin: {sizes}; outputs in {args.out}")
    return 0


def _cmd_synth(args) -> int:
    design, profile = _load_inputs(args)
    _check_out_dir(args.out)
    result = _cli.generate_dataset(
        design, profile, n_genes=args.genes, n_planted=args.planted, seed=args.seed
    )
    _make_out_dir(args.out)
    expr_path = os.path.join(args.out, "expression.csv")
    truth_path = os.path.join(args.out, "truth.csv")
    _cli.write_expression_csv(result.expression, expr_path)
    _cli.write_truth_csv(result, truth_path)
    print(
        f"wrote {args.genes} genes ({args.planted} planted) for profile "
        f"{profile.name} to {expr_path} and {truth_path}"
    )
    return 0


def _cmd_validate(args) -> int:
    design, profile = _load_inputs(args)
    expr = None if args.data is None else _cli.read_expression_csv(args.data, design.array_ids)
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
    p_rank.add_argument("--threads", type=int, default=1, help="accepted and ignored: fitting stacks the missingness patterns into a few numpy calls")
    p_rank.set_defaults(func=_cmd_rank)

    p_sens = sub.add_parser("sensitivity", help="rank under a grid of equivalence margins")
    # Each --grid margin replaces every equivalence margin, so an --epsilon
    # here could change nothing.
    _add_input_flags(p_sens, omit=("--epsilon",))
    p_sens.add_argument("--grid", required=True, help="comma-separated equivalence margins")
    p_sens.add_argument("--out", required=True, help="output directory")
    p_sens.set_defaults(func=_cmd_sensitivity, epsilon=None)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic benchmark")
    _add_input_flags(p_synth, omit=("--data",))
    p_synth.add_argument("--genes", type=int, default=20000, help="total genes (default 20000)")
    p_synth.add_argument("--planted", type=int, default=20, help="planted profile-matching genes (default 20)")
    p_synth.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth, data=None)

    p_val = sub.add_parser("validate", help="parse and validate inputs only")
    _add_input_flags(p_val, omit=("--data",))
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


def run() -> int:
    """The process entry of ``python -m profilerank`` and the
    ``profilerank`` script: ``main()`` on ``sys.argv``, then
    ``gc.freeze()``, so the collections at interpreter exit skip every
    object the run left alive. Output files are closed by then, and
    ``atexit`` handlers and the flush of stdout still run. ``main`` itself
    leaves the collector alone, for callers that go on running."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
