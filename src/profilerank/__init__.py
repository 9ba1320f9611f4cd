"""Rank time-course genes by agreement with a pre-specified expression
profile.

The pipeline: encode the two-colour comparisons as a design matrix, compose
it with a profile basis, fit each gene by least squares, moderate the
residual variances across genes, score every test-bearing coefficient by
its standardized distance to the criterion boundary, and rank genes by the
minimum of those distances. Fixed-level accept/reject decisions combine
per-criterion confidence-interval inclusion tests.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them. Each module is imported
# on first access to one of its names (__getattr__), so importing the
# package imports none of them.
_EXPORTS = {
    "design": (
        "ArrayComparison",
        "ComparisonDesign",
        "ComparisonMatrix",
        "ModelMatrix",
        "build_comparison_matrix",
        "compose_model_matrix",
        "read_conditions_csv",
        "read_design_csv",
    ),
    "errors": ("DataError", "ProfileRankError", "ValidationError"),
    "fitting": (
        "ExpressionMatrix",
        "FitTable",
        "GeneFit",
        "ModerationResult",
        "fit_all",
        "fit_gene",
        "moderate_variances",
        "posterior_variance",
        "read_expression_csv",
    ),
    "profiles": (
        "BUNDLED_PROFILES",
        "Constraint",
        "ProfileSpec",
        "bundled_data_path",
        "bundled_profile",
        "format_profile",
        "parse_profile",
        "profile_from_file",
        "profile_to_file",
        "validate_profile",
    ),
    "ranking": (
        "CIIDecision",
        "ExcludedGene",
        "FittedExperiment",
        "RankedGene",
        "RankedTable",
        "ScoreTable",
        "SweepResult",
        "UStatistics",
        "analyze",
        "cii_decision",
        "fit_experiment",
        "gene_statistics",
        "iut_decision",
        "rank_from_fits",
        "rank_genes",
        "sensitivity_sweep",
        "sweep_from_fits",
        "u_statistics",
    ),
    "svgplot": ("fitted_relative_profile", "render_profiles_svg"),
    "synth": ("SynthResult", "TruthRow", "generate_dataset"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

# The modules that are attributes of the package, imported on first access
# like the names: those above and csvout and special, which they import.
_MODULES = (*_EXPORTS, "csvout", "special")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
