"""Rank time-course genes by agreement with a pre-specified expression
profile.

The pipeline: encode the two-colour comparisons as a design matrix, compose
it with a profile basis, fit each gene by least squares, moderate the
residual variances across genes, score every test-bearing coefficient by
its standardized distance to the criterion boundary, and rank genes by the
minimum of those distances. Fixed-level accept/reject decisions combine
per-criterion confidence-interval inclusion tests.
"""

from .design import (
    ArrayComparison,
    ComparisonDesign,
    ComparisonMatrix,
    ModelMatrix,
    build_comparison_matrix,
    compose_model_matrix,
    read_conditions_csv,
    read_design_csv,
)
from .errors import DataError, ProfileRankError, ValidationError
from .fitting import (
    ExpressionMatrix,
    FitTable,
    GeneFit,
    ModerationResult,
    fit_all,
    fit_gene,
    moderate_variances,
    posterior_variance,
    read_expression_csv,
)
from .profiles import (
    BUNDLED_PROFILES,
    Constraint,
    ProfileSpec,
    bundled_data_path,
    bundled_profile,
    format_profile,
    parse_profile,
    profile_from_file,
    profile_to_file,
    validate_profile,
)
from .ranking import (
    CIIDecision,
    ExcludedGene,
    FittedExperiment,
    RankedGene,
    RankedTable,
    ScoreTable,
    SweepResult,
    UStatistics,
    analyze,
    cii_decision,
    fit_experiment,
    gene_statistics,
    iut_decision,
    rank_from_fits,
    rank_genes,
    sensitivity_sweep,
    sweep_from_fits,
    u_statistics,
)
from .svgplot import fitted_relative_profile, render_profiles_svg
from .synth import GammaRanges, SynthResult, TruthRow, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "ArrayComparison",
    "BUNDLED_PROFILES",
    "CIIDecision",
    "ComparisonDesign",
    "ComparisonMatrix",
    "Constraint",
    "DataError",
    "ExcludedGene",
    "ExpressionMatrix",
    "FitTable",
    "FittedExperiment",
    "GammaRanges",
    "GeneFit",
    "ModelMatrix",
    "ModerationResult",
    "ProfileRankError",
    "ProfileSpec",
    "RankedGene",
    "RankedTable",
    "ScoreTable",
    "SweepResult",
    "SynthResult",
    "TruthRow",
    "UStatistics",
    "ValidationError",
    "analyze",
    "build_comparison_matrix",
    "bundled_data_path",
    "bundled_profile",
    "cii_decision",
    "compose_model_matrix",
    "fit_all",
    "fit_experiment",
    "fit_gene",
    "fitted_relative_profile",
    "format_profile",
    "gene_statistics",
    "generate_dataset",
    "iut_decision",
    "moderate_variances",
    "parse_profile",
    "posterior_variance",
    "profile_from_file",
    "profile_to_file",
    "rank_from_fits",
    "rank_genes",
    "read_conditions_csv",
    "read_design_csv",
    "read_expression_csv",
    "render_profiles_svg",
    "sensitivity_sweep",
    "sweep_from_fits",
    "u_statistics",
    "validate_profile",
]
