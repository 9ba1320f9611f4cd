"""Guard the names the traced benchmark run relies on.

``perfbench/traced.py`` replaces module globals of the pipeline with timing
wrappers and counts a few results. A renamed function or result attribute
would make every traced invocation fail, so both are checked here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import profilerank as pr

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve(traced):
    for module, attr, _, _ in traced.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_counts_run_on_real_results(traced, stemcell_design, analysis_profile):
    expr = pr.generate_dataset(
        stemcell_design, analysis_profile, n_genes=300, n_planted=5, seed=4
    ).expression
    values = expr.values.copy()
    values[0, 2:] = np.nan  # one gene the fit must exclude
    expr = pr.ExpressionMatrix(
        gene_ids=expr.gene_ids, array_ids=expr.array_ids, values=values
    )
    fitted = pr.fit_experiment(expr, stemcell_design, analysis_profile)
    results = {
        "fit_all": fitted.fits,
        "rank_from_fits": pr.rank_from_fits(fitted, analysis_profile),
        "sweep_from_fits": pr.sweep_from_fits(fitted, analysis_profile, [0.5, 1.0]),
    }
    counted = {}
    for _, attr, _, counts in traced.WRAPPED:
        if counts is not None:
            assert attr in results, f"no real result to count for {attr}"
            counted[attr] = counts(results[attr])
    assert counted["fit_all"] == {"genes": 300, "fit_ok": 299}
    assert counted["rank_from_fits"]["included"] == len(results["rank_from_fits"].rows)
    assert len(counted["sweep_from_fits"]["included"]) == 2
