"""The columnar kernels against independent per-gene formulas.

``fit_all``, ``gene_statistics``, ``rank_from_fits`` and ``sweep_from_fits``
work on whole arrays. ``oracles`` computes the same statistics one gene at
a time: the fit from the normal equations of acceptance criterion 1, and
the variance shrinkage, U statistics, ranking and alpha-level test with
scalar code.
"""

import math
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import profilerank as pr
from profilerank import cli, ranking
from profilerank.errors import DataError
from profilerank.ranking import FittedExperiment, ScoreTable, SweepResult, UStatistics

import oracles
from test_design import make_design

CONDS = ("c0", "c1", "c2", "c3")
# Two arrays per coefficient: losing both arrays of one comparison leaves
# four observed arrays (enough for df >= 1) but a rank-deficient model.
PAIRS = [("c0", "c1"), ("c0", "c2"), ("c0", "c3")] * 2


@pytest.fixture(scope="module")
def small():
    profile = pr.validate_profile(
        pr.ProfileSpec.from_columns(
            "small",
            CONDS,
            [
                ("p1", ["0", "1", "0", "0"]),
                ("p2", ["0", "0", "1", "0"]),
                ("ez", ["0", "0", "0", "1"]),
            ],
            [
                pr.Constraint.positive_above(0.0),
                pr.Constraint.positive_above(0.25),
                pr.Constraint.equivalent_zero(1.0),
            ],
        )
    )
    design = make_design(CONDS, PAIRS)
    model = pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)
    return design, profile, model


def _close(a, b, scale):
    # Relative agreement, with an absolute floor at the data's own scale.
    return abs(a - b) <= 1e-12 * max(abs(b), scale)


def _oracle_u_statistics(fitted, profile, i):
    # U statistics of a fitted gene; an unfit gene's row is all NaN.
    fit = fitted.fits[i]
    if fit.ok:
        return oracles.u_statistics(fit, fitted.moderation, profile, fitted.model, i)
    k, m = fitted.model.n_coefficients, len(profile.test_bearing)
    return UStatistics(
        gene_id=fit.gene_id, gamma_hat=np.full(k, math.nan), se=np.full(k, math.nan),
        u_values=np.full(m, math.nan), u=math.nan, included=False,
        exclusion_reason="insufficient data", s2=math.nan, posterior_s2=math.nan,
    )


finite = st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False)


@st.composite
def expression(draw):
    # About a third of the spots missing, so rows range from complete
    # through rank-deficient to fewer observed arrays than coefficients + 1;
    # the last two rows are always one of each of the latter.
    n = draw(st.integers(2, 24))
    values = draw(arrays(float, (n + 2, len(PAIRS)), elements=finite))
    missing = draw(arrays(bool, (n + 2, len(PAIRS)), elements=st.sampled_from([False, False, True])))
    missing[n] = [False, True, True, True, True, False]
    missing[n + 1] = [True, False, False, True, False, False]
    return np.where(missing, np.nan, values)


@given(values=expression(), zero_se=st.lists(st.booleans(), min_size=26, max_size=26))
@settings(max_examples=120, deadline=None)
def test_columnar_path_matches_per_gene_oracles(small, values, zero_se):
    design, profile, model = small
    ids = tuple(f"g{i:02d}" for i in range(len(values)))
    expr = pr.ExpressionMatrix(gene_ids=ids, array_ids=design.array_ids, values=values)

    table = pr.fit_all(expr, model)
    assert len(table) == len(values) and table.gene_ids == ids
    for i, (got, y) in enumerate(zip(table, values)):
        n_used, df, gamma, s2, unscaled_se = oracles.fit_gene(y, model)
        assert (got.n_used, got.ok, got.df or 0) == (n_used, df > 0, df)
        if df:
            scale = max(1.0, float(np.nanmax(np.abs(y))))
            assert all(_close(a, b, scale) for a, b in zip(got.gamma_hat, gamma))
            assert _close(got.s2, s2, scale * scale)
            assert all(_close(a, b, 1.0) for a, b in zip(got.unscaled_se, unscaled_se))
        else:
            assert got.reason == "insufficient data"

    try:
        mod = pr.moderate_variances(table)
    except DataError:
        return
    for i, fit in enumerate(table):
        if fit.ok:
            assert mod.posterior_s2[i] == oracles.posterior_variance(
                mod.d0, mod.s0_2, fit.df, fit.s2
            )
        else:
            assert math.isnan(mod.posterior_s2[i])

    # Zero posterior variances exercise the zero-standard-error rule.
    zero = np.array(zero_se[: len(table)]) & table.ok
    mod = replace(mod, posterior_s2=np.where(zero, 0.0, mod.posterior_s2))
    fitted = FittedExperiment(model=model, fits=table, moderation=mod)
    sweep = pr.sweep_from_fits(fitted, profile, [0.25, 1.0, 3.0])
    for margins, swept in [(profile, None)] + [
        (profile.with_margins(epsilon=e), t) for e, t in zip(sweep.epsilons, sweep.tables)
    ]:
        scores = pr.gene_statistics(fitted, margins)
        per_gene = [_oracle_u_statistics(fitted, margins, i) for i in range(len(table))]
        assert len(scores) == len(per_gene)
        for got, want in zip(scores, per_gene):
            assert got.gene_id == want.gene_id
            assert np.array_equal(got.u_values, want.u_values, equal_nan=True)
            assert got.u == want.u or (math.isnan(got.u) and math.isnan(want.u))
            assert (got.included, got.exclusion_reason) == (want.included, want.exclusion_reason)
        want_table = oracles.rank_genes(per_gene)
        want_excluded = [(e.gene_id, e.reason) for e in want_table.excluded]
        for got_table in (pr.rank_from_fits(fitted, margins), swept):
            if got_table is None:
                continue
            assert got_table.included_ids == want_table.included_ids
            assert [r.rank for r in got_table.rows] == list(range(1, len(want_table.rows) + 1))
            assert [(e.gene_id, e.reason) for e in got_table.excluded] == want_excluded


def test_duplicate_genes_tie_and_order_by_id(small):
    design, profile, model = small
    rng = np.random.default_rng(5)
    row = np.array([1.0, 2.0, 0.1, 1.1, 2.1, -0.1]) + rng.normal(0, 0.05, 6)
    noise = rng.normal(0, 1, (6, 6))
    values = np.vstack([noise, row, row, row])
    ids = ("n0", "n1", "n2", "n3", "n4", "n5", "zz", "aa", "mm")
    expr = pr.ExpressionMatrix(gene_ids=ids, array_ids=design.array_ids, values=values)
    fitted = pr.fit_experiment(expr, design, profile)
    table = pr.rank_from_fits(fitted, profile)
    tied = [r.gene_id for r in table.rows if r.gene_id in ("zz", "aa", "mm")]
    assert tied == ["aa", "mm", "zz"]
    assert oracles.rank_genes(pr.gene_statistics(fitted, profile)).included_ids == table.included_ids


def test_fit_table_behaves_like_a_list_of_fits(small):
    design, profile, model = small
    values = np.random.default_rng(6).normal(0, 1, (4, 6))
    values[1, :3] = np.nan
    expr = pr.ExpressionMatrix(
        gene_ids=("a", "b", "c", "d"), array_ids=design.array_ids, values=values
    )
    table = pr.fit_all(expr, model)
    fits = list(table)
    assert table == fits and len(table) == 4
    assert table[-1] == fits[3] and table[1:3] == tuple(fits[1:3])
    assert not table[1].ok and table[1].reason == "insufficient data"
    assert table.ok.tolist() == (table.df > 0).tolist() == [True, False, True, True]
    assert table.ok is table.ok  # computed once, not per row
    with pytest.raises(IndexError):
        table[4]
    with pytest.raises(ValueError):
        table.gamma[0, 0] = 1.0
    with pytest.raises(ValueError):
        table.ok[1] = True
    mod_table, mod_list = pr.moderate_variances(table), pr.moderate_variances(fits)
    assert (mod_table.d0, mod_table.s0_2) == (mod_list.d0, mod_list.s0_2)
    assert np.array_equal(mod_table.posterior_s2, mod_list.posterior_s2, equal_nan=True)


def test_score_table_has_one_row_per_fit_with_an_early_unfit_gene(small):
    design, profile, model = small
    values = np.random.default_rng(7).normal(0, 1, (6, 6))
    values[1, :3] = np.nan  # three observed arrays for three coefficients
    ids = ("a", "b", "c", "d", "e", "f")
    expr = pr.ExpressionMatrix(gene_ids=ids, array_ids=design.array_ids, values=values)
    fitted = pr.fit_experiment(expr, design, profile)
    posterior_df = fitted.moderation.posterior_df
    scores = pr.gene_statistics(fitted, profile)
    # Score row i is fit row i, so the moderated df of row i belongs to it.
    decisions = [pr.iut_decision(s, posterior_df[i], 0.05) for i, s in enumerate(scores)]
    assert decisions[1] is False
    assert len(scores) == len(fitted.fits)
    assert scores.gene_ids is fitted.fits.gene_ids
    assert scores.gamma is fitted.fits.gamma and scores.s2 is fitted.fits.s2
    assert scores.posterior_s2 is fitted.moderation.posterior_s2
    assert scores[1].exclusion_reason == "insufficient data"
    assert math.isnan(scores[1].u) and np.isnan(scores.se[1]).all()
    table = pr.rank_from_fits(fitted, profile, stats=scores)
    unfit = [e for e in table.excluded if e.gene_id == "b"]
    assert [(e.reason, e.u_values) for e in unfit] == [("insufficient data", None)]
    assert len(table.rows) + len(table.excluded) == len(ids)


def test_margins_share_one_standard_error_array(small):
    design, profile, model = small
    values = np.random.default_rng(8).normal(0, 1, (6, 6))
    values[2, :3] = np.nan  # an unfit gene: its se row is NaN
    expr = pr.ExpressionMatrix(gene_ids=tuple("abcdef"), array_ids=design.array_ids, values=values)
    fitted = pr.fit_experiment(expr, design, profile)
    want = fitted.fits.unscaled_se * np.sqrt(fitted.moderation.posterior_s2)[:, None]
    assert np.array_equal(fitted.se, want, equal_nan=True)
    table = pr.rank_from_fits(fitted, profile)
    sweep = pr.sweep_from_fits(fitted, profile, [0.25, 1.0, 3.0])
    assert table.scores.se is fitted.se
    assert all(t.scores.se is table.scores.se for t in sweep.tables)
    with pytest.raises(ValueError):
        fitted.se[0, 0] = 1.0


# ---------------------------------------------------------------------------
# whole CLI runs against the per-gene path: one-row fits, oracle scores and ranks
# ---------------------------------------------------------------------------


def _oracle_fit_experiment(expr, design, profile):
    model = pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)
    fits = [pr.fit_gene(y, model, gene_id=g) for g, y in zip(expr.gene_ids, expr.values)]
    return FittedExperiment(model=model, fits=fits, moderation=pr.moderate_variances(fits))


def _oracle_statistics(fitted, profile):
    return ScoreTable.from_stats(
        _oracle_u_statistics(fitted, profile, i) for i in range(len(fitted.fits))
    )


def _oracle_rank(fitted, profile, stats=None):
    stats = _oracle_statistics(fitted, profile) if stats is None else stats
    return oracles.rank_genes(list(stats), metadata=ranking._metadata(profile))


def _oracle_sweep(fitted, profile, epsilons):
    eps = tuple(float(e) for e in epsilons)
    tables = tuple(_oracle_rank(fitted, profile.with_margins(epsilon=e)) for e in eps)
    ranks_by_gene = {}
    for t, table in enumerate(tables):
        for row in table.rows:
            ranks_by_gene.setdefault(row.gene_id, [None] * len(eps))[t] = row.rank
    ordered = sorted(
        ranks_by_gene.items(),
        key=lambda item: (min(r for r in item[1] if r is not None), item[0]),
    )
    return SweepResult(
        epsilons=eps, tables=tables, stability=tuple((g, tuple(r)) for g, r in ordered)
    )


@pytest.fixture(scope="module")
def missing_data(tmp_path_factory):
    """About 2000 synthetic genes with 5% of spots missing, plus a few genes
    the fit must exclude."""
    root = tmp_path_factory.mktemp("columnar")
    for src, dst in [
        ("conditions_stemcell.csv", "conditions.csv"),
        ("design_stemcell.csv", "design.csv"),
        ("pluripotent.profile", "pluripotent.profile"),
    ]:
        shutil.copy(pr.bundled_data_path(src), root / dst)
    conditions = pr.read_conditions_csv(root / "conditions.csv")
    design = pr.read_design_csv(root / "design.csv", conditions)
    profile = pr.validate_profile(pr.profile_from_file(root / "pluripotent.profile"))
    result = pr.generate_dataset(
        design, profile.with_margins(deltas={"day6_vs_day9": 1.5}),
        n_genes=2000, n_planted=20, seed=3,
    )
    values = result.expression.values.copy()
    rng = np.random.default_rng([3, 1])
    values.flat[rng.choice(values.size, size=values.size // 20, replace=False)] = np.nan
    values[100, 3:] = np.nan  # three observed arrays for three coefficients
    day0_day3 = [i for i, a in enumerate(design.arrays) if {a.cy3, a.cy5} == {"day0", "day3"}]
    values[700] = np.nan
    values[700, day0_day3] = 0.25  # observed, but cannot identify the model
    expr = pr.ExpressionMatrix(
        gene_ids=result.expression.gene_ids, array_ids=design.array_ids, values=values
    )
    from profilerank.synth import write_expression_csv

    write_expression_csv(expr, root / "expression.csv")
    return root


def test_rank_grid_outputs_match_per_gene_path(missing_data, tmp_path, monkeypatch):
    outputs = ("ranked.csv", "excluded.csv", "moderation.json", "profiles.svg",
               "sensitivity.csv")

    def run(out):
        rc = cli.main([
            "rank",
            "--data", str(missing_data / "expression.csv"),
            "--design", str(missing_data / "design.csv"),
            "--conditions", str(missing_data / "conditions.csv"),
            "--profile", str(missing_data / "pluripotent.profile"),
            "--delta", "day6_vs_day9=1.5",
            "--grid", "0.5,1,1.5,2",
            "--out", str(out),
        ])
        assert rc == 0
        return {name: (out / name).read_bytes() for name in outputs}

    columnar = run(tmp_path / "columnar")
    monkeypatch.setattr(cli, "fit_experiment", _oracle_fit_experiment)
    monkeypatch.setattr(cli, "gene_statistics", _oracle_statistics)
    monkeypatch.setattr(cli, "rank_from_fits", _oracle_rank)
    monkeypatch.setattr(cli, "sweep_from_fits", _oracle_sweep)
    per_gene = run(tmp_path / "per_gene")
    excluded = columnar["excluded.csv"].decode().splitlines()
    assert sum(line.endswith("insufficient data,,,") for line in excluded) == 2
    for name in outputs:
        assert columnar[name] == per_gene[name], name


def test_alpha_pass_count_matches_iut_decision(missing_data):
    conditions = pr.read_conditions_csv(missing_data / "conditions.csv")
    design = pr.read_design_csv(missing_data / "design.csv", conditions)
    profile = pr.validate_profile(
        pr.profile_from_file(missing_data / "pluripotent.profile")
    ).with_margins(epsilon=2.0)
    expr = pr.read_expression_csv(missing_data / "expression.csv", design.array_ids)
    fitted = pr.fit_experiment(expr, design, profile)
    scores = pr.gene_statistics(fitted, profile)
    posterior_df = fitted.moderation.posterior_df
    assert len(set(posterior_df[scores.included])) > 1
    for alpha in (0.2, 0.05, 0.001):
        included = [(s, float(posterior_df[i])) for i, s in enumerate(scores) if s.included]
        want = sum(oracles.iut_decision(s.u_values, df, alpha) for s, df in included)
        assert cli._alpha_pass_count(fitted, scores, alpha) == want
        assert sum(pr.iut_decision(s, df, alpha) for s, df in included) == want
