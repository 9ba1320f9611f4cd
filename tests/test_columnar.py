"""The columnar kernels against independent per-gene formulas.

``fit_all``, ``gene_statistics``, ``rank_from_fits`` and ``sweep_from_fits``
work on whole arrays. ``oracles`` computes the same statistics one gene at
a time: the fit from the normal equations of acceptance criterion 1, and
the variance shrinkage, U statistics, ranking and alpha-level test with
scalar code.
"""

import json
import math
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import profilerank as pr
from profilerank import cli, fitting
from profilerank.errors import DataError
from profilerank.ranking import FittedExperiment, ScoreTable, SweepResult, UStatistics
from profilerank.synth import write_expression_csv

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
    # U statistics of a fitted gene; an unfit gene's row is all NaN, with
    # the fit's own reason.
    fit = fitted.fits[i]
    if fit.ok:
        return oracles.u_statistics(fit, fitted.moderation, profile, fitted.model, i)
    k, m = fitted.model.n_coefficients, len(profile.test_bearing)
    return UStatistics(
        gene_id=fit.gene_id, gamma_hat=np.full(k, math.nan), se=np.full(k, math.nan),
        u_values=np.full(m, math.nan), u=math.nan, included=False,
        exclusion_reason=fit.reason, s2=math.nan, posterior_s2=math.nan,
    )


def _assert_fits_match_oracle(table, expr, model):
    assert len(table) == expr.n_genes and table.gene_ids == expr.gene_ids
    for got, y in zip(table, expr.values):
        n_used, df, gamma, s2, unscaled_se = oracles.fit_gene(y, model)
        assert (got.n_used, got.ok, got.df or 0) == (n_used, df > 0, df)
        if df:
            scale = max(1.0, float(np.nanmax(np.abs(y))))
            assert all(_close(a, b, scale) for a, b in zip(got.gamma_hat, gamma))
            assert _close(got.s2, s2, scale * scale)
            assert all(_close(a, b, 1.0) for a, b in zip(got.unscaled_se, unscaled_se))
        else:
            assert got.reason == "insufficient data"


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
    _assert_fits_match_oracle(table, expr, model)

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
# the fit groups genes by missingness pattern and fits each pattern in blocks
# ---------------------------------------------------------------------------


_FIT_COLUMNS = ("gamma", "unscaled_se", "s2", "df", "n_used")


def _fit_bits(tables):
    # Each column of the fit tables, concatenated, as integers: bits, not
    # values, so -0.0 and 0.0 differ, and so do two NaN payloads.
    return [np.concatenate([getattr(t, name) for t in tables]).view(np.int64)
            for name in _FIT_COLUMNS]


def _assert_same_bits(got, want):
    for name, a, b in zip(_FIT_COLUMNS, got, want):
        assert np.array_equal(a, b), name


def _assert_fit_gene_gives_each_row(table, values, model):
    for i, y in enumerate(values):
        alone = pr.fit_gene(y, model, gene_id=table.gene_ids[i])
        assert alone == table[i]
        if alone.ok:
            assert np.array_equal(alone.gamma_hat.view(np.int64), table.gamma[i].view(np.int64))


@given(values=expression(), data=st.data(), block=st.sampled_from([1, 2, 3, 1024]))
@settings(max_examples=120, deadline=None)
def test_a_genes_fit_depends_on_that_gene_alone(small, values, data, block):
    # fit_all on the rows in any order, cut anywhere and fitted in blocks of
    # any size, gives each gene the bits of its row of the whole matrix's
    # fit; so does fit_gene.
    design, profile, model = small
    ids = tuple(f"g{i:02d}" for i in range(len(values)))
    table = pr.fit_all(pr.ExpressionMatrix(ids, design.array_ids, values), model)
    order = np.array(data.draw(st.permutations(range(len(values)))))
    cuts = sorted(data.draw(st.lists(st.integers(1, len(values) - 1), max_size=4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_BLOCK_ROWS", block)
        pieces = [pr.fit_all(pr.ExpressionMatrix(tuple(ids[i] for i in rows), design.array_ids,
                                                 values[rows]), model)
                  for rows in np.split(order, cuts) if len(rows)]
    _assert_same_bits(_fit_bits(pieces), [column[order] for column in _fit_bits([table])])
    _assert_fit_gene_gives_each_row(table, values, model)


def test_a_pattern_of_more_genes_than_a_block_matches_per_gene_oracles(small):
    design, profile, model = small
    rng = np.random.default_rng(9)
    n_complete, n_partial = fitting._BLOCK_ROWS + 1, 300
    values = rng.normal(0, 1, (n_complete + n_partial, len(PAIRS)))
    # Partial genes scattered among the complete ones, one or two spots
    # missing each, so the complete pattern's rows are not contiguous.
    partial = rng.choice(len(values), size=n_partial, replace=False)
    values[partial, rng.integers(0, len(PAIRS), n_partial)] = np.nan
    values[partial[::2], rng.integers(0, len(PAIRS), n_partial // 2)] = np.nan
    ids = tuple(f"g{i}" for i in range(len(values)))
    expr = pr.ExpressionMatrix(gene_ids=ids, array_ids=design.array_ids, values=values)
    table = pr.fit_all(expr, model)
    assert np.count_nonzero(table.n_used == len(PAIRS)) == n_complete
    _assert_fits_match_oracle(table, expr, model)


def test_blocks_of_one_shape_are_fitted_together_as_each_gene_alone(small, monkeypatch):
    # Patterns of 1, 2, 3 and more than _BLOCK_ROWS (3 here) genes at 6, 5
    # and 4 observed arrays, a rank-deficient one (both arrays of c0-c1
    # missing), one with n - k = 0 and an all-missing gene, in shuffled
    # order: calls stack several blocks, and large patterns span calls.
    design, profile, model = small
    monkeypatch.setattr(fitting, "_BLOCK_ROWS", 3)
    block_calls, calls = fitting._block_calls, []

    def recorded(sizes):
        for call in block_calls(sizes):
            calls.append(call)
            yield call

    monkeypatch.setattr(fitting, "_block_calls", recorded)
    patterns = {(): 7, (0,): 1, (1,): 2, (2,): 3, (3,): 1, (4,): 1, (5,): 2,
                (0, 1): 1, (1, 2): 2, (2, 4): 4, (0, 3): 2, (0, 1, 2): 2,
                tuple(range(len(PAIRS))): 1}
    rng = np.random.default_rng(12)
    values = rng.normal(0, 1, (sum(patterns.values()), len(PAIRS)))
    genes = iter(rng.permutation(len(values)))
    for missing, count in patterns.items():
        for _ in range(count):
            values[next(genes), list(missing)] = np.nan
    ids = tuple(f"g{i}" for i in range(len(values)))
    expr = pr.ExpressionMatrix(gene_ids=ids, array_ids=design.array_ids, values=values)
    table = pr.fit_all(expr, model)
    _assert_fits_match_oracle(table, expr, model)
    assert sorted(table.n_used.tolist()) == sorted(
        len(PAIRS) - len(m) for m, count in patterns.items() for _ in range(count))
    assert table.ok.sum() == len(values) - 5  # rank-deficient, n - k = 0, all missing
    assert any(len(pattern) > 1 for pattern, _, _ in calls)
    assert all(len(pattern) * rows <= 3 for pattern, _, rows in calls)
    _assert_fit_gene_gives_each_row(table, values, model)


def test_genes_that_differ_only_past_the_eighth_packed_byte_are_fitted_apart():
    # 70 arrays: the masks below first differ at array 65, in the ninth byte.
    rng = np.random.default_rng(10)
    model = pr.ModelMatrix(x=rng.normal(0, 1, (70, 3)))
    values = rng.normal(0, 1, (240, 70))
    for i, missing in enumerate([[], [65], [66, 69], [64, 65, 66, 67, 68, 69]]):
        values[i::4, missing] = np.nan
    expr = pr.ExpressionMatrix(gene_ids=tuple(f"g{i}" for i in range(240)),
                               array_ids=tuple(f"a{j}" for j in range(70)), values=values)
    table = pr.fit_all(expr, model)
    assert table.n_used[:4].tolist() == [70, 69, 68, 64]
    assert len(fitting._pattern_groups(~np.isnan(values))[1]) == 4
    _assert_fits_match_oracle(table, expr, model)


@given(observed=arrays(bool, st.tuples(st.integers(0, 40), st.integers(1, 80)),
                       elements=st.booleans()))
@settings(max_examples=200, deadline=None)
def test_pattern_groups_partition_rows_as_the_row_wise_unique_does(observed):
    by_pattern, start, size, masks = fitting._pattern_groups(observed)
    group = np.repeat(np.arange(len(start)), size)[np.argsort(by_pattern)]  # per row
    rows = np.unique(observed, axis=0, return_inverse=True)[1].ravel()
    assert len(set(zip(group.tolist(), rows.tolist()))) == len(start) == len(set(rows.tolist()))
    assert np.array_equal(start, np.cumsum(size) - size)
    # One stable sort of the packed keys orders the rows as a stable sort
    # of labels numbered in key order does.
    packed = np.packbits(observed, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    labels = np.unique(keys, return_inverse=True)[1].ravel()
    assert np.array_equal(by_pattern, np.argsort(labels, kind="stable"))
    assert np.array_equal(masks[group], observed)


def test_fit_all_allocates_less_than_twice_its_input(stemcell_design, stemcell_model):
    # 20k complete genes: a fit that held whole-matrix temporaries (the
    # observed rows, their fitted values and residuals) would peak near 4x.
    values = np.random.default_rng(11).normal(0, 1, (20000, stemcell_model.n_arrays))
    expr = pr.ExpressionMatrix(gene_ids=tuple(f"g{i}" for i in range(len(values))),
                               array_ids=stemcell_design.array_ids, values=values)
    tracemalloc.start()
    try:
        table = pr.fit_all(expr, stemcell_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.ok.all()
    assert peak < 2 * values.nbytes


def _with_missing_spots(design, model):
    # 20k genes with 5% of spots missing, about 1,300 missingness patterns.
    rng = np.random.default_rng(11)
    values = rng.normal(0, 1, (20000, model.n_arrays))
    values.flat[rng.choice(values.size, size=values.size // 20, replace=False)] = np.nan
    return pr.ExpressionMatrix(gene_ids=tuple(f"g{i}" for i in range(len(values))),
                               array_ids=design.array_ids, values=values)


def test_fit_all_with_missing_spots_allocates_less_than_its_input(stemcell_design,
                                                                 stemcell_model):
    # The output columns alone take 0.45x the input and the genes x arrays
    # mask 0.125x; grouped by one stable sort, with the mask dropped before
    # the blocks are fitted, the call peaks near 0.73x. Kept alive through
    # the blocks beside the pattern labels, the mask lifts it to 0.9x.
    expr = _with_missing_spots(stemcell_design, stemcell_model)
    pr.fit_all(expr, stemcell_model)  # warm caches
    tracemalloc.start()
    try:
        table = pr.fit_all(expr, stemcell_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.ok.all() and (table.n_used < stemcell_model.n_arrays).mean() > 0.6
    assert peak < 0.8 * expr.values.nbytes


def test_a_genes_fit_does_not_depend_on_the_slice_or_block_it_is_fitted_in(stemcell_design,
                                                                           stemcell_model):
    # Patterns of hundreds of genes, which the property test's matrices never
    # reach, fitted in 1,000-row slices and in blocks of 7 genes.
    expr = _with_missing_spots(stemcell_design, stemcell_model)
    whole = _fit_bits([pr.fit_all(expr, stemcell_model)])
    slices = [pr.fit_all(pr.ExpressionMatrix(expr.gene_ids[i:i + 1000], expr.array_ids,
                                             expr.values[i:i + 1000]), stemcell_model)
              for i in range(0, expr.n_genes, 1000)]
    _assert_same_bits(_fit_bits(slices), whole)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_BLOCK_ROWS", 7)
        _assert_same_bits(_fit_bits([pr.fit_all(expr, stemcell_model)]), whole)


def test_moderation_allocates_less_than_seven_variance_columns(stemcell_design,
                                                                stemcell_model):
    # 20k genes whose variances follow a prior with d0 = 4, so the prior is
    # finite and every posterior variance is shrunk. The call peaks near 6.7
    # columns of s2, with the prior's and the posterior's temporaries built
    # in place; built out of place they lift it to 8.4, a Python float per
    # gene for log s2 above 10, and the prior's temporaries kept alive while
    # the posterior columns are built, above 14.
    rng = np.random.default_rng(11)
    sd = np.sqrt(4 * 0.05 / rng.chisquare(4, 20000))[:, None]
    values = rng.normal(0, 1, (20000, stemcell_model.n_arrays)) * sd
    expr = pr.ExpressionMatrix(gene_ids=tuple(f"g{i}" for i in range(len(values))),
                               array_ids=stemcell_design.array_ids, values=values)
    table = pr.fit_all(expr, stemcell_model)
    assert table.ok.all()
    tracemalloc.start()
    try:
        moderation = pr.moderate_variances(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(moderation.d0)
    assert peak < 7 * table.s2.nbytes


def test_sweep_allocates_less_than_four_gene_columns(stemcell_design, stemcell_model,
                                                      analysis_profile):
    # 20k genes, 400 of them positive in both positivity coefficients with
    # equivalence coefficients spread over (-2.5, 2.5), so about 320 genes
    # are included at the widest margin. The sweep finds them one test
    # column at a time and scores and ranks only them, so it peaks near 3.3
    # columns of s2; four whole score tables, one per margin, peak near 25.
    rng = np.random.default_rng(13)
    n, planted = 20000, 400
    gammas = np.zeros((n, 3))
    gammas[:planted] = np.column_stack([np.full(planted, 2.0), np.full(planted, 2.0),
                                        rng.uniform(-2.5, 2.5, planted)])
    values = gammas @ stemcell_model.x.T + rng.normal(0, 0.3, (n, stemcell_model.n_arrays))
    expr = pr.ExpressionMatrix(gene_ids=tuple(f"g{i}" for i in range(n)),
                               array_ids=stemcell_design.array_ids, values=values)
    fitted = pr.fit_experiment(expr, stemcell_design, analysis_profile)
    fitted.se, fitted.fits.ok  # built once per fit, before any sweep
    tracemalloc.start()
    try:
        sweep = pr.sweep_from_fits(fitted, analysis_profile, [0.5, 1.0, 1.5, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 200 < len(sweep.orders[-1]) < 400
    assert peak < 4 * fitted.fits.s2.nbytes


def _fitted_with_zero_se(missing_data):
    """The 5%-NA data fitted under the analysis margins, with a zero
    posterior variance for three genes included at margin 2 and every 97th
    fitted gene: ``(fitted, profile, zero-se rows)``."""
    conditions = pr.read_conditions_csv(missing_data / "conditions.csv")
    design = pr.read_design_csv(missing_data / "design.csv", conditions)
    profile = pr.validate_profile(
        pr.profile_from_file(missing_data / "pluripotent.profile")
    ).with_margins(deltas={"day6_vs_day9": 1.5})
    expr = pr.read_expression_csv(missing_data / "expression.csv", design.array_ids)
    fitted = pr.fit_experiment(expr, design, profile)
    zero = np.zeros(len(fitted.fits), dtype=bool)
    zero[pr.rank_from_fits(fitted, profile.with_margins(epsilon=2.0)).order[:3]] = True
    zero[::97] = True
    zero &= fitted.fits.ok
    moderation = replace(fitted.moderation,
                         posterior_s2=np.where(zero, 0.0, fitted.moderation.posterior_s2))
    return replace(fitted, moderation=moderation), profile, np.flatnonzero(zero)


@pytest.mark.parametrize("grid", [(2.0, 0.5, 1.5), (1.0,)])
def test_sweep_ranks_only_candidates_as_the_full_tables_rank(missing_data, grid):
    fitted, profile, zero_se = _fitted_with_zero_se(missing_data)
    assert not fitted.fits.ok.all()
    sweep = pr.sweep_from_fits(fitted, profile, grid)
    assert sweep.epsilons == grid
    tables = [pr.rank_from_fits(fitted, profile.with_margins(epsilon=e)) for e in grid]
    ranks = {}
    for t, (order, table) in enumerate(zip(sweep.orders, tables)):
        assert np.array_equal(order, table.order)
        assert not np.isin(zero_se, order).any()
        for rank, gene_id in enumerate(table.included_ids, start=1):
            ranks.setdefault(gene_id, [None] * len(grid))[t] = rank
    assert sweep.stability == tuple(
        (gene_id, tuple(r)) for gene_id, r in
        sorted(ranks.items(), key=lambda item: (min(r for r in item[1] if r), item[0]))
    )
    # The full tables are built on first read, as rank_from_fits builds them.
    for built, table in zip(sweep.tables, tables):
        assert np.array_equal(built.order, table.order)
        assert np.array_equal(built.dropped, table.dropped)
        assert built.scores.se is fitted.se


def _cli_args(root, command, grid, out):
    return [
        command,
        "--data", str(root / "expression.csv"),
        "--design", str(root / "design.csv"),
        "--conditions", str(root / "conditions.csv"),
        "--profile", str(root / "pluripotent.profile"),
        "--delta", "day6_vs_day9=1.5",
        "--grid", grid,
        "--out", str(out),
    ]


def test_rank_grid_never_builds_the_full_sweep_tables(missing_data, tmp_path, monkeypatch):
    def unread(sweep):
        raise AssertionError("rank read SweepResult.tables")

    monkeypatch.setattr(SweepResult, "tables", property(unread))
    assert cli.main(_cli_args(missing_data, "rank", "0.5,1,1.5,2", tmp_path)) == 0
    assert (tmp_path / "sensitivity.csv").read_text(encoding="utf-8").startswith(
        "gene_id,rank_eps_0.5,rank_eps_1,rank_eps_1.5,rank_eps_2\n")


def test_sensitivity_with_an_unsorted_grid_writes_what_the_full_tables_give(
    missing_data, tmp_path
):
    # Candidates come from the widest margin, 2; moderation.json describes
    # the last one, 1.
    grid = (2.0, 0.5, 1.0)
    assert cli.main(_cli_args(missing_data, "sensitivity", "2,0.5,1", tmp_path / "sweep")) == 0
    conditions = pr.read_conditions_csv(missing_data / "conditions.csv")
    design = pr.read_design_csv(missing_data / "design.csv", conditions)
    profile = pr.validate_profile(
        pr.profile_from_file(missing_data / "pluripotent.profile")
    ).with_margins(deltas={"day6_vs_day9": 1.5})
    expr = pr.read_expression_csv(missing_data / "expression.csv", design.array_ids)
    fitted = pr.fit_experiment(expr, design, profile)
    eager = tmp_path / "eager"
    eager.mkdir()
    sweep = _oracle_sweep(fitted, profile, grid)
    cli._write_sensitivity_csv(sweep, eager / "sensitivity.csv")
    for e in grid:
        table = pr.rank_from_fits(fitted, profile.with_margins(epsilon=e))
        cli._write_ranked_csv(table.scores, table.order, eager / f"ranked_eps_{e:g}.csv")
    cli._write_moderation_json(fitted, profile.with_margins(epsilon=1.0), len(table.order),
                               cli.ALPHA, eager / "moderation.json")
    moderation = json.loads((eager / "moderation.json").read_text(encoding="utf-8"))
    assert moderation["n_excluded"] == len(table.dropped)
    names = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert names == sorted(p.name for p in eager.iterdir()) and len(names) == 5
    for name in names:
        assert (tmp_path / "sweep" / name).read_bytes() == (eager / name).read_bytes(), name


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
    return oracles.rank_genes(list(stats))


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
        eps, tuple(t.order for t in tables), tuple((g, tuple(r)) for g, r in ordered),
        fitted, profile,
    )


def _stemcell_inputs(root):
    """Copy the bundled stem-cell conditions, design and pluripotent profile
    into ``root``: ``(design, profile)`` as read from there."""
    for src, dst in [
        ("conditions_stemcell.csv", "conditions.csv"),
        ("design_stemcell.csv", "design.csv"),
        ("pluripotent.profile", "pluripotent.profile"),
    ]:
        shutil.copy(pr.bundled_data_path(src), root / dst)
    conditions = pr.read_conditions_csv(root / "conditions.csv")
    design = pr.read_design_csv(root / "design.csv", conditions)
    profile = pr.validate_profile(pr.profile_from_file(root / "pluripotent.profile"))
    return design, profile


def _synth_values(design, profile, n_genes, n_planted, seed):
    result = pr.generate_dataset(
        design, profile.with_margins(deltas={"day6_vs_day9": 1.5}),
        n_genes=n_genes, n_planted=n_planted, seed=seed,
    )
    return result.expression.gene_ids, result.expression.values.copy()


@pytest.fixture(scope="module")
def missing_data(tmp_path_factory):
    """About 2000 synthetic genes with 5% of spots missing, plus a few genes
    the fit must exclude."""
    root = tmp_path_factory.mktemp("columnar")
    design, profile = _stemcell_inputs(root)
    gene_ids, values = _synth_values(design, profile, n_genes=2000, n_planted=20, seed=3)
    rng = np.random.default_rng([3, 1])
    values.flat[rng.choice(values.size, size=values.size // 20, replace=False)] = np.nan
    values[100, 3:] = np.nan  # three observed arrays for three coefficients
    day0_day3 = [i for i, a in enumerate(design.arrays) if {a.cy3, a.cy5} == {"day0", "day3"}]
    values[700] = np.nan
    values[700, day0_day3] = 0.25  # observed, but cannot identify the model
    expr = pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=design.array_ids, values=values)
    write_expression_csv(expr, root / "expression.csv")
    return root


RANK_GRID_OUTPUTS = ("ranked.csv", "excluded.csv", "moderation.json", "profiles.svg",
                     "sensitivity.csv")


def _rank_grid(root, out):
    # The files ``rank --grid`` writes for the inputs under ``root``.
    assert cli.main(_cli_args(root, "rank", "0.5,1,1.5,2", out)) == 0
    return {name: (out / name).read_bytes() for name in RANK_GRID_OUTPUTS}


def _columnar_and_per_gene(root, tmp_path, monkeypatch):
    """The files of ``rank --grid`` on the inputs under ``root``, run
    through the columnar kernels and then through the per-gene oracles."""
    columnar = _rank_grid(root, tmp_path / "columnar")
    monkeypatch.setattr(cli, "fit_experiment", _oracle_fit_experiment)
    monkeypatch.setattr(cli, "gene_statistics", _oracle_statistics)
    monkeypatch.setattr(cli, "rank_from_fits", _oracle_rank)
    monkeypatch.setattr(cli, "sweep_from_fits", _oracle_sweep)
    return columnar, _rank_grid(root, tmp_path / "per_gene")


def test_rank_grid_outputs_match_per_gene_path(missing_data, tmp_path, monkeypatch):
    columnar, per_gene = _columnar_and_per_gene(missing_data, tmp_path, monkeypatch)
    excluded = columnar["excluded.csv"].decode().splitlines()
    assert sum(line.endswith("insufficient data,,,") for line in excluded) == 2
    for name in RANK_GRID_OUTPUTS:
        assert columnar[name] == per_gene[name], name


def test_rank_grid_outputs_match_per_gene_path_with_a_non_finite_fit(tmp_path, monkeypatch):
    # Data of its own: other tests count the genes of ``missing_data``.
    root = tmp_path / "inputs"
    root.mkdir()
    design, profile = _stemcell_inputs(root)
    gene_ids, values = _synth_values(design, profile, n_genes=300, n_planted=5, seed=4)
    values[5] *= 1e200  # its residual variance overflows
    values[7] = np.nan
    expr = pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=design.array_ids, values=values)
    write_expression_csv(expr, root / "expression.csv")
    columnar, per_gene = _columnar_and_per_gene(root, tmp_path, monkeypatch)
    excluded = columnar["excluded.csv"].decode().splitlines()
    assert [line.split(",")[:2] for line in excluded[-2:]] == [
        [gene_ids[5], "non-finite fit"], [gene_ids[7], "insufficient data"]]
    for name in RANK_GRID_OUTPUTS:
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
