import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import profilerank as pr
from profilerank.design import least_squares_operators
from profilerank.errors import DataError, ValidationError
from profilerank import special
from profilerank.fitting import posterior_variance
from profilerank.ranking import _passes
from profilerank.synth import generate_dataset, write_expression_csv

from test_design import _profile, make_design


def two_point_model():
    # Two identical comparisons of the same pair: X = [[1], [1]].
    profile = _profile(
        ["a", "b"], [("diff", ["0", "1"])], [pr.Constraint.positive_above()]
    )
    design = make_design(["a", "b"], [("a", "b"), ("a", "b")])
    return design, pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)


# ---------------------------------------------------------------------------
# fit_gene
# ---------------------------------------------------------------------------


def test_two_point_mean():
    _, model = two_point_model()
    fit = pr.fit_gene(np.array([1.0, 3.0]), model, gene_id="g")
    assert fit.ok
    assert fit.gamma_hat[0] == pytest.approx(2.0, abs=1e-12)
    assert fit.s2 == pytest.approx(2.0, abs=1e-12)
    assert fit.df == 1
    assert fit.n_used == 2
    assert fit.unscaled_se[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-14)


def _normal_equations_oracle(x_rows, y):
    # Plain-python normal equations with an explicit Gauss-Jordan inverse.
    k = len(x_rows[0])
    xtx = [[sum(r[i] * r[j] for r in x_rows) for j in range(k)] for i in range(k)]
    xty = [sum(r[i] * v for r, v in zip(x_rows, y)) for i in range(k)]
    aug = [list(row) + [1.0 if j == i else 0.0 for j in range(k)]
           for i, row in enumerate(xtx)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        d = aug[col][col]
        aug[col] = [v / d for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0.0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv = [row[k:] for row in aug]
    gamma = [sum(inv[i][j] * xty[j] for j in range(k)) for i in range(k)]
    rss = sum(
        (v - sum(r[i] * gamma[i] for i in range(k))) ** 2
        for r, v in zip(x_rows, y)
    )
    df = len(y) - k
    return gamma, rss / df, [math.sqrt(inv[i][i]) for i in range(k)]


def test_fit_matches_normal_equations_oracle(stemcell_model):
    rng = np.random.default_rng(10)
    x_rows = stemcell_model.x.tolist()
    for _ in range(50):
        y = rng.normal(0, 1, 20)
        fit = pr.fit_gene(y, stemcell_model)
        gamma_o, s2_o, se_o = _normal_equations_oracle(x_rows, y.tolist())
        scale = max(1.0, max(abs(g) for g in gamma_o))
        assert max(abs(a - b) for a, b in zip(fit.gamma_hat, gamma_o)) <= 1e-10 * scale
        assert abs(fit.s2 - s2_o) <= 1e-10 * max(1.0, s2_o)
        assert np.allclose(fit.unscaled_se, se_o, rtol=1e-10)


def test_all_missing_excluded(stemcell_model):
    fit = pr.fit_gene(np.full(20, np.nan), stemcell_model, gene_id="g")
    assert not fit.ok
    assert fit.reason == "insufficient data"
    assert fit.gamma_hat is None


def test_too_few_rows_excluded(stemcell_model):
    y = np.full(20, np.nan)
    y[:3] = 1.0  # 3 rows for 3 coefficients: zero residual df
    assert not pr.fit_gene(y, stemcell_model).ok


def test_rank_deficient_after_deletion_excluded(stemcell_design, pluripotent):
    model = pr.compose_model_matrix(
        pr.build_comparison_matrix(stemcell_design), pluripotent
    )
    # Keep only the day0<->day3 comparisons: their model rows are all
    # (0, 0, +-1), rank 1 < 3 even though df would be positive.
    keep = [i for i, a in enumerate(stemcell_design.arrays)
            if {a.cy3, a.cy5} == {"day0", "day3"}]
    assert len(keep) == 4
    y = np.full(20, np.nan)
    y[keep] = [0.5, 0.4, -0.5, -0.3]
    fit = pr.fit_gene(y, model)
    assert not fit.ok
    assert fit.reason == "insufficient data"


def test_missing_rows_equal_subset_fit(stemcell_model):
    rng = np.random.default_rng(11)
    y = rng.normal(0, 1, 20)
    y[[2, 7, 13]] = np.nan
    fit = pr.fit_gene(y, stemcell_model)
    assert fit.ok and fit.n_used == 17 and fit.df == 14
    mask = np.isfinite(y)
    gamma_np, rss, *_ = np.linalg.lstsq(stemcell_model.x[mask], y[mask], rcond=None)
    assert np.allclose(fit.gamma_hat, gamma_np, atol=1e-12)


def test_wrong_length_rejected(stemcell_model):
    with pytest.raises(DataError, match="values"):
        pr.fit_gene(np.zeros(7), stemcell_model)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_residual_orthogonality(seed):
    rng = np.random.default_rng(seed)
    design, model = two_point_model()
    y = rng.normal(0, 1, 2)
    fit = pr.fit_gene(y, model)
    resid = y - model.x @ fit.gamma_hat
    assert np.all(np.abs(model.x.T @ resid) < 1e-8)


def test_residual_orthogonality_stemcell(stemcell_model):
    rng = np.random.default_rng(12)
    for _ in range(25):
        y = rng.normal(0, 2, 20)
        fit = pr.fit_gene(y, stemcell_model)
        resid = y - stemcell_model.x @ fit.gamma_hat
        assert np.all(np.abs(stemcell_model.x.T @ resid) < 1e-8)


def test_scale_equivariance(stemcell_model):
    rng = np.random.default_rng(13)
    y = rng.normal(0, 1, 20)
    base = pr.fit_gene(y, stemcell_model)
    for c in (0.1, 3.0, 250.0):
        scaled = pr.fit_gene(c * y, stemcell_model)
        assert np.allclose(scaled.gamma_hat, c * base.gamma_hat, rtol=1e-12)
        assert scaled.s2 == pytest.approx(c * c * base.s2, rel=1e-12)
        assert np.allclose(scaled.unscaled_se, base.unscaled_se, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# fit_all
# ---------------------------------------------------------------------------


def _expr(model, values, design_ids):
    return pr.ExpressionMatrix(
        gene_ids=tuple(f"g{i}" for i in range(len(values))),
        array_ids=design_ids,
        values=np.array(values, dtype=float),
    )


def test_fit_all_preserves_order_and_handles_missing(stemcell_design, stemcell_model):
    rng = np.random.default_rng(14)
    rows = rng.normal(0, 1, (3, 20))
    rows[1] = np.nan
    expr = _expr(stemcell_model, rows, stemcell_design.array_ids)
    fits = pr.fit_all(expr, stemcell_model)
    assert [f.gene_id for f in fits] == ["g0", "g1", "g2"]
    assert fits[0].ok and fits[2].ok and not fits[1].ok


def test_fit_all_identical_rows_identical_fits(stemcell_design, stemcell_model):
    rng = np.random.default_rng(15)
    row = rng.normal(0, 1, 20)
    expr = _expr(stemcell_model, [row, row], stemcell_design.array_ids)
    a, b = pr.fit_all(expr, stemcell_model)
    assert np.array_equal(a.gamma_hat, b.gamma_hat)
    assert a.s2 == b.s2


def test_a_fit_that_overflows_is_excluded_from_the_prior(stemcell_design, stemcell_model):
    # Gene 1's s2 overflows, gene 2's gamma overflows and gene 3 has no fit.
    rng = np.random.default_rng(16)
    rows = rng.normal(0, 1, (8, 20))
    rows[1] *= 1e200
    pinv = least_squares_operators(stemcell_model.x[None])[1][0]
    rows[2] = 1.7e308 * np.where(pinv[1] < 0, -1.0, 1.0)
    rows[3] = np.nan
    fits = pr.fit_all(_expr(stemcell_model, rows, stemcell_design.array_ids), stemcell_model)
    assert np.isinf(fits.s2[1]) and np.isinf(fits.gamma[2]).any()
    assert fits.ok.tolist() == [True, False, False, False, True, True, True, True]
    assert [f.reason for f in fits[1:4]] == ["non-finite fit", "non-finite fit",
                                             "insufficient data"]
    mod = pr.moderate_variances(fits)
    kept = [0, 4, 5, 6, 7]
    alone = pr.moderate_variances(
        pr.fit_all(_expr(stemcell_model, rows[kept], stemcell_design.array_ids), stemcell_model))
    assert (mod.d0, mod.s0_2, mod.n_estimation_genes) == (alone.d0, alone.s0_2, 5)
    assert np.isnan(mod.posterior_s2[1:4]).all() and np.isnan(mod.posterior_df[1:4]).all()
    assert np.array_equal(mod.posterior_s2[kept], alone.posterior_s2)


@pytest.fixture(scope="module")
def seed1_expression(stemcell_design, pluripotent):
    return generate_dataset(stemcell_design, pluripotent, n_genes=200, n_planted=0,
                            seed=1).expression


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_an_infinite_value_is_a_non_finite_fit_not_a_missing_spot(
    seed1_expression, stemcell_design, stemcell_model, pluripotent, value
):
    # Only NaN marks a missing spot: gene 0 keeps all 20 arrays and its fit
    # is excluded as non-finite, visibly and without a RuntimeWarning.
    values = seed1_expression.values.copy()
    values[0, 0] = value
    expr = pr.ExpressionMatrix(seed1_expression.gene_ids, seed1_expression.array_ids, values)
    fitted, table = pr.analyze(expr, stemcell_design, pluripotent)
    assert (fitted.fits.n_used[0], fitted.fits.ok[0]) == (20, False)
    assert [e.reason for e in table.excluded if e.gene_id == expr.gene_ids[0]] == [
        "non-finite fit"]
    fit = pr.fit_gene(values[0], stemcell_model, "g")
    assert (fit.ok, fit.reason, fit.n_used) == (False, "non-finite fit", 20)


_finite_values = st.lists(
    st.tuples(st.booleans(), st.floats(min_value=1e-300, max_value=1e300)).map(
        lambda signed: -signed[1] if signed[0] else signed[1]),
    min_size=20, max_size=20)


@given(values=_finite_values)
@settings(max_examples=200, deadline=None)
def test_one_appended_finite_gene_keeps_the_prior_finite(seed1_expression, stemcell_model,
                                                         values):
    expr = pr.ExpressionMatrix(gene_ids=(*seed1_expression.gene_ids, "extra"),
                               array_ids=seed1_expression.array_ids,
                               values=np.vstack([seed1_expression.values, values]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mod = pr.moderate_variances(pr.fit_all(expr, stemcell_model))
    assert math.isfinite(mod.s0_2) and mod.s0_2 > 0.0
    assert mod.d0 > 0.0 and not math.isnan(mod.d0)


# ---------------------------------------------------------------------------
# moderation
# ---------------------------------------------------------------------------


def _fits_from_s2(s2_values, df=17):
    return [
        pr.GeneFit(gene_id=f"g{i}", status="ok", gamma_hat=None, s2=float(v),
                   df=df, unscaled_se=None, n_used=df + 3)
        for i, v in enumerate(s2_values)
    ]


def test_identical_variances_give_degenerate_prior():
    mod = pr.moderate_variances(_fits_from_s2([0.07] * 50))
    assert math.isinf(mod.d0)
    assert mod.s0_2 == pytest.approx(0.07, rel=1e-12)
    assert np.allclose(mod.posterior_s2, 0.07, rtol=1e-12)
    assert np.all(mod.posterior_df == math.inf)


def test_posterior_is_equal_weight_average_when_df_equals_d0():
    assert posterior_variance(17.0, 0.04, 17, 0.1) == pytest.approx(
        (0.04 + 0.1) / 2.0, abs=1e-15
    )
    assert posterior_variance(4.0, 0.2, 4, 0.0) == pytest.approx(0.1, abs=1e-15)


def test_posterior_formula_and_bounds():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d0 = float(rng.uniform(0.5, 40))
        s0 = float(rng.uniform(1e-4, 2.0))
        df = int(rng.integers(1, 40))
        s2 = float(rng.uniform(0.0, 3.0))
        post = posterior_variance(d0, s0, df, s2)
        assert min(s0, s2) <= post <= max(s0, s2)
        assert post == pytest.approx((d0 * s0 + df * s2) / (d0 + df), rel=1e-12)


def test_posterior_is_clamped_where_the_average_rounds_outside_the_bounds():
    # With s2 == s0_2 the weighted average rounds to 0.10000000000000002.
    assert (3.0 * 0.1 + 3 * 0.1) / (3.0 + 3) > 0.1
    assert posterior_variance(3.0, 0.1, 3, 0.1) == 0.1


def test_moderation_monotone_in_s2():
    fits = _fits_from_s2(np.linspace(0.01, 0.4, 100))
    mod = pr.moderate_variances(fits)
    assert np.all(np.diff(mod.posterior_s2) >= 0.0)


def test_shrinkage_bound_holds_for_every_gene():
    rng = np.random.default_rng(18)
    s2 = 0.05 * rng.chisquare(17, 500) / 17
    mod = pr.moderate_variances(_fits_from_s2(s2))
    for v, post in zip(s2, mod.posterior_s2):
        assert min(mod.s0_2, v) <= post <= max(mod.s0_2, v)


def test_a_tiny_positive_excess_gives_a_huge_finite_d0_that_decides_as_the_normal():
    # Two genes whose log-variances spread exactly as the chi-square noise
    # at 17 df, give or take a few ulps: the moment excess is a tiny
    # positive number, d0 = 2 / excess is above 1e12, and so is each
    # gene's posterior df. Student's t there is the normal to 1e-12.
    half = math.sqrt(special.trigamma(8.5) / 2.0)
    mods = (pr.moderate_variances(_fits_from_s2([math.exp(c), math.exp(-c)]))
            for c in half * (1.0 + np.arange(-50, 50) * 1e-15))
    mod = next(m for m in mods if 1e12 < m.d0 < math.inf)
    z = special.student_t_upper_quantile(0.05, math.inf)
    u = z * (1.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6]))[:, None]
    normal = _passes(u, np.full(4, math.inf), 0.05)
    assert normal.tolist() == [False, False, True, True]
    for df in mod.posterior_df:
        assert df > 1e12
        assert np.array_equal(_passes(u, np.full(4, df), 0.05), normal)


def test_zero_variance_gene_flagged_and_moderated():
    # spread wide enough that the moment estimate of d0 stays finite
    s2 = [0.05, 0.8, 0.0, 0.02, 0.3]
    mod = pr.moderate_variances(_fits_from_s2(s2))
    assert math.isfinite(mod.d0)
    assert mod.zero_variance_genes == (2,)
    assert mod.n_estimation_genes == 4
    expected = mod.d0 * mod.s0_2 / (mod.d0 + 17)
    assert mod.posterior_s2[2] == pytest.approx(expected, rel=1e-12)
    # the zero-variance gene does not perturb the prior estimate
    mod_without = pr.moderate_variances(_fits_from_s2([0.05, 0.8, 0.02, 0.3]))
    assert mod.d0 == pytest.approx(mod_without.d0, rel=1e-12)
    assert mod.s0_2 == pytest.approx(mod_without.s0_2, rel=1e-12)


def test_excluded_genes_get_nan_posteriors():
    fits = _fits_from_s2([0.05, 0.08, 0.06])
    fits.append(pr.GeneFit(gene_id="gx", status="excluded", reason="insufficient data"))
    mod = pr.moderate_variances(fits)
    assert math.isnan(mod.posterior_s2[3])
    assert math.isnan(mod.posterior_df[3])


def test_too_few_genes_rejected():
    with pytest.raises(DataError, match="at least 2 genes"):
        pr.moderate_variances(_fits_from_s2([0.05]))
    with pytest.raises(DataError):
        pr.moderate_variances(_fits_from_s2([0.0, 0.0, 0.05]))


def test_moderation_recovers_known_prior_small():
    # Smaller sibling of the acceptance-scale recovery check.
    errs_d0, errs_s0 = [], []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        n = 4000
        sigma2 = 4.0 * 0.05 / rng.chisquare(4.0, n)
        s2 = sigma2 * rng.chisquare(17, n) / 17
        mod = pr.moderate_variances(_fits_from_s2(s2))
        errs_d0.append(abs(mod.d0 - 4.0) / 4.0)
        errs_s0.append(abs(mod.s0_2 - 0.05) / 0.05)
    assert np.mean(errs_d0) < 0.2
    assert np.mean(errs_s0) < 0.08


# ---------------------------------------------------------------------------
# expression ingestion
# ---------------------------------------------------------------------------


def test_read_expression_happy_path(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("gene_id,a1,a2\ng1,0.5,NA\ng2,,-0.25\n", encoding="utf-8")
    expr = pr.read_expression_csv(p, ("a1", "a2"))
    assert expr.gene_ids == ("g1", "g2")
    assert expr.values[0, 0] == 0.5
    assert math.isnan(expr.values[0, 1])
    assert math.isnan(expr.values[1, 0])
    assert expr.values[1, 1] == -0.25


def test_read_expression_header_must_match_design(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("gene_id,a2,a1\ng1,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="does not match the design"):
        pr.read_expression_csv(p, ("a1", "a2"))


def test_read_expression_bad_number_reports_position(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("gene_id,a1,a2\ng1,0.5,0.5\ng2,oops,0.1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"expr.csv:3: column 2"):
        pr.read_expression_csv(p, ("a1", "a2"))


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
def test_read_expression_non_finite_token_reports_position(tmp_path, token):
    # NA and empty fields before the bad cell stay missing spots, and the
    # blank line does not shift the reported line number.
    p = tmp_path / "expr.csv"
    p.write_text(f"gene_id,a1,a2,a3\ng1,NA,0.5,\n\ng2,0.1,{token},NA\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"expr.csv:4: column 3: not a finite number"):
        pr.read_expression_csv(p, ("a1", "a2", "a3"))


@pytest.mark.parametrize(
    "gene_id", ["", "  ", '"a\rb"'], ids=["empty", "blank", "carriage-return"]
)
def test_read_expression_bad_gene_id_reports_position(tmp_path, gene_id):
    p = tmp_path / "expr.csv"
    p.write_text(f"gene_id,a1,a2,a3\ng1,1.0,2.0,3.0\n{gene_id},4.0,5.0,6.0\n", newline="",
                 encoding="utf-8")
    with pytest.raises(DataError, match=r"expr.csv:3: column 1: a gene id must be non-empty"):
        pr.read_expression_csv(p, ("a1", "a2", "a3"))


# Gene ids hold commas, quotes and line feeds but no surrounding whitespace,
# which the reader strips, no carriage return, which it rejects, and no
# character that XML cannot hold, which the id rule rejects.
_GENE_IDS = st.text(
    st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff")
    | st.sampled_from(',"\n'),
    min_size=1, max_size=6,
).filter(lambda s: s == s.strip())
_EXTREMES = (1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
             2.2250738585072014e-308, -0.0, math.nan)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_expression_csv_round_trip(data):
    n_arrays = data.draw(st.integers(1, 4))
    gene_ids = tuple(data.draw(st.lists(_GENE_IDS, min_size=1, max_size=6, unique=True)))
    values = data.draw(arrays(
        float, (len(gene_ids), n_arrays),
        elements=st.sampled_from(_EXTREMES) | st.floats(allow_infinity=False),
        fill=st.nothing(),
    ))
    array_ids = tuple(f"a{j}" for j in range(n_arrays))
    expr = pr.ExpressionMatrix(gene_ids=gene_ids, array_ids=array_ids, values=values)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_expression_csv(expr, first)
        back = pr.read_expression_csv(first, array_ids)
        write_expression_csv(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert back.gene_ids == gene_ids
    missing = np.isnan(values)
    assert np.array_equal(np.isnan(back.values), missing)
    assert np.array_equal(back.values[~missing].view(np.uint64), values[~missing].view(np.uint64))


def test_read_expression_duplicate_gene_ids(tmp_path):
    p = tmp_path / "expr.csv"
    p.write_text("gene_id,a1,a2\ng1,0.5,0.5\ng1,0.1,0.1\n", encoding="utf-8")
    with pytest.raises(DataError, match="unique"):
        pr.read_expression_csv(p, ("a1", "a2"))


def test_expression_matrix_names_a_repeated_gene_id():
    with pytest.raises(DataError, match="'g2' repeats"):
        pr.ExpressionMatrix(gene_ids=("g1", "g2", "g3", "g2", "g1"), array_ids=("a1",),
                            values=np.zeros((5, 1)))


@pytest.mark.parametrize("gene_id", ["", " g2", "g2\t"])
def test_expression_matrix_rejects_an_id_that_would_not_read_back(tmp_path, gene_id):
    # The reader strips each id and rejects an empty one, so such an id
    # could be written but not read back as it was.
    with pytest.raises(DataError, match=re.escape(f"a gene id must be non-empty, without "
                                                   f"surrounding whitespace, got {gene_id!r}")):
        pr.ExpressionMatrix(gene_ids=("g1", gene_id), array_ids=("a1",), values=np.zeros((2, 1)))


def _expression(array_ids, shape):
    return pr.ExpressionMatrix(gene_ids=("g1", "g2"), array_ids=tuple(array_ids),
                               values=np.zeros(shape))


@pytest.mark.parametrize(
    "run, error, message",
    [
        (lambda design, model, profile: _expression(["a1"], (2, 2)),
         DataError, "expression matrix shape (2, 2) does not match 2 genes x 1 arrays"),
        (lambda design, model, profile: pr.fit_all(_expression(["a1", "a2"], (2, 2)), model),
         DataError, "expression matrix has 2 arrays but the model expects 20"),
        (lambda design, model, profile: pr.fit_experiment(
            _expression(design.array_ids[::-1], (2, 20)), design, profile),
         ValidationError, "expression arrays do not match the design arrays"),
    ],
    ids=["shape-vs-ids", "fit-all-array-count", "fit-experiment-array-ids"],
)
def test_a_matrix_that_does_not_match_is_rejected(stemcell_design, stemcell_model, pluripotent,
                                                  run, error, message):
    with pytest.raises(error, match=re.escape(message)):
        run(stemcell_design, stemcell_model, pluripotent)


def test_fit_gene_without_cached_solver(stemcell_model):
    bare = pr.ModelMatrix(
        x=np.array(stemcell_model.x),
        coefficient_indices=stemcell_model.coefficient_indices,
        dropped_coefficients=stemcell_model.dropped_coefficients,
    )
    rng = np.random.default_rng(19)
    y = rng.normal(0, 1, 20)
    a = pr.fit_gene(y, bare)
    b = pr.fit_gene(y, stemcell_model)
    assert np.allclose(a.gamma_hat, b.gamma_hat, atol=1e-12)
    assert a.s2 == pytest.approx(b.s2, rel=1e-12)
