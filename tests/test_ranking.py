import math
import re

import numpy as np
import pytest

import profilerank as pr
from profilerank.errors import ValidationError
from profilerank.ranking import (
    REASONS,
    gene_statistics,
    rank_from_fits,
    sweep_from_fits,
)
from profilerank.special import student_t_sf, student_t_upper_quantile

from test_design import make_design

CONDS = ("c0", "c1", "c2", "c3")


@pytest.fixture(scope="module")
def triple():
    """Design+profile whose model has three test-bearing columns, one per
    coefficient, in order (pos, pos, equiv:1)."""
    profile = pr.validate_profile(
        pr.ProfileSpec.from_columns(
            "triple",
            CONDS,
            [
                ("p1", ["0", "1", "0", "0"]),
                ("p2", ["0", "0", "1", "0"]),
                ("ez", ["0", "0", "0", "1"]),
            ],
            [
                pr.Constraint.positive_above(0.0),
                pr.Constraint.positive_above(0.0),
                pr.Constraint.equivalent_zero(1.0),
            ],
        )
    )
    pairs = [("c0", "c1"), ("c0", "c2"), ("c0", "c3")] * 2
    design = make_design(CONDS, pairs)
    model = pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)
    return design, profile, model


def make_fit(gamma, unscaled_se, gene_id="g", df=17, s2=0.04):
    return pr.GeneFit(
        gene_id=gene_id,
        status="ok",
        gamma_hat=np.array(gamma, dtype=float),
        s2=s2,
        df=df,
        unscaled_se=np.array(unscaled_se, dtype=float),
        n_used=20,
    )


def make_mod(posterior_s2=1.0, posterior_df=20.0, d0=3.0, s0_2=1.0, n=1):
    return pr.ModerationResult(
        d0=d0,
        s0_2=s0_2,
        posterior_s2=np.full(n, posterior_s2),
        posterior_df=np.full(n, posterior_df),
    )


# ---------------------------------------------------------------------------
# u_statistics
# ---------------------------------------------------------------------------


def test_u_values_direct_arithmetic(triple):
    _, profile, model = triple
    fit = make_fit([2.0, 3.0, 0.2], [0.5, 0.5, 0.1])
    u = pr.u_statistics(fit, make_mod(), profile, model, 0)
    assert u.u_values.tolist() == [4.0, 6.0, 8.0]
    assert u.u == 4.0
    assert u.included
    assert u.exclusion_reason is None
    assert u.se.tolist() == [0.5, 0.5, 0.1]


def test_equivalence_violation_excludes(triple):
    _, profile, model = triple
    fit = make_fit([2.0, 3.0, 1.2], [0.5, 0.5, 0.1])
    u = pr.u_statistics(fit, make_mod(), profile, model, 0)
    assert u.u_values[2] < 0.0
    assert not u.included
    assert u.exclusion_reason == "criterion violated"


def test_raised_threshold_excludes(triple):
    _, profile, model = triple
    raised = profile.with_margins(deltas={"p2": 1.5})
    fit = make_fit([2.0, 1.4, 0.0], [0.5, 0.5, 0.1])
    u = pr.u_statistics(fit, make_mod(), raised, model, 0)
    assert u.u_values[1] == pytest.approx((1.4 - 1.5) / 0.5)
    assert not u.included
    assert u.exclusion_reason == "criterion violated"


def test_zero_se_degenerate_vs_violated(triple):
    _, profile, model = triple
    mod = make_mod(posterior_s2=0.0)
    ok_signs = make_fit([2.0, 3.0, 0.2], [0.5, 0.5, 0.1])
    u = pr.u_statistics(ok_signs, mod, profile, model, 0)
    assert not u.included
    assert u.exclusion_reason == "degenerate variance"
    bad_signs = make_fit([-2.0, 3.0, 0.2], [0.5, 0.5, 0.1])
    u = pr.u_statistics(bad_signs, mod, profile, model, 0)
    assert u.exclusion_reason == "criterion violated"


def test_boundary_u_zero_excluded(triple):
    _, profile, model = triple
    fit = make_fit([0.0, 3.0, 0.2], [0.5, 0.5, 0.1])
    u = pr.u_statistics(fit, make_mod(), profile, model, 0)
    assert u.u_values[0] == 0.0
    assert not u.included


def test_excluded_fit_rejected(triple):
    _, profile, model = triple
    dead = pr.GeneFit(gene_id="g", status="excluded", reason="insufficient data")
    with pytest.raises(ValueError, match="excluded fit"):
        pr.u_statistics(dead, make_mod(), profile, model, 0)


def test_u1_scale_invariance_at_zero_threshold(triple):
    # Rescaling the whole data set rescales estimates, sample variances,
    # and the moderated prior together, so zero-threshold positivity
    # statistics are unchanged; equivalence statistics (fixed margin in
    # data units) are not.
    design, profile, model = triple
    rng = np.random.default_rng(21)
    gammas = rng.uniform(-1.0, 2.0, (8, 3))
    values = gammas @ model.x.T + rng.normal(0, 0.2, (8, model.n_arrays))
    ids = tuple(f"g{i}" for i in range(8))
    expr = pr.ExpressionMatrix(
        gene_ids=ids, array_ids=design.array_ids, values=values
    )
    scaled = pr.ExpressionMatrix(
        gene_ids=ids, array_ids=design.array_ids, values=3.0 * values
    )
    stats = gene_statistics(pr.fit_experiment(expr, design, profile), profile)
    stats_scaled = gene_statistics(
        pr.fit_experiment(scaled, design, profile), profile
    )
    for a, b in zip(stats, stats_scaled):
        assert b.u_values[0] == pytest.approx(a.u_values[0], rel=1e-9)
        assert b.u_values[1] == pytest.approx(a.u_values[1], rel=1e-9)
        assert abs(b.u_values[2] - a.u_values[2]) > 0.05


# ---------------------------------------------------------------------------
# rank_genes
# ---------------------------------------------------------------------------


def _ustat(gene_id, u_values, included=None, reason=None):
    u_values = np.array(u_values, dtype=float)
    u = float(u_values.min())
    if included is None:
        included = bool(np.all(u_values > 0.0))
    return pr.UStatistics(
        gene_id=gene_id,
        gamma_hat=np.zeros(3),
        se=np.ones(3),
        u_values=u_values,
        u=u,
        included=included,
        exclusion_reason=reason if included is False and reason else (
            None if included else "criterion violated"
        ),
        s2=0.04,
        posterior_s2=0.05,
    )


def test_rank_ordering_example():
    table = pr.rank_genes([
        _ustat("ga", [4.0, 9.0]),
        _ustat("gb", [7.0, 8.0]),
        _ustat("gc", [2.0, 5.0]),
    ])
    assert [(r.rank, r.gene_id) for r in table.rows] == [
        (1, "gb"), (2, "ga"), (3, "gc")
    ]


def test_rank_ties_break_by_gene_id():
    table = pr.rank_genes([
        _ustat("zeta", [3.0]),
        _ustat("alpha", [3.0]),
    ])
    assert [r.gene_id for r in table.rows] == ["alpha", "zeta"]


def test_ranks_contiguous_after_exclusion():
    table = pr.rank_genes([
        _ustat("ga", [4.0]),
        _ustat("gb", [-1.0]),
        _ustat("gc", [2.0]),
    ])
    assert [(r.rank, r.gene_id) for r in table.rows] == [(1, "ga"), (2, "gc")]
    assert [e.gene_id for e in table.excluded] == ["gb"]


def test_empty_input_empty_table():
    table = pr.rank_genes([])
    assert table.rows == () and table.excluded == ()


def test_adding_a_gene_preserves_relative_order():
    rng = np.random.default_rng(22)
    stats = [_ustat(f"g{i:02d}", rng.uniform(0.1, 9.0, 3)) for i in range(12)]
    before = pr.rank_genes(stats).included_ids
    stats.append(_ustat("new", [5.0, 5.0, 5.0]))
    after = pr.rank_genes(stats).included_ids
    filtered = tuple(g for g in after if g != "new")
    assert filtered == before


# ---------------------------------------------------------------------------
# cii_decision / iut_decision
# ---------------------------------------------------------------------------


def test_cii_equivalence_interval_with_tstar_two(triple):
    _, profile, model = triple
    # alpha chosen so the (normal) one-sided quantile is exactly 2
    alpha = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
    fit = make_fit([2.0, 3.0, 0.0], [0.5, 0.5, 0.1])
    mod = make_mod(posterior_s2=1.0, posterior_df=math.inf, d0=math.inf)
    dec = pr.cii_decision(fit, mod, 0, 2, pr.Constraint.equivalent_zero(1.0), alpha)
    assert dec.interval[0] == pytest.approx(-0.2, abs=1e-9)
    assert dec.interval[1] == pytest.approx(0.2, abs=1e-9)
    assert dec.reject_h0


def test_cii_positivity_never_rejects_at_zero_estimate(triple):
    _, profile, model = triple
    for se in (0.01, 0.5, 3.0):
        fit = make_fit([0.0, 3.0, 0.0], [se, 0.5, 0.1])
        dec = pr.cii_decision(
            fit, make_mod(), 0, 0, pr.Constraint.positive_above(0.0), 0.05
        )
        assert not dec.reject_h0
        assert dec.interval[1] == math.inf


def test_cii_uses_moderated_df():
    fit = make_fit([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    mod = make_mod(posterior_s2=1.0, posterior_df=17.0)
    dec = pr.cii_decision(fit, mod, 0, 2, pr.Constraint.equivalent_zero(1.0), 0.05)
    tstar = student_t_upper_quantile(0.05, 17.0)
    assert tstar == pytest.approx(1.7396, abs=1e-4)
    assert dec.interval[1] == pytest.approx(tstar, rel=1e-12)
    assert not dec.reject_h0  # interval (-1.7396, 1.7396) not inside (-1, 1)


def test_cii_alpha_domain(triple):
    fit = make_fit([1.0, 1.0, 0.0], [0.5, 0.5, 0.1])
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(ValidationError):
            pr.cii_decision(fit, make_mod(), 0, 0,
                            pr.Constraint.positive_above(0.0), bad)


def test_iut_examples():
    df = 17.0
    assert pr.iut_decision(_ustat("g", [4.0, 4.0, 4.0]), df, 0.05)
    assert not pr.iut_decision(_ustat("g", [4.0, 6.0, 1.0]), df, 0.05)


def test_iut_needs_every_u_strictly_above_the_t_quantile():
    df, alpha = 17.0, 0.05
    tstar = student_t_upper_quantile(alpha, df)
    assert not pr.iut_decision(_ustat("g", [5.0, tstar, 5.0]), df, alpha)
    assert pr.iut_decision(_ustat("g", [5.0, np.nextafter(tstar, 6.0), 5.0]), df, alpha)


def test_iut_equals_min_u_threshold_enumeration():
    rng = np.random.default_rng(23)
    df = 21.0
    genes = [_ustat(f"g{i}", rng.uniform(-1.0, 4.0, 3)) for i in range(40)]
    for alpha in (0.2, 0.1, 0.05, 0.01):
        tstar = student_t_upper_quantile(alpha, df)
        for g in genes:
            assert pr.iut_decision(g, df, alpha) == (g.u > tstar)


def test_iut_agrees_with_per_coefficient_cii(triple):
    # The joint decision is exactly "every CII test rejects".
    _, profile, model = triple
    rng = np.random.default_rng(24)
    mod = make_mod(posterior_s2=0.25, posterior_df=20.0, n=1)
    constraints = [profile.constraints[j] for j in profile.test_bearing]
    for _ in range(50):
        fit = make_fit(rng.uniform(-1, 3, 3), [0.5, 0.4, 0.6])
        u = pr.u_statistics(fit, mod, profile, model, 0)
        for alpha in (0.1, 0.05):
            per_coef = all(
                pr.cii_decision(fit, mod, 0, pos, con, alpha).reject_h0
                for pos, con in zip((0, 1, 2), constraints)
            )
            assert pr.iut_decision(u, 20.0, alpha) == per_coef


def test_cii_agrees_with_iut_at_the_boundary():
    # U = gamma / se lies one ulp-sized step above t*, while the lower limit
    # gamma - t* * se rounds to exactly 0: both tests must still reject.
    fit = make_fit([4.275754887255087], [2.4848307555231206])
    mod = make_mod(posterior_s2=1.0, posterior_df=21.0)
    dec = pr.cii_decision(fit, mod, 0, 0, pr.Constraint.positive_above(0.0), 0.05)
    u = 4.275754887255087 / 2.4848307555231206
    assert u > student_t_upper_quantile(0.05, 21.0)
    assert pr.iut_decision(_ustat("g", [u]), 21.0, 0.05)
    assert dec.reject_h0
    assert dec.interval[1] == math.inf


def test_ranking_equals_sup_alpha_ordering():
    # Observed significance per criterion is sf(U_i); the gene-level score
    # sup_i sf(U_i) = sf(min U_i) orders genes identically to U.
    rng = np.random.default_rng(25)
    df = 21.0
    genes = [_ustat(f"g{i:02d}", rng.uniform(0.05, 5.0, 3)) for i in range(30)]
    by_u = sorted(genes, key=lambda g: (-g.u, g.gene_id))
    by_sup_alpha = sorted(
        genes,
        key=lambda g: (max(student_t_sf(float(v), df) for v in g.u_values), g.gene_id),
    )
    assert [g.gene_id for g in by_u] == [g.gene_id for g in by_sup_alpha]


def test_iut_ranking_consistency():
    rng = np.random.default_rng(26)
    df = 20.0
    genes = [_ustat(f"g{i:02d}", rng.uniform(0.1, 4.0, 3)) for i in range(25)]
    table = pr.rank_genes(genes)
    ordered = [g for r in table.rows for g in genes if g.gene_id == r.gene_id]
    for alpha in (0.2, 0.05, 0.01):
        passes = [pr.iut_decision(g, df, alpha) for g in ordered]
        # once a gene fails, every lower-ranked gene fails too
        seen_fail = False
        for p in passes:
            if seen_fail:
                assert not p
            seen_fail = seen_fail or not p


def test_variance_penalty_constructed_pair(triple):
    _, profile, model = triple
    gamma = [2.0, 3.0, 0.2]
    se = [0.5, 0.5, 0.1]
    fits = [make_fit(gamma, se, "low_var"), make_fit(gamma, se, "high_var")]
    mod = pr.ModerationResult(
        d0=4.0, s0_2=0.05,
        posterior_s2=np.array([0.04, 0.08]),
        posterior_df=np.array([21.0, 21.0]),
    )
    stats = [
        pr.u_statistics(f, mod, profile, model, i) for i, f in enumerate(fits)
    ]
    assert stats[1].u < stats[0].u
    expected_ratio = math.sqrt(0.04 / 0.08)
    assert stats[1].u == pytest.approx(stats[0].u * expected_ratio, rel=1e-12)
    table = pr.rank_genes(stats)
    assert table.rank_of("low_var") == 1
    assert table.rank_of("high_var") == 2


# ---------------------------------------------------------------------------
# sensitivity sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_population(triple):
    design, profile, model = triple
    rng = np.random.default_rng(27)
    gammas = []
    # planted-ish genes with varying equivalence quality, plus violators
    for i in range(30):
        g1 = rng.uniform(0.5, 3.0)
        g2 = rng.uniform(0.5, 3.0)
        g3 = rng.uniform(-2.5, 2.5)
        gammas.append([g1, g2, g3])
    gammas.append([2.0, 2.0, 0.7])  # the reference gene for the 0.5 cutoff
    gammas = np.array(gammas)
    sigma = 0.05
    values = gammas @ model.x.T + rng.normal(0, sigma, (len(gammas), model.n_arrays))
    gene_ids = tuple(f"g{i:02d}" for i in range(len(gammas)))
    expr = pr.ExpressionMatrix(
        gene_ids=gene_ids, array_ids=design.array_ids, values=values
    )
    return design, profile, expr


def test_sweep_inclusion_sets_nested(sweep_population):
    design, profile, expr = sweep_population
    sweep = pr.sensitivity_sweep(expr, design, profile, [0.5, 1.0, 1.5, 2.0])
    sets = [set(t.included_ids) for t in sweep.tables]
    for small, large in zip(sets, sets[1:]):
        assert small <= large


def test_sweep_gene_at_0p7_crosses_at_half(sweep_population):
    design, profile, expr = sweep_population
    sweep = pr.sensitivity_sweep(expr, design, profile, [0.5, 1.0, 1.5, 2.0])
    gene = "g30"  # true equivalence coefficient 0.7, tiny noise
    in_at = [gene in t.included_ids for t in sweep.tables]
    assert in_at == [False, True, True, True]


def test_sweep_stability_ranks_match_tables(sweep_population):
    design, profile, expr = sweep_population
    sweep = pr.sensitivity_sweep(expr, design, profile, [0.5, 1.0])
    for gene_id, ranks in sweep.stability:
        for table, rank in zip(sweep.tables, ranks):
            assert table.rank_of(gene_id) == rank


def test_sweep_rejects_bad_margins(sweep_population):
    design, profile, expr = sweep_population
    with pytest.raises(ValidationError, match="at least one margin"):
        pr.sensitivity_sweep(expr, design, profile, [])
    with pytest.raises(ValidationError, match="must be > 0"):
        pr.sensitivity_sweep(expr, design, profile, [1.0, -0.5])


def test_sweep_needs_finite_margins_and_an_equiv_coefficient(stemcell_design, pluripotent):
    # Without an equiv coefficient every margin would give the same table.
    text = pr.format_profile(pluripotent).splitlines()
    no_equiv = pr.parse_profile("\n".join(l for l in text if "day0_vs_day3" not in l))
    expr = pr.generate_dataset(stemcell_design, pluripotent, n_genes=300, n_planted=0,
                               seed=1).expression
    fitted = pr.fit_experiment(expr, stemcell_design, no_equiv)
    with pytest.raises(ValidationError, match="profile 'pluripotent' has no equiv coefficient"):
        sweep_from_fits(fitted, no_equiv, [0.1, 5.0])
    fitted = pr.fit_experiment(expr, stemcell_design, pluripotent)
    with pytest.raises(ValidationError, match=re.escape("must be > 0 and finite, got [0.5, inf]")):
        sweep_from_fits(fitted, pluripotent, [0.5, math.inf])


def test_sweep_reuses_single_fit(sweep_population, monkeypatch):
    design, profile, expr = sweep_population
    calls = []
    original = pr.fit_all

    def counting_fit_all(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr("profilerank.ranking.fit_all", counting_fit_all)
    pr.sensitivity_sweep(expr, design, profile, [0.5, 1.0, 1.5, 2.0])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# metadata and table plumbing
# ---------------------------------------------------------------------------


def test_rank_from_fits_metadata_and_fit_exclusions(triple):
    design, profile, model = triple
    rng = np.random.default_rng(28)
    values = rng.normal(0.0, 0.5, (4, model.n_arrays))
    values[2] = np.nan
    expr = pr.ExpressionMatrix(
        gene_ids=("a", "b", "dead", "d"),
        array_ids=design.array_ids,
        values=values,
    )
    fitted = pr.fit_experiment(expr, design, profile)
    table = rank_from_fits(fitted, profile)
    dead = [e for e in table.excluded if e.gene_id == "dead"]
    assert dead and dead[0].reason == "insufficient data"
    assert dead[0].u_values is None


def test_genes_without_a_usable_fit_are_excluded_last_in_row_order(triple):
    design, profile, model = triple
    rng = np.random.default_rng(29)
    values = rng.normal(0.0, 0.5, (6, model.n_arrays))
    values[1] = np.nan  # insufficient data
    values[3] *= 1e200  # its s2 overflows: a non-finite fit
    ids = ("a", "unfit", "c", "huge", "e", "f")
    expr = pr.ExpressionMatrix(gene_ids=ids, array_ids=design.array_ids, values=values)
    fitted = pr.fit_experiment(expr, design, profile)
    scores = gene_statistics(fitted, profile)
    assert [REASONS[code] for code in scores.reason[[1, 3]].tolist()] == [
        "insufficient data", "non-finite fit"]
    assert np.isnan(scores.u_values[[1, 3]]).all()
    table = rank_from_fits(fitted, profile, stats=scores)
    assert [e.gene_id for e in table.excluded][-2:] == ["unfit", "huge"]
    assert [e.u_values for e in table.excluded][-2:] == [None, None]


def test_sweep_from_fits_matches_sensitivity_sweep(sweep_population):
    design, profile, expr = sweep_population
    fitted = pr.fit_experiment(expr, design, profile)
    a = sweep_from_fits(fitted, profile, [0.5, 1.5])
    b = pr.sensitivity_sweep(expr, design, profile, [0.5, 1.5])
    assert a.epsilons == b.epsilons
    assert [t.included_ids for t in a.tables] == [t.included_ids for t in b.tables]
    assert a.stability == b.stability


def test_u_statistics_rejects_wrong_index(triple):
    _, profile, model = triple
    fit = make_fit([2.0, 3.0, 0.2], [0.5, 0.5, 0.1])
    mod = pr.ModerationResult(
        d0=4.0, s0_2=0.05,
        posterior_s2=np.array([math.nan, 0.05]),
        posterior_df=np.array([math.nan, 21.0]),
    )
    with pytest.raises(ValueError, match="no moderated variance"):
        pr.u_statistics(fit, mod, profile, model, 0)
