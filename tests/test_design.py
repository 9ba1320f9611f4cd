import inspect
import itertools
import re
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profilerank as pr
from profilerank.design import RANK_TOLERANCE, least_squares_operators
from profilerank.errors import ValidationError
from profilerank.special import trigamma_inverse


def make_design(conditions, pairs):
    arrays = tuple(
        pr.ArrayComparison(array_id=f"a{i:02d}", cy3=c3, cy5=c5)
        for i, (c3, c5) in enumerate(pairs)
    )
    return pr.ComparisonDesign(conditions=tuple(conditions), arrays=arrays)


def _profile(conditions, columns, constraints, name="p"):
    return pr.validate_profile(
        pr.ProfileSpec.from_columns(name, conditions, columns, constraints)
    )


# ---------------------------------------------------------------------------
# build_comparison_matrix
# ---------------------------------------------------------------------------


def test_single_comparison_row():
    design = make_design(["d0", "d3", "d6", "d9"], [("d0", "d3")])
    xstar = pr.build_comparison_matrix(design)
    assert xstar.values.tolist() == [[-1.0, 1.0, 0.0, 0.0]]


def test_stemcell_design_shape_and_row_sums(stemcell_xstar):
    assert stemcell_xstar.values.shape == (20, 4)
    assert np.all(stemcell_xstar.values.sum(axis=1) == 0.0)
    # exactly one +1 and one -1 per row
    assert np.all((stemcell_xstar.values == 1).sum(axis=1) == 1)
    assert np.all((stemcell_xstar.values == -1).sum(axis=1) == 1)
    # five comparisons, each made four times (twice per direction)
    patterns = {tuple(row) for row in stemcell_xstar.values}
    assert len(patterns) == 10


def test_empty_design_rejected():
    with pytest.raises(ValidationError):
        make_design(["a", "b"], [])


def test_same_dye_labels_rejected():
    with pytest.raises(ValidationError, match="must differ"):
        make_design(["a", "b"], [("a", "a")])


def test_unknown_condition_rejected():
    with pytest.raises(ValidationError, match="unknown cy5"):
        make_design(["a", "b"], [("a", "c")])


def test_duplicate_array_ids_rejected():
    arrays = (
        pr.ArrayComparison(array_id="x", cy3="a", cy5="b"),
        pr.ArrayComparison(array_id="x", cy3="b", cy5="a"),
    )
    with pytest.raises(ValidationError, match="duplicate array_id"):
        pr.ComparisonDesign(conditions=("a", "b"), arrays=arrays)


def test_bad_label_rejected():
    with pytest.raises(ValidationError, match="invalid condition label"):
        make_design(["a b", "c"], [("a b", "c")])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rows_always_sum_to_zero(data):
    n_cond = data.draw(st.integers(2, 6))
    conditions = [f"c{i}" for i in range(n_cond)]
    n_arr = data.draw(st.integers(1, 12))
    pairs = []
    for _ in range(n_arr):
        c3 = data.draw(st.sampled_from(conditions))
        c5 = data.draw(st.sampled_from([c for c in conditions if c != c3]))
        pairs.append((c3, c5))
    xstar = pr.build_comparison_matrix(make_design(conditions, pairs))
    assert np.all(xstar.values.sum(axis=1) == 0.0)


# ---------------------------------------------------------------------------
# compose_model_matrix
# ---------------------------------------------------------------------------


def test_stemcell_composition(stemcell_model):
    assert stemcell_model.x.shape == (20, 3)
    assert stemcell_model.rank == 3
    assert stemcell_model.residual_df == 17
    assert stemcell_model.dropped_coefficients == (0,)
    assert stemcell_model.coefficient_indices == (1, 2, 3)


def _exact_rank_oracle(matrix):
    # Gaussian elimination over Fractions, written independently of the
    # library: row-echelon form, count pivots.
    rows = [[Fraction(v).limit_denominator(10**12) for v in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_stemcell_rank_matches_elimination_oracle(stemcell_model):
    assert _exact_rank_oracle(stemcell_model.x.tolist()) == 3


def test_composed_row_for_day0_day3_comparison(pluripotent):
    design = make_design(
        ["day0", "day3", "day6", "day9"],
        [("day0", "day3"), ("day0", "day6"), ("day0", "day9"), ("day3", "day6"),
         ("day6", "day9")],
    )
    model = pr.compose_model_matrix(pr.build_comparison_matrix(design), pluripotent)
    # cy3=day0, cy5=day3: the early criteria cancel, only the day0-day3
    # split survives with weight -1.
    assert model.x[0].tolist() == [0.0, 0.0, -1.0]


def test_zero_column_with_constraint_is_an_error():
    profile = _profile(
        ["a", "b"],
        [("lvl", ["1", "0"]), ("sum", ["1", "1"])],
        [pr.Constraint.positive_above(0.0), pr.Constraint.positive_above(0.0)],
    )
    design = make_design(["a", "b"], [("a", "b")])
    with pytest.raises(ValidationError, match="constrained coefficient unestimable"):
        pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)


def test_unconstrained_zero_column_is_dropped():
    profile = _profile(
        ["a", "b"],
        [("sum", ["1", "1"]), ("diff", ["0", "1"])],
        [pr.Constraint.unconstrained(), pr.Constraint.positive_above(0.0)],
    )
    design = make_design(["a", "b"], [("a", "b"), ("b", "a"), ("a", "b")])
    model = pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)
    assert model.dropped_coefficients == (0,)
    assert model.x.shape == (3, 1)
    assert model.residual_df == 2


def test_rank_deficient_composition_rejected():
    # Two independent basis columns collapse to proportional model columns
    # when only one comparison is ever made.
    profile = _profile(
        ["a", "b", "c"],
        [("pa", ["1", "0", "0"]), ("pb", ["0", "1", "0"])],
        [pr.Constraint.positive_above(0.0), pr.Constraint.positive_above(0.0)],
    )
    design = make_design(["a", "b", "c"], [("a", "b"), ("a", "b"), ("b", "a")])
    with pytest.raises(ValidationError, match="not identifiable.*has rank 1 < 2 columns"):
        pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)


def test_no_residual_df_rejected():
    profile = _profile(
        ["a", "b"],
        [("diff", ["0", "1"])],
        [pr.Constraint.positive_above(0.0)],
    )
    design = make_design(["a", "b"], [("a", "b")])
    with pytest.raises(ValidationError, match="residual degrees of freedom"):
        pr.compose_model_matrix(pr.build_comparison_matrix(design), profile)


def test_hand_built_model_matrix_derives_rank_df_and_se(stemcell_model):
    bare = pr.ModelMatrix(
        x=np.array(stemcell_model.x),
        coefficient_indices=stemcell_model.coefficient_indices,
        dropped_coefficients=stemcell_model.dropped_coefficients,
    )
    assert (bare.rank, bare.residual_df) == (stemcell_model.rank, stemcell_model.residual_df)
    assert (bare.rank, bare.residual_df) == (3, 17)
    assert np.array_equal(bare.unscaled_se, stemcell_model.unscaled_se)
    assert np.array_equal(bare.unscaled_se, least_squares_operators(bare.x[None])[2][0])
    with pytest.raises(ValueError):
        bare.unscaled_se[0] = 1.0


@pytest.mark.parametrize(
    "x, message",
    [
        ([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]],
         "profile not identifiable under this design: retained model matrix "
         "has rank 1 < 2 columns"),
        ([[1.0, 0.0, 2.0]], "retained model matrix has rank 1 < 3 columns"),
        ([[1.0, 0.0], [0.0, 1.0]],
         "insufficient residual degrees of freedom: 2 arrays for 2 coefficients"),
    ],
    ids=["rank-deficient", "fewer-rows-than-columns", "zero-df"],
)
def test_hand_built_model_matrix_checks_rank_and_df(x, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        pr.ModelMatrix(x=np.array(x))


def test_constructors_take_only_inputs():
    # What the code derives (rank, residual df, unscaled_se, ok, se, the
    # parsed basis, the test-bearing indices) is not a constructor argument.
    def init(cls):
        return [f.name for f in fields(cls) if f.init]

    assert init(pr.ComparisonMatrix) == ["values", "conditions"]
    assert init(pr.ModelMatrix) == ["x", "coefficient_indices", "dropped_coefficients"]
    assert init(pr.ProfileSpec) == [
        "name", "condition_labels", "coefficient_names", "basis_text", "constraints"
    ]
    assert init(pr.FitTable) == ["gene_ids", "gamma", "unscaled_se", "s2", "df", "n_used"]
    assert init(pr.FittedExperiment) == ["model", "fits", "moderation"]
    assert list(inspect.signature(trigamma_inverse).parameters) == ["x"]


def _svd_rank(x):
    s = np.linalg.svd(x, compute_uv=False)
    return int(np.sum(s > RANK_TOLERANCE * s[0])) if s.size and s[0] else 0


def _operator_cases(stemcell_design, model):
    """Every missingness pattern of 2000 synthetic genes with 5% of spots
    missing, plus hand-made rank-deficient and too-short matrices."""
    profile = pr.validate_profile(pr.bundled_profile("pluripotent"))
    values = pr.generate_dataset(
        stemcell_design, profile, n_genes=2000, n_planted=5, seed=8
    ).expression.values.copy()
    rng = np.random.default_rng([8, 1])
    values.flat[rng.choice(values.size, size=values.size // 20, replace=False)] = np.nan
    masks = np.unique(np.isfinite(values), axis=0)
    assert len(masks) > 100
    cases = [model.x[mask] for mask in masks]
    col = model.x[:, :1]
    # The rank-deficient matrices have the shapes of missingness patterns
    # (all arrays, all but one), so that they share a stack with full-rank ones.
    cases += [
        np.hstack([col, 2.0 * col, model.x[:, 1:2]]),  # proportional columns
        np.hstack([col, col + 1e-14 * model.x[:, 1:2], model.x[:, 2:]]),  # rank 2 under tolerance
        np.zeros((model.n_arrays - 1, model.n_coefficients)),
        model.x[:2],  # fewer rows than columns
        model.x[[0, 5, 10]],  # as many rows as columns
    ]
    return cases


def _assert_operator_is_pinv(x, pinv, unscaled_se):
    reference = np.linalg.pinv(x)
    assert np.array_equal(pinv, reference)
    assert np.array_equal(unscaled_se, np.sqrt(np.diag(reference @ reference.T)))


def test_least_squares_operator_matches_pinv_and_rank(stemcell_design, stemcell_model):
    cases = _operator_cases(stemcell_design, stemcell_model)
    n_deficient = 0
    for x in cases:
        (rank,), pinv, unscaled_se = least_squares_operators(x[None])
        assert rank == _svd_rank(x), x
        assert len(pinv) == len(unscaled_se) == (rank == x.shape[1])
        if rank < x.shape[1]:
            n_deficient += 1
            continue
        _assert_operator_is_pinv(x, pinv[0], unscaled_se[0])
    assert n_deficient >= 4

    # The same matrices, stacked by shape: one rank per matrix, and the
    # operators of the full-rank ones, bit for bit, with no warning from
    # the singular values of the rank-deficient ones.
    by_shape = {}
    for x in cases:
        by_shape.setdefault(x.shape, []).append(x)
    mixed = 0
    for xs in by_shape.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank, pinv, unscaled_se = least_squares_operators(np.stack(xs))
        assert rank.tolist() == [_svd_rank(x) for x in xs]
        full_rank = rank == xs[0].shape[1]
        assert len(pinv) == len(unscaled_se) == full_rank.sum()
        for x, *operator in zip(itertools.compress(xs, full_rank), pinv, unscaled_se):
            _assert_operator_is_pinv(x, *operator)
        mixed += 0 < full_rank.sum() < len(xs)
    assert mixed >= 2


def test_condition_mismatch_rejected(pluripotent):
    design = make_design(["day0", "day3", "day9", "day6"],
                         [("day0", "day3"), ("day3", "day6"), ("day6", "day9")])
    with pytest.raises(ValidationError, match="do not match design conditions"):
        pr.compose_model_matrix(pr.build_comparison_matrix(design), pluripotent)


def _triple_loop_product(a, b):
    out = [[0.0] * len(b[0]) for _ in range(len(a))]
    for i in range(len(a)):
        for j in range(len(b[0])):
            acc = 0.0
            for k in range(len(b)):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_composition_equals_naive_product(data):
    n_cond = data.draw(st.integers(2, 4))
    conditions = [f"c{i}" for i in range(n_cond)]
    entry = st.sampled_from(["1", "0", "-1", "0.5", "-0.5", "2"])
    n_coef = data.draw(st.integers(1, min(3, n_cond)))
    columns = [
        (f"b{j}", [data.draw(entry) for _ in range(n_cond)]) for j in range(n_coef)
    ]
    n_arr = data.draw(st.integers(n_coef + 1, 10))
    pairs = []
    for _ in range(n_arr):
        c3 = data.draw(st.sampled_from(conditions))
        c5 = data.draw(st.sampled_from([c for c in conditions if c != c3]))
        pairs.append((c3, c5))
    try:
        profile = _profile(
            conditions, columns, [pr.Constraint.unconstrained()] * (n_coef - 1)
            + [pr.Constraint.positive_above(0.0)]
        )
        design = make_design(conditions, pairs)
        xstar = pr.build_comparison_matrix(design)
        model = pr.compose_model_matrix(xstar, profile)
    except ValidationError:
        return  # degenerate draw; composition correctly refused it
    full = _triple_loop_product(xstar.values.tolist(), profile.basis.tolist())
    expected = [
        [row[j] for j in model.coefficient_indices] for row in full
    ]
    assert np.allclose(model.x, expected, atol=0.0)


def test_all_ones_basis_column_always_dropped(stemcell_xstar, pluripotent):
    model = pr.compose_model_matrix(stemcell_xstar, pluripotent)
    assert 0 in model.dropped_coefficients
    assert pluripotent.coefficient_names[0] == "baseline"


def test_array_permutation_permutes_rows_and_preserves_fits(stemcell_design, pluripotent):
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(stemcell_design.arrays))
    permuted = pr.ComparisonDesign(
        conditions=stemcell_design.conditions,
        arrays=tuple(stemcell_design.arrays[i] for i in perm),
    )
    m1 = pr.compose_model_matrix(pr.build_comparison_matrix(stemcell_design), pluripotent)
    m2 = pr.compose_model_matrix(pr.build_comparison_matrix(permuted), pluripotent)
    assert np.array_equal(m1.x[perm], m2.x)
    y = rng.normal(0, 1, 20)
    f1 = pr.fit_gene(y, m1)
    f2 = pr.fit_gene(y[perm], m2)
    assert np.allclose(f1.gamma_hat, f2.gamma_hat, rtol=0, atol=1e-12)
    assert f1.s2 == pytest.approx(f2.s2, rel=1e-12)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------


def test_read_conditions_rejects_bad_label(tmp_path):
    p = tmp_path / "conds.csv"
    p.write_text("day0\nbad label\n")
    with pytest.raises(ValidationError, match="conds.csv:2"):
        pr.read_conditions_csv(p)


def _read_comments_only_conditions(tmp_path):
    path = tmp_path / "conds.csv"
    path.write_text("# day0\n\n# day3\n")
    return pr.read_conditions_csv(path)


@pytest.mark.parametrize(
    "build, message",
    [
        (_read_comments_only_conditions, "conds.csv: no condition labels found"),
        (lambda tmp_path: make_design(["day0"], [("day0", "day0")]),
         "a design needs at least two conditions"),
    ],
    ids=["conditions-only-comments", "one-condition"],
)
def test_too_few_conditions_rejected(tmp_path, build, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(tmp_path)


def test_read_design_requires_exact_header(tmp_path):
    p = tmp_path / "design.csv"
    p.write_text("id,cy3,cy5,group\nx,a,b,r\n")
    with pytest.raises(ValidationError, match="expected header"):
        pr.read_design_csv(p, ("a", "b"))


def test_read_design_wrong_field_count(tmp_path):
    p = tmp_path / "design.csv"
    p.write_text("array_id,cy3,cy5,replicate_group\nx,a,b\n")
    with pytest.raises(ValidationError, match="design.csv:2"):
        pr.read_design_csv(p, ("a", "b"))


def test_read_design_names_a_record_by_its_first_line(tmp_path):
    # The quoted replicate group of line 2 holds a line feed, so the next
    # record is the third but starts on line 4.
    p = tmp_path / "design.csv"
    p.write_text('array_id,cy3,cy5,replicate_group\nx,a,b,"r\n1"\ny,a,c,r\n')
    with pytest.raises(ValidationError, match=re.escape("design.csv:4: array 'y': unknown cy5")):
        pr.read_design_csv(p, ("a", "b"))


def test_read_design_skips_spaces_before_an_opening_quote(tmp_path, stemcell_design):
    # A quoted field after spaces reads as the same field unquoted.
    lines = pr.bundled_data_path("design_stemcell.csv").read_text().splitlines(keepends=True)
    assert lines[1] == "p21_1,day3,day0,p21\n"
    lines[1] = ' "p21_1",  "day3",day0, "p21"\n'
    p = tmp_path / "design.csv"
    p.write_text("".join(lines))
    design = pr.read_design_csv(p, stemcell_design.conditions)
    assert design.arrays == stemcell_design.arrays


def test_read_design_roundtrip(tmp_path, stemcell_design):
    # the bundled file parses to the same 20-array design
    assert len(stemcell_design.arrays) == 20
    groups = {a.replicate_group for a in stemcell_design.arrays}
    assert groups == {"p21", "p22", "p23", "p24"}
