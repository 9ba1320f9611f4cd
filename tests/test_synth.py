import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profilerank as pr
from profilerank import fitting, synth
from profilerank.errors import ValidationError
from profilerank.profiles import BUNDLED_PROFILES
from profilerank.synth import (
    ROLE_BACKGROUND,
    ROLE_CHALLENGER,
    ROLE_TOP,
    write_expression_csv,
    write_truth_csv,
)

import oracles


@pytest.fixture(scope="module")
def small_synth(stemcell_design, analysis_profile):
    return pr.generate_dataset(
        stemcell_design, analysis_profile, n_genes=300, n_planted=6, seed=5
    )


def test_same_seed_same_bits(stemcell_design, analysis_profile):
    a = pr.generate_dataset(stemcell_design, analysis_profile, 120, 4, seed=9)
    b = pr.generate_dataset(stemcell_design, analysis_profile, 120, 4, seed=9)
    assert np.array_equal(a.expression.values, b.expression.values)
    assert a.truth == b.truth


def test_different_seed_different_data(stemcell_design, analysis_profile):
    a = pr.generate_dataset(stemcell_design, analysis_profile, 60, 2, seed=1)
    b = pr.generate_dataset(stemcell_design, analysis_profile, 60, 2, seed=2)
    assert not np.array_equal(a.expression.values, b.expression.values)


def test_written_files_byte_identical(tmp_path, small_synth):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_expression_csv(small_synth.expression, pa)
    write_expression_csv(small_synth.expression, pb)
    assert pa.read_bytes() == pb.read_bytes()
    ta, tb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    write_truth_csv(small_synth, ta)
    write_truth_csv(small_synth, tb)
    assert ta.read_bytes() == tb.read_bytes()


def test_expression_csv_roundtrip(tmp_path, small_synth, stemcell_design):
    path = tmp_path / "expr.csv"
    write_expression_csv(small_synth.expression, path)
    back = pr.read_expression_csv(path, stemcell_design.array_ids)
    assert back.gene_ids == small_synth.expression.gene_ids
    assert np.array_equal(back.values, small_synth.expression.values)


def test_roles_and_counts(small_synth):
    roles = [t.role for t in small_synth.truth if t.planted]
    assert roles.count(ROLE_TOP) == 1
    assert roles.count(ROLE_CHALLENGER) == 1
    assert len(roles) == 6
    assert sum(not t.planted for t in small_synth.truth) == 294


def test_no_planted_rows_when_zero(stemcell_design, analysis_profile):
    result = pr.generate_dataset(
        stemcell_design, analysis_profile, 50, 0, seed=3
    )
    assert all(not t.planted for t in result.truth)
    assert all(t.role == ROLE_BACKGROUND for t in result.truth)


def _satisfies(constraint, value):
    if constraint.kind == "pos":
        return value > constraint.value
    if constraint.kind == "equiv":
        return abs(value) < constraint.value
    return True


def test_truth_gammas_honor_roles(small_synth, analysis_profile, stemcell_model):
    constraints = [
        analysis_profile.constraints[j]
        for j in stemcell_model.coefficient_indices
    ]
    for row in small_synth.truth:
        verdicts = [
            _satisfies(c, g) for c, g in zip(constraints, row.gamma)
            if c.is_test_bearing
        ]
        if row.planted:
            assert all(verdicts), row
        else:
            assert not all(verdicts), row


def test_top_gene_margins(small_synth, analysis_profile, stemcell_model):
    top = next(t for t in small_synth.truth if t.role == ROLE_TOP)
    constraints = [
        analysis_profile.constraints[j]
        for j in stemcell_model.coefficient_indices
    ]
    for c, g in zip(constraints, top.gamma):
        if c.kind == "pos":
            assert g == pytest.approx(c.value + 3.0)
        elif c.kind == "equiv":
            assert g == 0.0


def test_invalid_parameters_rejected(stemcell_design, analysis_profile):
    with pytest.raises(ValidationError, match="n_planted"):
        pr.generate_dataset(stemcell_design, analysis_profile, 10, 11, seed=1)
    with pytest.raises(ValidationError, match="n_genes"):
        pr.generate_dataset(stemcell_design, analysis_profile, 0, 0, seed=1)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        pr.generate_dataset(stemcell_design, analysis_profile, 10, 2, seed=-1)
    # Satisfied equivalence coefficients are drawn up to 0.7 in magnitude.
    narrow = analysis_profile.with_margins(epsilon=0.6)
    with pytest.raises(ValidationError, match="upper bound 0.7 must stay below the smallest "
                       "equivalence margin 0.6"):
        pr.generate_dataset(stemcell_design, narrow, 10, 2, seed=1)


def test_sigma2_prior_shape(stemcell_design, analysis_profile):
    result = pr.generate_dataset(
        stemcell_design, analysis_profile, 4000, 0, seed=8
    )
    sigma2 = np.array([t.sigma2 for t in result.truth])
    # 1/sigma2 ~ chisq(d0)/(d0*s0_2): mean of 1/sigma2 is 1/s0_2
    assert np.mean(1.0 / sigma2) == pytest.approx(1.0 / 0.05, rel=0.05)


def _free_trend_profile():
    # A retained free coefficient: unlike the bundled profiles' baseline,
    # trend does not cancel in a two-colour comparison.
    return pr.ProfileSpec.from_columns(
        "free_trend", ("day0", "day3", "day6", "day9"),
        [("trend", ["0", "1", "2", "3"]), ("early_vs_day6", ["1", "1", "0", "0"]),
         ("day0_vs_day3", ["0.5", "-0.5", "0", "0"])],
        [pr.Constraint.unconstrained(), pr.Constraint.positive_above(),
         pr.Constraint.equivalent_zero(1.0)],
    )


def _one_test_profile():
    # One test-bearing coefficient: a background gene's single coin misses
    # half the time, and then rng.integers picks the coefficient it violates.
    return pr.ProfileSpec.from_columns(
        "one_test", ("day0", "day3", "day6", "day9"),
        [("trend", ["0", "1", "2", "3"]), ("day0_vs_day3", ["0.5", "-0.5", "0", "0"])],
        [pr.Constraint.unconstrained(), pr.Constraint.equivalent_zero(1.0)],
    )


@pytest.mark.parametrize(
    "profile, expression_sha256, truth_sha256",
    [
        (None, "8b404032adc31abc0487564508ac1a42584e9936b9933b44687de0e3f1fe2fe3",
         "8e2946c8cc8eb410046896d48fb3b4f6be7676b381003d123f566421989a865b"),
        (_free_trend_profile(),
         "0cddc9e543805acc6dda3a68ce582b277ba20813a271d2b8ca92d65d6a2d161a",
         "eb2505481022c566d39fa0d8a3e3d604b8713288f01607db9ff5d2d3a89be545"),
        (_one_test_profile(),
         "d29ebffde0d9f50ba7ddb31313e6f6f2d8fb9248a427c76424d4fa528cf571dd",
         "b85f22baf1798335bb1b6af85d15c26b2067f3c2a94ec86df21d4a0098f70e4f"),
    ],
    ids=["analysis-profile", "retained-free-coefficient", "one-test-bearing-coefficient"],
)
def test_written_files_keep_their_bytes(tmp_path, stemcell_design, analysis_profile, profile,
                                        expression_sha256, truth_sha256):
    # The digests pin the seeded stream: any change to the order or number
    # of draws, or to how a value is written, changes them.
    result = pr.generate_dataset(stemcell_design, profile or analysis_profile,
                                 n_genes=2000, n_planted=20, seed=42)
    write_expression_csv(result.expression, tmp_path / "expression.csv")
    write_truth_csv(result, tmp_path / "truth.csv")
    assert "truth" not in vars(result)  # no TruthRow was built
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("expression.csv", "truth.csv")}
    assert digest == {"expression.csv": expression_sha256, "truth.csv": truth_sha256}


def test_generate_dataset_keeps_the_truth_as_columns(stemcell_design, analysis_profile):
    pr.generate_dataset(stemcell_design, analysis_profile, 50, 2, seed=1)  # warm caches
    tracemalloc.start()
    try:
        result = pr.generate_dataset(stemcell_design, analysis_profile, 5000, 20, seed=1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The values, the gene ids and three small columns take about 1.65x the
    # values; one TruthRow per gene would take it past 3x.
    assert retained < 2.0 * result.expression.values.nbytes
    assert result.gamma.shape == (5000, 3) and result.sigma2.shape == (5000,)
    assert result.truth[7].gamma == tuple(result.gamma[7].tolist())
    assert "truth" in vars(result)


_PROFILES = (*map(pr.bundled_profile, BUNDLED_PROFILES), _free_trend_profile(),
             _one_test_profile())


@settings(max_examples=150, deadline=None)
@given(profile=st.sampled_from(_PROFILES), seed=st.integers(min_value=0),
       sizes=st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       block=st.integers(1, 64) | st.just(fitting._BLOCK_ROWS))
def test_generate_dataset_equals_the_per_gene_draws(stemcell_design, profile, seed, sizes,
                                                    block):
    # Small blocks put planted genes and block ends anywhere in the draws.
    n_genes, n_planted = sizes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_BLOCK_ROWS", block)
        result = pr.generate_dataset(stemcell_design, profile, n_genes, n_planted, seed)
    roles, gamma, sigma2, values = oracles.synth_columns(stemcell_design, profile, n_genes,
                                                         n_planted, seed)
    assert result.roles == roles
    # Bits, not values: -0.0 and 0.0 write different bytes.
    for ours, theirs in ((result.gamma, gamma), (result.sigma2, sigma2),
                         (result.expression.values, values)):
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))


def test_generate_dataset_builds_the_noise_in_place(monkeypatch, stemcell_design,
                                                    analysis_profile):
    pr.generate_dataset(stemcell_design, analysis_profile, 50, 2, seed=1)  # warm caches
    drawn = []

    def matrix(**fields):  # the peak of everything before the gene id checks
        drawn.append(tracemalloc.get_traced_memory()[1])
        return pr.ExpressionMatrix(**fields)

    monkeypatch.setattr(synth, "ExpressionMatrix", matrix)
    tracemalloc.start()
    try:
        result = pr.generate_dataset(stemcell_design, analysis_profile, 20_000, 20, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = result.expression.values.nbytes
    # Measured: 1.66x the values up to the gene id checks and 2.47x in all
    # (their set of ids is the rest). Scaling and shifting the noise as one
    # matrix instead of in row blocks takes the first to 2.25x, and drawing
    # the coefficients' doubles for all genes before any arithmetic to 1.82x.
    assert drawn[0] < 1.75 * values
    assert peak < 2.6 * values
