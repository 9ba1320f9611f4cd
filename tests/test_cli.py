import json
import math
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import profilerank as pr
from profilerank.cli import main
from profilerank.svgplot import fitted_relative_profile, render_profiles_svg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Bundled inputs plus a small seeded benchmark, generated via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    for src, dst in [
        ("conditions_stemcell.csv", "conditions.csv"),
        ("design_stemcell.csv", "design.csv"),
        ("pluripotent.profile", "pluripotent.profile"),
    ]:
        shutil.copy(pr.bundled_data_path(src), root / dst)
    rc = main([
        "synth",
        "--design", str(root / "design.csv"),
        "--conditions", str(root / "conditions.csv"),
        "--profile", str(root / "pluripotent.profile"),
        "--delta", "day6_vs_day9=1.5",
        "--genes", "600", "--planted", "8", "--seed", "11",
        "--out", str(root / "data"),
    ])
    assert rc == 0
    return root


def _rank_args(root, out, extra=()):
    return [
        "rank",
        "--data", str(root / "data" / "expression.csv"),
        "--design", str(root / "design.csv"),
        "--conditions", str(root / "conditions.csv"),
        "--profile", str(root / "pluripotent.profile"),
        "--delta", "day6_vs_day9=1.5",
        "--out", str(out),
        *extra,
    ]


def _read_truth(root):
    rows = (root / "data" / "truth.csv").read_text().splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, line.split(","))) for line in rows[1:]]


def test_rank_outputs_and_planted_top(workdir, tmp_path):
    out = tmp_path / "out"
    rc = main(_rank_args(workdir, out, ["--grid", "0.5,1,1.5,2"]))
    assert rc == 0
    for name in ("ranked.csv", "excluded.csv", "moderation.json",
                 "profiles.svg", "sensitivity.csv"):
        assert (out / name).is_file(), name

    truth = _read_truth(workdir)
    top_gene = next(r["gene_id"] for r in truth if r["role"] == "planted_top")
    ranked = (out / "ranked.csv").read_text().splitlines()
    header = ranked[0].split(",")
    assert header[:3] == ["rank", "gene_id", "U"]
    assert "U_1" in header and "gamma_1" in header and "se_3" in header
    assert header[-2:] == ["s2", "posterior_s2"]
    first = ranked[1].split(",")
    assert first[0] == "1" and first[1] == top_gene

    excl_header = (out / "excluded.csv").read_text().splitlines()[0]
    assert excl_header.startswith("gene_id,reason")


def test_moderation_json_contents(workdir, tmp_path):
    out = tmp_path / "out"
    assert main(_rank_args(workdir, out)) == 0
    payload = json.loads((out / "moderation.json").read_text())
    assert payload["profile"] == "pluripotent"
    assert payload["alpha"] == 0.05
    assert payload["margins"]["day6_vs_day9"] == "pos:1.5"
    assert isinstance(payload["d0"], float) and payload["d0"] > 0
    assert 0.0 < payload["s0_2"] < 1.0
    assert payload["n_included"] + payload["n_excluded"] == 600


def test_sensitivity_csv_nesting(workdir, tmp_path):
    out = tmp_path / "out"
    assert main(_rank_args(workdir, out, ["--grid", "0.5,1,1.5,2"])) == 0
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "gene_id,rank_eps_0.5,rank_eps_1,rank_eps_1.5,rank_eps_2"
    for line in lines[1:]:
        ranks = line.split(",")[1:]
        present = [bool(cell) for cell in ranks]
        # once included, included at every wider margin
        for a, b in zip(present, present[1:]):
            assert (not a) or b


RANKED_HEADER = (
    "rank,gene_id,U,U_1,U_2,U_3,gamma_1,gamma_2,gamma_3,"
    "se_1,se_2,se_3,s2,posterior_s2"
)


def test_headers_when_no_gene_is_included(workdir, tmp_path):
    out = tmp_path / "out"
    assert main(_rank_args(workdir, out, ["--epsilon", "0.001"])) == 0
    assert json.loads((out / "moderation.json").read_text())["n_included"] == 0
    assert (out / "ranked.csv").read_text().splitlines() == [RANKED_HEADER]
    excluded = (out / "excluded.csv").read_text().splitlines()
    assert excluded[0] == "gene_id,reason,U_1,U_2,U_3"
    assert len(excluded) == 1 + 600


def test_sensitivity_ranked_tables_share_one_header(workdir, tmp_path):
    out = tmp_path / "sens"
    rc = main([
        "sensitivity",
        "--data", str(workdir / "data" / "expression.csv"),
        "--design", str(workdir / "design.csv"),
        "--conditions", str(workdir / "conditions.csv"),
        "--profile", str(workdir / "pluripotent.profile"),
        "--delta", "day6_vs_day9=1.5",
        "--grid", "0.001,1,2",
        "--out", str(out),
    ])
    assert rc == 0
    tables = sorted(out.glob("ranked_eps_*.csv"))
    assert len(tables) == 3
    lines = {p.name: p.read_text().splitlines() for p in tables}
    assert len(lines["ranked_eps_0.001.csv"]) == 1  # nobody included
    assert len(lines["ranked_eps_2.csv"]) > 1
    assert {rows[0] for rows in lines.values()} == {RANKED_HEADER}


def test_sensitivity_subcommand(workdir, tmp_path):
    out = tmp_path / "sens"
    rc = main([
        "sensitivity",
        "--data", str(workdir / "data" / "expression.csv"),
        "--design", str(workdir / "design.csv"),
        "--conditions", str(workdir / "conditions.csv"),
        "--profile", str(workdir / "pluripotent.profile"),
        "--delta", "day6_vs_day9=1.5",
        "--grid", "0.5,1",
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "sensitivity.csv").is_file()
    assert (out / "ranked_eps_0.5.csv").is_file()
    assert (out / "ranked_eps_1.csv").is_file()


def test_missing_design_exits_2(workdir, tmp_path, capsys):
    rc = main([
        "rank",
        "--data", str(workdir / "data" / "expression.csv"),
        "--design", str(workdir / "missing_design.csv"),
        "--conditions", str(workdir / "conditions.csv"),
        "--profile", str(workdir / "pluripotent.profile"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing_design.csv" in err


def test_malformed_expression_exits_3(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    good = (workdir / "data" / "expression.csv").read_text().splitlines()
    cells = good[2].split(",")
    cells[3] = "wat"
    bad.write_text("\n".join([good[0], good[1], ",".join(cells)]) + "\n")
    rc = main([
        "rank",
        "--data", str(bad),
        "--design", str(workdir / "design.csv"),
        "--conditions", str(workdir / "conditions.csv"),
        "--profile", str(workdir / "pluripotent.profile"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "bad.csv:3" in err


def test_bad_flag_values_exit_2(workdir, tmp_path):
    assert main(_rank_args(workdir, tmp_path / "o", ["--epsilon", "-1"])) == 2
    assert main(_rank_args(workdir, tmp_path / "o", ["--delta", "nope"])) == 2
    assert main(_rank_args(workdir, tmp_path / "o", ["--top-n", "0"])) == 2
    assert main(_rank_args(workdir, tmp_path / "o", ["--grid", "a,b"])) == 2


def test_validate_subcommand(workdir, capsys):
    rc = main([
        "validate",
        "--design", str(workdir / "design.csv"),
        "--conditions", str(workdir / "conditions.csv"),
        "--profile", str(workdir / "pluripotent.profile"),
        "--data", str(workdir / "data" / "expression.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all inputs valid" in out
    assert "residual df 17" in out


def test_csv_number_formatting():
    from profilerank.cli import _fmt

    assert _fmt(0.123456789) == "0.123457"
    assert _fmt(1234567.0) == "1.23457e+06"
    assert _fmt(float("nan")) == "NA"
    assert _fmt(None) == "NA"
    assert _fmt(2.0) == "2"


def test_bad_alpha_exits_2(workdir, tmp_path):
    assert main(_rank_args(workdir, tmp_path / "o", ["--alpha", "0.9"])) == 2


def test_moderation_json_serializes_infinite_prior(tmp_path):
    from profilerank.cli import RunConfig, _write_moderation_json
    from profilerank.ranking import FittedExperiment

    fitted = FittedExperiment(
        design=None, model=None, fits=[],
        moderation=pr.ModerationResult(
            d0=math.inf, s0_2=0.07,
            posterior_s2=np.array([0.07]),
            posterior_df=np.array([math.inf]),
        ),
    )
    table = pr.rank_genes([], metadata={"profile": "x"})
    config = RunConfig(
        data_path="d", design_path="d", conditions_path="c",
        profile_path="p", out_dir=str(tmp_path),
    )
    path = tmp_path / "moderation.json"
    _write_moderation_json(fitted, table, config, path)
    payload = json.loads(path.read_text())
    assert payload["d0"] == "inf"
    assert payload["s0_2"] == 0.07


def test_validate_bundled_sox2_profile(capsys):
    rc = main([
        "validate",
        "--design", str(pr.bundled_data_path("design_stemcell.csv")),
        "--conditions", str(pr.bundled_data_path("conditions_stemcell.csv")),
        "--profile", str(pr.bundled_data_path("sox2.profile")),
    ])
    assert rc == 0
    assert "profile sox2" in capsys.readouterr().out


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "profilerank", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rank" in proc.stdout and "synth" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "profilerank", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"profilerank {pr.__version__}"


# ---------------------------------------------------------------------------
# fitted relative profiles and SVG
# ---------------------------------------------------------------------------


def test_fitted_relative_profile_worked_example(pluripotent, stemcell_model):
    fit = pr.GeneFit(
        gene_id="g", status="ok",
        gamma_hat=np.array([1.0, 2.0, 0.0]),
        s2=0.05, df=17,
        unscaled_se=np.array([0.4, 0.4, 0.4]), n_used=20,
    )
    rel = fitted_relative_profile(fit, pluripotent, stemcell_model)
    assert rel[0] == 0.0
    assert rel.tolist() == [0.0, 0.0, -1.0, -3.0]


def test_fitted_relative_profile_zero_gamma(pluripotent, stemcell_model):
    fit = pr.GeneFit(
        gene_id="g", status="ok", gamma_hat=np.zeros(3), s2=0.05, df=17,
        unscaled_se=np.full(3, 0.4), n_used=20,
    )
    rel = fitted_relative_profile(fit, pluripotent, stemcell_model)
    assert rel.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_fitted_relative_profile_matches_direct_product(pluripotent, stemcell_model):
    rng = np.random.default_rng(31)
    for _ in range(20):
        gamma = rng.normal(0, 2, 3)
        fit = pr.GeneFit(
            gene_id="g", status="ok", gamma_hat=gamma, s2=0.05, df=17,
            unscaled_se=np.full(3, 0.4), n_used=20,
        )
        rel = fitted_relative_profile(fit, pluripotent, stemcell_model)
        full = np.concatenate([[0.0], gamma])
        mu = pluripotent.basis @ full
        assert np.allclose(rel, mu - mu[0], atol=1e-12)
        assert rel[0] == 0.0


def test_planted_gene_shape(workdir, stemcell_design, analysis_profile):
    expr = pr.read_expression_csv(
        workdir / "data" / "expression.csv", stemcell_design.array_ids
    )
    fitted, table = pr.analyze(expr, stemcell_design, analysis_profile)
    truth = _read_truth(workdir)
    top_gene = next(r["gene_id"] for r in truth if r["role"] == "planted_top")
    fit = next(f for f in fitted.fits if f.gene_id == top_gene)
    rel = fitted_relative_profile(fit, analysis_profile, fitted.model)
    day0, day3, day6, day9 = rel
    assert day0 == 0.0
    assert abs(day3) < 0.5          # equal expression on days 0 and 3
    assert day6 < min(day0, day3) - 1.0   # day 6 clearly below the early days
    assert day9 < day6 - 1.0              # day 9 lowest


def test_svg_valid_xml_with_exact_polyline_count(workdir, tmp_path):
    out = tmp_path / "out"
    assert main(_rank_args(workdir, out, ["--top-n", "6"])) == 0
    svg = (out / "profiles.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 6


def test_svg_render_deterministic():
    genes = [
        ("a", 1, np.array([0.0, -0.1, -1.0, -2.0])),
        ("b", 2, np.array([0.0, 0.2, -0.5, -1.5])),
    ]
    one = render_profiles_svg(genes, ("d0", "d3", "d6", "d9"), "t")
    two = render_profiles_svg(genes, ("d0", "d3", "d6", "d9"), "t")
    assert one == two
    assert one.count("<polyline") == 2


def test_svg_handles_empty_gene_list():
    svg = render_profiles_svg([], ("d0", "d3"), "empty")
    ET.fromstring(svg)
    assert svg.count("<polyline") == 0
