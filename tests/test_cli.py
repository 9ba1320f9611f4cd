import csv
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


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_expression_token_exits_3(workdir, tmp_path, capsys, token):
    bad = tmp_path / "bad.csv"
    lines = (workdir / "data" / "expression.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = token
    bad.write_text("\n".join([lines[0], lines[1], ",".join(cells), *lines[3:]]) + "\n")
    args = _rank_args(workdir, tmp_path / "out")
    args[args.index("--data") + 1] = str(bad)
    assert main(args) == 3
    assert "bad.csv:3: column 4: not a finite number" in capsys.readouterr().err


def _profile_with(root, tmp_path, old, new):
    text = (root / "pluripotent.profile").read_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.profile"
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("rank", ["--delta", "day6_vs_day9=nan"], "got nan"),
        ("rank", ["--delta", "day6_vs_day9=inf"], "got inf"),
        ("rank", ["--epsilon", "inf"], "got inf"),
        ("rank", ["--grid", "0.5,inf"], "got [0.5, inf]"),
        ("rank", ["--profile", ("equiv:1", "equiv:inf")],
         "edited.profile:15: equiv:inf: equiv constraint value must be a finite number, got inf"),
        ("rank", ["--profile", ("1,1,1,0 pos", "1,1,1,0 pos:1e400")],
         "edited.profile:14: pos:1e400: pos constraint value must be a finite number, got inf"),
        ("validate", ["--profile", ("1,1,1,1 free", "1,1,1,1e400 free")], "'1e400'"),
        ("synth", ["--s02", "inf"], "s0_2=inf"),
        ("synth", ["--d0", "inf"], "d0=inf"),
        ("synth", ["--pos-margin", "1,inf"], "(1.0, inf)"),
    ],
    ids=["delta-nan", "delta-inf", "epsilon-inf", "grid-inf", "equiv-inf", "pos-1e400",
         "basis-1e400", "s02-inf", "d0-inf", "pos-margin-inf"],
)
def test_non_finite_option_values_exit_2(workdir, tmp_path, capsys, command, flags, named):
    out = tmp_path / "out"
    if command == "rank":
        args = _rank_args(workdir, out)
    else:
        args = [command, "--design", str(workdir / "design.csv"),
                "--conditions", str(workdir / "conditions.csv"),
                "--profile", str(workdir / "pluripotent.profile")]
        if command == "synth":
            args += ["--genes", "50", "--seed", "1", "--out", str(out)]
    flag, value = flags
    if flag == "--profile":
        value = _profile_with(workdir, tmp_path, *value)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    assert main(args) == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "flag", [["--alpha", "0.7"], ["--top-n", "0"], ["--threads", "2"]],
    ids=["alpha", "top-n", "threads"],
)
def test_sensitivity_rejects_rank_only_flags(workdir, tmp_path, capsys, flag):
    args = _rank_args(workdir, tmp_path / "out", ["--grid", "1", *flag])
    args[0] = "sensitivity"
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "sensitivity", "synth", "validate"])
def test_bad_epsilon_exits_2_without_an_equivalence_margin(workdir, tmp_path, capsys, command):
    # The profile has no equiv coefficient, so no Constraint ever sees the value.
    profile = _profile_with(workdir, tmp_path, "coef day0_vs_day3 0.5,-0.5,0,0 equiv:1\n", "")
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--epsilon", "-1"])
    args[args.index("--profile") + 1] = profile
    args[0] = command
    if command == "sensitivity":
        args += ["--grid", "1"]
    elif command == "synth":
        del args[1:3]  # --data
        args += ["--genes", "50", "--seed", "1"]
    elif command == "validate":
        del args[args.index("--out"):args.index("--out") + 2]
    assert main(args) == 2
    assert "--epsilon must be a finite number > 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_empty_gene_id_exits_3(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "expression.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], lines[1], "," + lines[2].partition(",")[2]]) + "\n")
    args = _rank_args(workdir, tmp_path / "out")
    args[args.index("--data") + 1] = str(bad)
    assert main(args) == 3
    assert "bad.csv:3: column 1: a gene id must be non-empty" in capsys.readouterr().err


def _validate_args(root, data=None, design=None):
    return ["validate",
            "--design", str(design or root / "design.csv"),
            "--conditions", str(root / "conditions.csv"),
            "--profile", str(root / "pluripotent.profile"),
            *(["--data", str(data)] if data else [])]


def test_gene_id_beyond_the_csv_field_limit_exits_3(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "expression.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], "x" * 140000 + "," + lines[1].partition(",")[2],
                              *lines[2:]]) + "\n")
    assert main(_validate_args(workdir, data=bad)) == 3
    assert "bad.csv:2: field larger than field limit" in capsys.readouterr().err


def test_design_field_beyond_the_csv_field_limit_exits_2(workdir, tmp_path, capsys):
    lines = (workdir / "design.csv").read_text().splitlines()
    bad = tmp_path / "design.csv"
    bad.write_text("\n".join([lines[0], lines[1] + "x" * 140000, *lines[2:]]) + "\n")
    assert main(_validate_args(workdir, design=bad)) == 2
    assert "design.csv:2: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("name, line, code", [
    ("conditions.csv", 2, 2),
    ("design.csv", 3, 2),
    ("pluripotent.profile", 2, 2),
    ("expression.csv", 400, 3),  # past the first chunk the reader decodes
])
def test_input_that_is_not_utf8_names_the_file_and_line(workdir, tmp_path, capsys,
                                                        name, line, code):
    inputs = {"conditions.csv": workdir / "conditions.csv",
              "design.csv": workdir / "design.csv",
              "pluripotent.profile": workdir / "pluripotent.profile",
              "expression.csv": workdir / "data" / "expression.csv"}
    lines = inputs[name].read_bytes().split(b"\n")
    lines[line - 1] += b"\xe9"
    inputs[name] = tmp_path / name
    inputs[name].write_bytes(b"\n".join(lines))
    assert main(["validate", "--conditions", str(inputs["conditions.csv"]),
                 "--design", str(inputs["design.csv"]),
                 "--profile", str(inputs["pluripotent.profile"]),
                 "--data", str(inputs["expression.csv"])]) == code
    assert f"{name}:{line}: not UTF-8 text: byte 0xe9" in capsys.readouterr().err


def test_duplicate_gene_id_names_both_lines(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "expression.csv").read_text().splitlines()
    first = lines[1].partition(",")[0]
    lines[4] = first + "," + lines[4].partition(",")[2]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(_validate_args(workdir, data=bad)) == 3
    err = capsys.readouterr().err
    assert f"bad.csv:5: column 1: gene id {first!r} is not unique, it is also on line 2" in err


@pytest.mark.parametrize("command", ["rank", "sensitivity"])
def test_grid_without_an_equivalence_margin_exits_2(workdir, tmp_path, capsys, command):
    text = (workdir / "pluripotent.profile").read_text()
    profile = tmp_path / "no_equiv.profile"
    profile.write_text(text.replace("name pluripotent", "name no_equiv_margin")
                       .replace("coef day0_vs_day3 0.5,-0.5,0,0 equiv:1\n", ""))
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--grid", "0.5,1"])
    args[args.index("--profile") + 1] = str(profile)
    args[0] = command
    assert main(args) == 2
    assert "profile 'no_equiv_margin' has no equiv coefficient" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


WEIRD_ID = 'weird,"id'


@pytest.mark.parametrize(
    "extra, listed_in",
    [([], "ranked.csv"), (["--epsilon", "0.001"], "excluded.csv")],
)
def test_gene_ids_needing_quotes_round_trip(workdir, tmp_path, extra, listed_in):
    # The planted top gene is renamed to an id with a comma and a quote;
    # at a tiny margin it is excluded instead of ranked.
    top = next(r["gene_id"] for r in _read_truth(workdir) if r["role"] == "planted_top")
    with open(workdir / "data" / "expression.csv", newline="") as fh:
        rows = [[WEIRD_ID if row[0] == top else row[0], *row[1:]] for row in csv.reader(fh)]
    data = tmp_path / "quoted.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert '"weird,""id"' in data.read_text()
    args = _rank_args(workdir, tmp_path / "out", ["--grid", "0.5,1,1.5,2", *extra])
    args[args.index("--data") + 1] = str(data)
    assert main(args) == 0

    ids = {}
    for name, id_col in (("ranked.csv", 1), ("excluded.csv", 0), ("sensitivity.csv", 0)):
        with open(tmp_path / "out" / name, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in body), name
        ids[name] = [row[id_col] for row in body]
    assert WEIRD_ID in ids[listed_in]
    assert WEIRD_ID in ids["sensitivity.csv"]
    assert ids["ranked.csv"].count(WEIRD_ID) + ids["excluded.csv"].count(WEIRD_ID) == 1


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
        model=None, fits=[],
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
    # Also with the top gene renamed to an id that needs XML escaping.
    top = next(r["gene_id"] for r in _read_truth(workdir) if r["role"] == "planted_top")
    with open(workdir / "data" / "expression.csv", newline="") as fh:
        rows = [["Ag01718,B<1>&" if row[0] == top else row[0], *row[1:]] for row in csv.reader(fh)]
    markup = tmp_path / "markup.csv"
    with open(markup, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for data, legend in ((workdir / "data" / "expression.csv", f"1. {top}"),
                         (markup, "1. Ag01718,B<1>&")):
        out = tmp_path / data.stem
        args = _rank_args(workdir, out, ["--top-n", "6"])
        args[args.index("--data") + 1] = str(data)
        assert main(args) == 0
        root = ET.fromstring((out / "profiles.svg").read_text())
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 6
        assert legend in [e.text for e in root.iter() if e.tag.endswith("text")]


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
