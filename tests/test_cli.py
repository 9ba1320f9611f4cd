import csv
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import profilerank as pr
from profilerank.cli import main
from profilerank.svgplot import fitted_relative_profile, render_profiles_svg
from profilerank.synth import write_expression_csv


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


def test_a_tiny_alpha_at_few_degrees_of_freedom_ranks(workdir, tmp_path, capsys):
    # A gene at 1e100 times another sinks the prior's d0 below 1, so the
    # moderated df are ~17 and t* at alpha 1e-300 is ~1e18, far past the
    # quantile's bisection bracket.
    design = pr.read_design_csv(workdir / "design.csv",
                                pr.read_conditions_csv(workdir / "conditions.csv"))
    expr = pr.read_expression_csv(workdir / "data" / "expression.csv", design.array_ids)
    data = tmp_path / "outlier.csv"
    write_expression_csv(pr.ExpressionMatrix(
        gene_ids=(*expr.gene_ids, "outlier"), array_ids=expr.array_ids,
        values=np.vstack([expr.values, expr.values[:1] * 1e100])), data)
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--alpha", "1e-300"])
    args[args.index("--data") + 1] = str(data)
    assert main(args) == 0
    assert "0 pass the alpha=1e-300 test" in capsys.readouterr().out
    assert json.loads((out / "moderation.json").read_text(encoding="utf-8"))["d0"] < 1.0
    assert len((out / "ranked.csv").read_text(encoding="utf-8").splitlines()) > 1


def test_a_degenerate_prior_prints_d0_inf(workdir, tmp_path, capsys):
    # Every gene holds the same values, so every residual variance is the
    # same and the prior's d0 is infinite.
    design = pr.read_design_csv(workdir / "design.csv",
                                pr.read_conditions_csv(workdir / "conditions.csv"))
    expr = pr.read_expression_csv(workdir / "data" / "expression.csv", design.array_ids)
    data = tmp_path / "same.csv"
    write_expression_csv(pr.ExpressionMatrix(
        gene_ids=tuple(f"g{i}" for i in range(5)), array_ids=expr.array_ids,
        values=np.repeat(expr.values[:1], 5, axis=0)), data)
    args = _rank_args(workdir, tmp_path / "out")
    args[args.index("--data") + 1] = str(data)
    assert main(args) == 0
    assert " excluded; prior d0=inf, s0_2=" in capsys.readouterr().out


def _read_truth(root):
    rows = (root / "data" / "truth.csv").read_text(encoding="utf-8").splitlines()
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
    ranked = (out / "ranked.csv").read_text(encoding="utf-8").splitlines()
    header = ranked[0].split(",")
    assert header[:3] == ["rank", "gene_id", "U"]
    assert "U_1" in header and "gamma_1" in header and "se_3" in header
    assert header[-2:] == ["s2", "posterior_s2"]
    first = ranked[1].split(",")
    assert first[0] == "1" and first[1] == top_gene

    excl_header = (out / "excluded.csv").read_text(encoding="utf-8").splitlines()[0]
    assert excl_header.startswith("gene_id,reason")


def test_moderation_json_contents(workdir, tmp_path):
    out = tmp_path / "out"
    assert main(_rank_args(workdir, out)) == 0
    payload = json.loads((out / "moderation.json").read_text(encoding="utf-8"))
    assert payload["profile"] == "pluripotent"
    assert payload["alpha"] == 0.05
    assert payload["margins"]["day6_vs_day9"] == "pos:1.5"
    assert isinstance(payload["d0"], float) and payload["d0"] > 0
    assert 0.0 < payload["s0_2"] < 1.0
    assert payload["n_included"] + payload["n_excluded"] == 600


def test_sensitivity_csv_nesting(workdir, tmp_path):
    out = tmp_path / "out"
    assert main(_rank_args(workdir, out, ["--grid", "0.5,1,1.5,2"])) == 0
    lines = (out / "sensitivity.csv").read_text(encoding="utf-8").splitlines()
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
    assert json.loads((out / "moderation.json").read_text(encoding="utf-8"))["n_included"] == 0
    assert (out / "ranked.csv").read_text(encoding="utf-8").splitlines() == [RANKED_HEADER]
    excluded = (out / "excluded.csv").read_text(encoding="utf-8").splitlines()
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
    lines = {p.name: p.read_text(encoding="utf-8").splitlines() for p in tables}
    assert len(lines["ranked_eps_0.001.csv"]) == 1  # nobody included
    assert len(lines["ranked_eps_2.csv"]) > 1
    assert {rows[0] for rows in lines.values()} == {RANKED_HEADER}
    # moderation.json records the last margin of the grid, at the default level.
    payload = json.loads((out / "moderation.json").read_text(encoding="utf-8"))
    assert payload["margins"]["day0_vs_day3"] == "equiv:2.0"
    assert payload["alpha"] == 0.05
    assert payload["n_included"] == len(lines["ranked_eps_2.csv"]) - 1


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
    good = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    cells = good[2].split(",")
    cells[3] = "wat"
    bad.write_text("\n".join([good[0], good[1], ",".join(cells)]) + "\n", encoding="utf-8")
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
    lines = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[3] = token
    bad.write_text("\n".join([lines[0], lines[1], ",".join(cells), *lines[3:]]) + "\n",
                   encoding="utf-8")
    args = _rank_args(workdir, tmp_path / "out")
    args[args.index("--data") + 1] = str(bad)
    assert main(args) == 3
    assert "bad.csv:3: column 4: not a finite number" in capsys.readouterr().err


def _profile_with(root, tmp_path, old, new):
    text = (root / "pluripotent.profile").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "edited.profile"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("rank", ["--delta", "day6_vs_day9=nan"],
         "--delta 'day6_vs_day9=nan': pos constraint value must be a finite number, got nan"),
        ("rank", ["--delta", "day6_vs_day9=inf"],
         "--delta 'day6_vs_day9=inf': pos constraint value must be a finite number, got inf"),
        ("rank", ["--epsilon", "inf"], "got inf"),
        ("rank", ["--grid", "0.5,inf"], "got [0.5, inf]"),
        ("rank", ["--profile", ("equiv:1", "equiv:inf")],
         "edited.profile:15: equiv:inf: equiv constraint value must be a finite number, got inf"),
        ("rank", ["--profile", ("1,1,1,0 pos", "1,1,1,0 pos:1e400")],
         "edited.profile:14: pos:1e400: pos constraint value must be a finite number, got inf"),
        ("validate", ["--profile", ("1,1,1,1 free", "1,1,1,1e400 free")], "'1e400'"),
    ],
    ids=["delta-nan", "delta-inf", "epsilon-inf", "grid-inf", "equiv-inf", "pos-1e400",
         "basis-1e400"],
)
def test_non_finite_option_values_exit_2(workdir, tmp_path, capsys, command, flags, named):
    out = tmp_path / "out"
    if command == "rank":
        args = _rank_args(workdir, out)
    else:
        args = [command, "--design", str(workdir / "design.csv"),
                "--conditions", str(workdir / "conditions.csv"),
                "--profile", str(workdir / "pluripotent.profile")]
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
    "entry, code, message",
    [
        ("1e-400", 2,
         "coefficient 'day0_vs_day3': basis entry '1e-400' is not zero but underflows to 0.0"),
        # Python reads no int of more than 4300 digits, so Fraction refuses it.
        ("1." + "0" * 4999, 2, "error: coefficient 'day0_vs_day3': entry not an exact decimal"),
        ("5e-324", 0, ""),
    ],
    ids=["underflow", "5000-digits", "subnormal"],
)
def test_a_basis_entry_is_zero_only_if_it_is_written_as_zero(workdir, tmp_path, capsys,
                                                              entry, code, message):
    profile = _profile_with(workdir, tmp_path, "0.5,-0.5,0,0 ", f"0.5,-0.5,0,{entry} ")
    assert main(["validate", "--design", str(workdir / "design.csv"),
                 "--conditions", str(workdir / "conditions.csv"), "--profile", profile]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--alpha", "0.7"], ["--top-n", "0"], ["--threads", "2"], ["--epsilon", "3"]],
    ids=["alpha", "top-n", "threads", "epsilon"],
)
def test_sensitivity_rejects_rank_only_flags(workdir, tmp_path, capsys, flag):
    args = _rank_args(workdir, tmp_path / "out", ["--grid", "1", *flag])
    args[0] = "sensitivity"
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "synth", "validate"])
def test_bad_epsilon_exits_2_without_an_equivalence_margin(workdir, tmp_path, capsys, command):
    # The profile has no equiv coefficient, so no Constraint ever sees the value.
    profile = _profile_with(workdir, tmp_path, "coef day0_vs_day3 0.5,-0.5,0,0 equiv:1\n", "")
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--epsilon", "-1"])
    args[args.index("--profile") + 1] = profile
    args[0] = command
    if command == "synth":
        del args[1:3]  # --data
        args += ["--genes", "50", "--seed", "1"]
    elif command == "validate":
        del args[args.index("--out"):args.index("--out") + 2]
    assert main(args) == 2
    assert "--epsilon must be a finite number > 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_empty_gene_id_exits_3(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], lines[1], "," + lines[2].partition(",")[2]]) + "\n",
                   encoding="utf-8")
    args = _rank_args(workdir, tmp_path / "out")
    args[args.index("--data") + 1] = str(bad)
    assert main(args) == 3
    assert "bad.csv:3: column 1: a gene id must be non-empty" in capsys.readouterr().err


def test_gene_id_that_xml_cannot_hold_exits_3(workdir, tmp_path, capsys):
    # profiles.svg would hold these ids as text that no XML parser reads.
    lines = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    for n, ch in ((5, "\x01x"), (9, "\x0cy")):
        gene_id, _, rest = lines[n - 1].partition(",")
        lines[n - 1] = f"{gene_id}{ch},{rest}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--epsilon", "2"])
    args[args.index("--data") + 1] = str(bad)
    assert main(args) == 3
    assert "bad.csv:5: column 1: a gene id must hold only characters that XML 1.0 allows" in (
        capsys.readouterr().err)
    assert not out.exists()


def _validate_args(root, data=None, design=None, profile=None):
    return ["validate",
            "--design", str(design or root / "design.csv"),
            "--conditions", str(root / "conditions.csv"),
            "--profile", str(profile or root / "pluripotent.profile"),
            *(["--data", str(data)] if data else [])]


def test_gene_id_beyond_the_csv_field_limit_exits_3(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], "x" * 140000 + "," + lines[1].partition(",")[2],
                              *lines[2:]]) + "\n", encoding="utf-8")
    assert main(_validate_args(workdir, data=bad)) == 3
    assert "bad.csv:2: field larger than field limit" in capsys.readouterr().err


def test_design_field_beyond_the_csv_field_limit_exits_2(workdir, tmp_path, capsys):
    lines = (workdir / "design.csv").read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "design.csv"
    bad.write_text("\n".join([lines[0], lines[1] + "x" * 140000, *lines[2:]]) + "\n",
                   encoding="utf-8")
    assert main(_validate_args(workdir, design=bad)) == 2
    assert "design.csv:2: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("quoted, message", [
    ('"{}', "not closed"),
    ('"{}"x', "text follows the closing quote of a field"),
    ('"{}" ', "text follows the closing quote of a field"),  # even a space
], ids=["open-quote", "text-after-quote", "space-after-quote"])
@pytest.mark.parametrize("name, code", [("expression.csv", 3), ("design.csv", 2)])
def test_a_quote_not_closed_or_followed_by_text_names_its_line(workdir, tmp_path, capsys,
                                                               quoted, message, name, code):
    inputs = {"design.csv": workdir / "design.csv",
              "expression.csv": workdir / "data" / "expression.csv"}
    lines = inputs[name].read_text(encoding="utf-8").splitlines()
    first, _, rest = lines[2].partition(",")
    lines[2] = quoted.format(first) + "," + rest
    inputs[name] = tmp_path / name
    inputs[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(_validate_args(workdir, data=inputs["expression.csv"],
                               design=inputs["design.csv"])) == code
    err = capsys.readouterr().err
    assert f"{name}:3: " in err and message in err


@pytest.mark.parametrize("name, code", [("expression.csv", 3), ("design.csv", 2)])
def test_a_tab_before_an_opening_quote_names_its_line(workdir, tmp_path, capsys, name, code):
    # Only spaces may come before an opening quote; after a tab the quotes
    # would be read as part of the id.
    inputs = {"design.csv": workdir / "design.csv",
              "expression.csv": workdir / "data" / "expression.csv"}
    lines = inputs[name].read_text(encoding="utf-8").splitlines()
    first, _, rest = lines[2].partition(",")
    lines[2] = f'\t"{first}",{rest}'
    inputs[name] = tmp_path / name
    inputs[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(_validate_args(workdir, data=inputs["expression.csv"],
                               design=inputs["design.csv"])) == code
    err = capsys.readouterr().err
    assert f"{name}:3: column 1: '\\t' comes before the opening quote of a field" in err


def _inputs(workdir):
    return {"conditions.csv": workdir / "conditions.csv",
            "design.csv": workdir / "design.csv",
            "pluripotent.profile": workdir / "pluripotent.profile",
            "expression.csv": workdir / "data" / "expression.csv"}


def _not_utf8_validate(workdir, tmp_path, name, content, code):
    # ``validate`` with the input ``name`` replaced by the bytes ``content``.
    inputs = _inputs(workdir)
    inputs[name] = tmp_path / name
    inputs[name].write_bytes(content)
    assert main(["validate", "--conditions", str(inputs["conditions.csv"]),
                 "--design", str(inputs["design.csv"]),
                 "--profile", str(inputs["pluripotent.profile"]),
                 "--data", str(inputs["expression.csv"])]) == code


@pytest.mark.parametrize("name, line, code", [
    ("conditions.csv", 2, 2),
    ("design.csv", 3, 2),
    ("pluripotent.profile", 2, 2),
    ("expression.csv", 400, 3),  # past the first chunk the reader decodes
])
def test_input_that_is_not_utf8_names_the_file_and_line(workdir, tmp_path, capsys,
                                                        name, line, code):
    # Lines end at LF, CRLF or a lone CR, as every reader ends them.
    lines = _inputs(workdir)[name].read_bytes().splitlines()
    lines[line - 1] += b"\xe9"
    for end in (b"\n", b"\r\n", b"\r"):
        _not_utf8_validate(workdir, tmp_path, name, end.join(lines) + end, code)
        assert (f"{name}:{line}: not UTF-8 text: byte 0xe9 at position {len(lines[line - 1])} "
                "of the line") in capsys.readouterr().err


def test_a_not_utf8_position_counts_from_after_a_byte_order_mark(workdir, tmp_path, capsys):
    _not_utf8_validate(workdir, tmp_path, "conditions.csv", b"\xef\xbb\xbfday\xe90\n", 2)
    assert "conditions.csv:1: not UTF-8 text: byte 0xe9 at position 4 of the line" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("what, read, error", [
    ("conditions", pr.read_conditions_csv, pr.ValidationError),
    ("design", lambda path: pr.read_design_csv(path, ("day0",)), pr.ValidationError),
    ("profile", pr.profile_from_file, pr.ValidationError),
    ("expression", lambda path: pr.read_expression_csv(path, ("a1",)), pr.DataError),
])
def test_an_unreadable_input_names_its_kind_and_path(tmp_path, what, read, error):
    with pytest.raises(error) as caught:
        read(tmp_path)
    assert str(caught.value).startswith(f"cannot read {what} file {tmp_path}: ")


@pytest.mark.parametrize("what", ["conditions", "design", "profile", "data"])
@pytest.mark.parametrize("where, problem", [("missing", "not found"),
                                            ("directory", "is not a regular file")],
                         ids=["missing", "directory"])
def test_an_input_that_is_not_a_file_exits_2(workdir, tmp_path, capsys, what, where, problem):
    path = tmp_path / where
    if where == "directory":
        path.mkdir()
    args = _rank_args(workdir, tmp_path / "out")
    args[args.index(f"--{what}") + 1] = str(path)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {what} file {problem}: {path}\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture
def pipe():
    """``/dev/fd/N`` for the read end of a pipe that holds ``data`` and is
    closed for writing, as a shell's ``<(...)`` passes one."""
    fds = []

    def make(data: bytes) -> str:
        read_fd, write_fd = os.pipe()
        fds.append(read_fd)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        return f"/dev/fd/{read_fd}"

    yield make
    for fd in fds:
        os.close(fd)


def test_a_profile_from_a_pipe_validates(workdir, pipe, capsys):
    profile = pipe((workdir / "pluripotent.profile").read_bytes())
    assert main(_validate_args(workdir, profile=profile)) == 0
    assert "all inputs valid" in capsys.readouterr().out


def test_data_from_a_pipe_exits_2(workdir, pipe, capsys):
    # The expression reader reads its file again when the fast path declines it.
    data = pipe((workdir / "data" / "expression.csv").read_bytes()[:4096])
    assert main(_validate_args(workdir, data=data)) == 2
    assert capsys.readouterr().err == f"error: data file is not a regular file: {data}\n"


def test_a_fifo_profile_that_is_not_utf8_exits_2_without_reading_it_again(workdir, tmp_path):
    # Opening the FIFO again would wait for a writer that never comes.
    fifo = tmp_path / "profile"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(b"name caf\xe9\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        proc = subprocess.run([sys.executable, "-m", "profilerank",
                               *_validate_args(workdir, profile=fifo)],
                              capture_output=True, encoding="utf-8", timeout=10)
    finally:
        unblock = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # if the child never opened it
        writer.join(timeout=10)
        os.close(unblock)
    assert not writer.is_alive()
    assert proc.returncode == 2
    assert proc.stderr == f"error: {fifo}: not UTF-8 text\n"


def test_blank_and_whitespace_records_in_a_design_are_skipped(tmp_path, stemcell_conditions,
                                                             stemcell_design):
    lines = pr.bundled_data_path("design_stemcell.csv").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "design.csv"
    path.write_text("\n".join([*lines[:2], "", "  \t ", *lines[2:]]) + "\n", encoding="utf-8")
    assert pr.read_design_csv(path, stemcell_conditions) == stemcell_design


@pytest.mark.parametrize("name, old, new, token", [
    ("pluripotent.profile", "name pluripotent", "name plu$ri", "'plu$ri'"),
    ("pluripotent.profile", "conditions day0,day3", "conditions day0,da$y3", "'da$y3'"),
    ("pluripotent.profile", "coef day6_vs_day9", "coef day6$9", "'day6$9'"),
    ("pluripotent.profile", "coef day6_vs_day9", "coef early_vs_day6", "'early_vs_day6'"),
    ("pluripotent.profile", "coef day6_vs_day9 1,", "coef day6_vs_day9 1e400,", "'1e400'"),
    ("design.csv", "p21_3,day6,", "p21_3,day7,", "'day7'"),
    ("design.csv", "p21_3,", "a$b,", "'a$b'"),
    ("design.csv", "p21_3,", "p21_1,", "'p21_1'"),
    ("design.csv", "p21_3,day6,day3,", "p21_3,day3,day3,", "'p21_3'"),
    ("conditions.csv", "day6", "day3", "'day3'"),
], ids=["profile-name", "profile-condition", "profile-coefficient",
        "profile-repeated-coefficient", "profile-basis-entry", "design-unknown-condition",
        "design-array-id", "design-repeated-array-id", "design-same-dyes",
        "conditions-repeated"])
def test_design_conditions_and_profile_errors_name_file_and_line(
        workdir, tmp_path, capsys, name, old, new, token):
    inputs = {"conditions.csv": workdir / "conditions.csv",
              "design.csv": workdir / "design.csv",
              "pluripotent.profile": workdir / "pluripotent.profile"}
    lines = inputs[name].read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines) if text.startswith(old))
    lines[line] = new + lines[line][len(old):]
    inputs[name] = tmp_path / name
    inputs[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["rank", "--data", str(workdir / "data" / "expression.csv"),
                 "--design", str(inputs["design.csv"]),
                 "--conditions", str(inputs["conditions.csv"]),
                 "--profile", str(inputs["pluripotent.profile"]),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{name}:{line + 1}: " in err and token in err
    assert not out.exists()


def test_duplicate_gene_id_names_both_lines(workdir, tmp_path, capsys):
    lines = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    first = lines[1].partition(",")[0]
    lines[4] = first + "," + lines[4].partition(",")[2]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(_validate_args(workdir, data=bad)) == 3
    err = capsys.readouterr().err
    assert f"bad.csv:5: column 1: gene id {first!r} is not unique, it is also on line 2" in err


@pytest.mark.parametrize(
    "command, flags, use",
    [("rank", ["--grid", "0.5,1"], "a margin sweep"),
     ("sensitivity", ["--grid", "0.5,1"], "a margin sweep"),
     ("rank", ["--epsilon", "0.3"], "an epsilon of 0.3"),
     ("synth", ["--epsilon", "0.3", "--genes", "50", "--seed", "1"], "an epsilon of 0.3")],
    ids=["rank", "sensitivity", "rank-epsilon", "synth-epsilon"],
)
def test_grid_without_an_equivalence_margin_exits_2(workdir, tmp_path, capsys, monkeypatch,
                                                    command, flags, use):
    # --grid and --epsilon change only equivalence margins. Reading this file
    # would exit 3, and synth must not start generating, so exit 2 shows the
    # profile was checked first.
    bad = tmp_path / "bad.csv"
    bad.write_text("gene_id,wrong\n", encoding="utf-8")
    monkeypatch.setattr("profilerank.cli.generate_dataset", _never_called)
    text = (workdir / "pluripotent.profile").read_text(encoding="utf-8")
    profile = tmp_path / "no_equiv.profile"
    profile.write_text(text.replace("name pluripotent", "name no_equiv_margin")
                       .replace("coef day0_vs_day3 0.5,-0.5,0,0 equiv:1\n", ""), encoding="utf-8")
    out = tmp_path / "out"
    args = _rank_args(workdir, out, flags)
    args[args.index("--profile") + 1] = str(profile)
    args[args.index("--data") + 1] = str(bad)
    args[0] = command
    if command == "synth":
        del args[1:3]  # --data
    assert main(args) == 2
    assert (f"profile 'no_equiv_margin' has no equiv coefficient, so {use} would vary nothing"
            in capsys.readouterr().err)
    assert not out.exists()


WEIRD_ID = 'weird,"id'


@pytest.mark.parametrize(
    "extra, listed_in",
    [([], "ranked.csv"), (["--epsilon", "0.001"], "excluded.csv")],
)
def test_gene_ids_needing_quotes_round_trip(workdir, tmp_path, extra, listed_in):
    # The planted top gene is renamed to an id with a comma and a quote;
    # at a tiny margin it is excluded instead of ranked.
    top = next(r["gene_id"] for r in _read_truth(workdir) if r["role"] == "planted_top")
    with open(workdir / "data" / "expression.csv", newline="", encoding="utf-8") as fh:
        rows = [[WEIRD_ID if row[0] == top else row[0], *row[1:]] for row in csv.reader(fh)]
    data = tmp_path / "quoted.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert '"weird,""id"' in data.read_text(encoding="utf-8")
    args = _rank_args(workdir, tmp_path / "out", ["--grid", "0.5,1,1.5,2", *extra])
    args[args.index("--data") + 1] = str(data)
    assert main(args) == 0

    ids = {}
    for name, id_col in (("ranked.csv", 1), ("excluded.csv", 0), ("sensitivity.csv", 0)):
        with open(tmp_path / "out" / name, newline="", encoding="utf-8") as fh:
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
    from profilerank.outputs import _fmt

    assert _fmt(0.123456789) == "0.123457"
    assert _fmt(1234567.0) == "1.23457e+06"
    assert _fmt(float("nan")) == "NA"
    assert _fmt(2.0) == "2"


def test_bad_alpha_exits_2(workdir, tmp_path):
    assert main(_rank_args(workdir, tmp_path / "o", ["--alpha", "0.9"])) == 2


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("rank", ["--alpha", "0.7"], "alpha must lie in (0, 0.5), got 0.7"),
        ("rank", ["--grid=-1,2"], "sweep margins must be > 0 and finite, got [-1.0, 2.0]"),
        ("sensitivity", ["--grid=-1,2"],
         "sweep margins must be > 0 and finite, got [-1.0, 2.0]"),
        ("sensitivity", ["--grid", ""], "a margin sweep needs at least one margin"),
        ("rank", ["--grid", ""], "a margin sweep needs at least one margin"),
        ("rank", ["--delta", "day6_vs_day9=abc"],
         "--delta 'day6_vs_day9=abc': threshold is not a number"),
        # _rank_args already gives day6_vs_day9=1.5.
        ("rank", ["--delta", "day6_vs_day9=9"], "--delta 'day6_vs_day9=1.5' and "
         "'day6_vs_day9=9' both set day6_vs_day9; give each coefficient at most once"),
        # What the profile refuses names the --delta item too.
        ("rank", ["--delta", "early_vs_day6=-1"],
         "--delta 'early_vs_day6=-1': positivity threshold must be >= 0, got -1.0"),
        ("rank", ["--delta", "nope=1"],
         "--delta 'nope=1': delta override for unknown coefficient(s): ['nope']"),
        ("rank", ["--delta", "day0_vs_day3=1"], "--delta 'day0_vs_day3=1': coefficient "
         "'day0_vs_day3' has no positivity threshold to override"),
        # Each margin names a sensitivity.csv column and a ranked_eps_<label>.csv
        # file, so two margins with one label would hide one margin's output.
        ("rank", ["--grid", "1,1.0000001"], "--grid margins '1' and '1.0000001' are both "
         "labelled eps_1; give margins that differ in their first 6 significant digits"),
        ("sensitivity", ["--grid", "1,1.0000001"],
         "--grid margins '1' and '1.0000001' are both labelled eps_1"),
        ("rank", ["--grid", "0.5,2,0.5"], "--grid margins '0.5' and '0.5' are both labelled"),
        ("sensitivity", ["--grid", "0.5,2,0.5"],
         "--grid margins '0.5' and '0.5' are both labelled eps_0.5"),
    ],
    ids=["rank-alpha", "rank-grid", "sensitivity-grid", "sensitivity-empty-grid", "rank-empty-grid",
         "rank-delta-not-a-number", "rank-delta-repeated", "rank-delta-negative",
         "rank-delta-unknown", "rank-delta-not-pos", "rank-grid-same-label",
         "sensitivity-grid-same-label", "rank-grid-same-margin", "sensitivity-grid-same-margin"],
)
def test_run_flags_are_checked_before_the_data_is_read(workdir, tmp_path, capsys, command,
                                                       flags, named):
    # Reading this file would exit 3, so exit 2 shows the flag was checked first.
    bad = tmp_path / "bad.csv"
    bad.write_text("gene_id,wrong\n", encoding="utf-8")
    out = tmp_path / "out"
    args = _rank_args(workdir, out, flags)
    args[0] = command
    args[args.index("--data") + 1] = str(bad)
    assert main(args) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", ["--d0", "--s02", "--pos-margin", "--equiv-band", "--violate-pos", "--violate-equiv"]
)
def test_synth_has_no_draw_range_or_prior_flags(workdir, tmp_path, capsys, flag):
    # The draw ranges and the variance prior are fixed in synth.py.
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--genes", "50", "--seed", "1", flag, "1"])
    args[0] = "synth"
    del args[1:3]  # --data
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_negative_seed_exits_2(workdir, tmp_path, capsys):
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--genes", "50", "--seed", "-1"])
    args[0] = "synth"
    del args[1:3]  # --data
    assert main(args) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "sensitivity"])
def test_an_error_after_the_read_creates_no_output_directory(workdir, tmp_path, capsys, command):
    # One gene cannot give a variance prior, which only the fit finds out.
    lines = (workdir / "data" / "expression.csv").read_text(encoding="utf-8").splitlines()
    one = tmp_path / "one.csv"
    one.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = _rank_args(workdir, out, ["--grid", "0.5,1"])
    args[0] = command
    args[args.index("--data") + 1] = str(one)
    assert main(args) == 3
    assert "variance moderation needs at least 2 genes" in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_data_file_exits_3(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    args = _rank_args(workdir, out)
    args[args.index("--data") + 1] = str(empty)
    assert main(args) == 3
    assert f"data error: {empty}: empty file" in capsys.readouterr().err
    assert not out.exists()


def test_an_out_path_the_os_refuses_exits_2_after_the_fit(workdir, tmp_path, capsys):
    # No file system takes a 300-character name, which only makedirs finds out.
    out = tmp_path / ("o" * 300) / "x"
    assert main(_rank_args(workdir, out)) == 2
    err = capsys.readouterr().err
    assert f"--out {out}: cannot create the output directory: " in err
    assert "is not a directory" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, squatted, before", [
    ("rank", "ranked.csv", []),
    ("sensitivity", "ranked_eps_1.csv", ["ranked_eps_0.5.csv", "sensitivity.csv"]),
    ("synth", "truth.csv", ["expression.csv"]),
], ids=["rank", "sensitivity", "synth"])
def test_an_output_file_the_os_refuses_exits_2_naming_it(workdir, tmp_path, capsys, command,
                                                         squatted, before):
    # A directory where an output file goes: the files written before it stay.
    out = tmp_path / "out"
    (out / squatted).mkdir(parents=True)
    extra = ["--genes", "50", "--seed", "1"] if command == "synth" else ["--grid", "0.5,1"]
    args = _rank_args(workdir, out, extra)
    args[0] = command
    if command == "synth":
        del args[1:3]  # --data
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file {out / squatted}: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == sorted([squatted, *before])


@pytest.mark.parametrize("kind", ["conditions", "design", "profile", "expression"])
def test_a_byte_order_mark_reads_as_nothing(workdir, tmp_path, kind):
    # The conditions file starts with a comment line, which the mark must
    # not turn into a label.
    path = {"conditions": workdir / "conditions.csv", "design": workdir / "design.csv",
            "profile": workdir / "pluripotent.profile",
            "expression": workdir / "data" / "expression.csv"}[kind]
    marked = tmp_path / path.name
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = []
    for source, out in ((path, tmp_path / "plain"), (marked, tmp_path / "marked")):
        args = _rank_args(workdir, out, ["--grid", "0.5,1"])
        args[args.index(str(path))] = str(source)
        assert main(args) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["excluded.csv", "moderation.json", "profiles.svg",
                                  "ranked.csv", "sensitivity.csv"]


def _never_called(*args, **kwargs):
    raise AssertionError("the run went on past a bad --out")


@pytest.mark.parametrize("command", ["rank", "sensitivity", "synth"])
@pytest.mark.parametrize("where", ["file", "under-a-file", "empty"])
def test_out_on_an_existing_file_exits_2(workdir, tmp_path, capsys, monkeypatch, command,
                                         where):
    # Reading this file would exit 3, and synth must not start generating,
    # so exit 2 shows --out was checked first.
    bad = tmp_path / "bad.csv"
    bad.write_text("gene_id,wrong\n", encoding="utf-8")
    monkeypatch.setattr("profilerank.cli.generate_dataset", _never_called)
    monkeypatch.chdir(tmp_path)  # where an empty --out would write
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    out = {"file": taken, "under-a-file": taken / "out" / "x", "empty": ""}[where]
    extra = ["--genes", "50", "--seed", "1"] if command == "synth" else ["--grid", "0.5,1"]
    args = _rank_args(workdir, out, extra)
    args[0] = command
    args[args.index("--data") + 1] = str(bad)
    if command == "synth":
        del args[1:3]  # --data
    assert main(args) == 2
    assert ("--out must name the output directory, got an empty path" if where == "empty" else
            f"--out {out}: cannot create the output directory: {taken} is not a directory"
            ) in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "taken"]


def test_moderation_json_serializes_infinite_prior(tmp_path, pluripotent):
    from profilerank.cli import _write_moderation_json
    from profilerank.ranking import FittedExperiment

    fitted = FittedExperiment(
        model=None, fits=[],
        moderation=pr.ModerationResult(
            d0=math.inf, s0_2=0.07,
            posterior_s2=np.array([0.07]),
            posterior_df=np.array([math.inf]),
        ),
    )
    path = tmp_path / "moderation.json"
    _write_moderation_json(fitted, pluripotent, 0, 0.05, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["n_included"] == payload["n_excluded"] == 0
    assert payload["d0"] == "inf"
    assert payload["s0_2"] == 0.07


def test_one_overflowing_gene_leaves_the_other_genes_as_they_were(
    workdir, tmp_path, stemcell_design, analysis_profile
):
    # Scaled by 1e200 the gene's values are finite, but its s2 overflows.
    # It must not reach the shared prior: every other output is the same as
    # for the file without it.
    expr = pr.generate_dataset(
        stemcell_design, analysis_profile, n_genes=200, n_planted=5, seed=1
    ).expression
    values = expr.values.copy()
    values[0] *= 1e200
    inputs = {
        "with": pr.ExpressionMatrix(expr.gene_ids, expr.array_ids, values),
        "without": pr.ExpressionMatrix(expr.gene_ids[1:], expr.array_ids, expr.values[1:]),
    }
    for name, matrix in inputs.items():
        write_expression_csv(matrix, tmp_path / f"{name}.csv")
        args = _rank_args(workdir, tmp_path / name)
        args[args.index("--data") + 1] = str(tmp_path / f"{name}.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 0

    def read(name, file):
        return (tmp_path / name / file).read_text(encoding="utf-8")

    assert read("with", "ranked.csv") == read("without", "ranked.csv")
    excluded = read("with", "excluded.csv").splitlines()
    assert excluded[-1] == f"{expr.gene_ids[0]},non-finite fit,,,"
    assert excluded[:-1] == read("without", "excluded.csv").splitlines()
    with_gene, without = (json.loads(read(name, "moderation.json")) for name in inputs)
    assert with_gene.pop("n_excluded") == without.pop("n_excluded") + 1
    assert with_gene == without


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
        capture_output=True, encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "rank" in proc.stdout and "synth" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "profilerank", "--version"],
        capture_output=True, encoding="utf-8",
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


def test_fitted_relative_profile_of_an_unfit_gene_is_an_error(pluripotent, stemcell_model):
    fit = pr.GeneFit(gene_id="g", status="excluded", reason="all missing")
    with pytest.raises(ValueError, match="gene 'g': no fit to plot"):
        fitted_relative_profile(fit, pluripotent, stemcell_model)


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
    with open(workdir / "data" / "expression.csv", newline="", encoding="utf-8") as fh:
        rows = [["Ag01718,B<1>&" if row[0] == top else row[0], *row[1:]] for row in csv.reader(fh)]
    markup = tmp_path / "markup.csv"
    with open(markup, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    for data, legend in ((workdir / "data" / "expression.csv", f"1. {top}"),
                         (markup, "1. Ag01718,B<1>&")):
        out = tmp_path / data.stem
        args = _rank_args(workdir, out, ["--top-n", "6"])
        args[args.index("--data") + 1] = str(data)
        assert main(args) == 0
        root = ET.fromstring((out / "profiles.svg").read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 6
        assert legend in [e.text for e in root.iter() if e.tag.endswith("text")]


@pytest.mark.parametrize("name", pr.BUNDLED_PROFILES)
def test_svg_parses_as_xml_for_every_bundled_profile(workdir, tmp_path, name):
    profile = str(pr.bundled_data_path(f"{name}.profile"))
    model = ["--design", str(workdir / "design.csv"),
             "--conditions", str(workdir / "conditions.csv"), "--profile", profile]
    assert main(["synth", *model, "--genes", "300", "--planted", "8", "--seed", "7",
                 "--out", str(tmp_path / "data")]) == 0
    assert main(["rank", "--data", str(tmp_path / "data" / "expression.csv"), *model,
                 "--top-n", "6", "--out", str(tmp_path / "out")]) == 0
    root = ET.parse(tmp_path / "out" / "profiles.svg").getroot()
    assert root.tag.endswith("svg")
    assert any(e.tag.endswith("polyline") for e in root.iter())


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


@pytest.mark.parametrize("n_genes, height", [(28, 500), (40, 692)])
def test_svg_canvas_holds_every_legend_entry(n_genes, height):
    # Up to 28 genes the legend fits the 500-px canvas; past that the
    # canvas grows to hold it, and the plot area stays where it was.
    genes = [(f"g{i}", i + 1, np.array([0.0, 0.1 * i, -0.2 * i])) for i in range(n_genes)]
    root = ET.fromstring(render_profiles_svg(genes, ("d0", "d3", "d6"), "t"))
    assert float(root.get("height")) == height
    assert root.get("viewBox") == f"0 0 800 {height}"
    texts = [e for e in root.iter() if e.tag.endswith("text")]
    assert len(texts) > n_genes
    assert all(0.0 <= float(e.get("y")) <= height for e in texts)
    frame = next(e for e in root.iter() if e.tag.endswith("rect") and e.get("fill") == "none")
    assert (frame.get("y"), frame.get("height")) == ("48", "396")
