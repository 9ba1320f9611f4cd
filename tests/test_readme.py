"""The README runs as written: its library example runs, and its install block,
its flags and its import table name what the project has."""

import argparse
import re
import shutil
import warnings
from pathlib import Path

import profilerank as pr
from profilerank.cli import build_parser
from profilerank.synth import write_expression_csv
from test_startup import MODEL, _modules

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, stemcell_design, pluripotent, capsys):
    for name, as_name in [("conditions_stemcell.csv", "conditions.csv"),
                          ("design_stemcell.csv", "design.csv"),
                          ("pluripotent.profile", "pluripotent.profile")]:
        shutil.copyfile(pr.bundled_data_path(name), tmp_path / as_name)
    expr = pr.generate_dataset(stemcell_design, pluripotent, n_genes=500, n_planted=20,
                               seed=42).expression
    write_expression_csv(expr, tmp_path / "expression.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(_library_example(), str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert namespace["sweep"].epsilons == (0.5, 1.0, 1.5, 2.0)


def test_install_block_names_every_test_extra():
    # A regex, not tomllib, which Python 3.10 lacks.
    extra = re.search(r"^test = \[(.*?)\]", PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    wanted = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
              for spec in re.findall(r'"([^"]+)"', extra.group(1))]
    section = README.read_text(encoding="utf-8").split("## Install and test", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    installed = {word for line in block.splitlines() if line.startswith("pip install")
                 for word in line.split("#", 1)[0].split()}
    assert wanted and set(wanted) <= installed, sorted(set(wanted) - installed)


def _cli_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and of its subcommands' parsers."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _cli_options(sub)
    return options


def test_every_flag_the_readme_names_is_a_cli_option():
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", README.read_text(encoding="utf-8")))
    named.discard("--no-build-isolation")  # pip's, in the install block
    unknown = named - _cli_options(build_parser())
    assert named and not unknown, sorted(unknown)


def _import_table() -> tuple[set[str], dict[str, set[str]]]:
    """The modules the README's import table says every command imports, and
    per invocation the modules it names besides those."""
    section = README.read_text(encoding="utf-8").split("Each command imports only", 1)[1]
    header = re.search(r"^\| invocation +\|(.*)\|$", section, re.M).group(1)
    rows = re.findall(r"^\| `([^`]+)` +\|(.*)\|$", section, re.M)
    return (set(re.findall(r"`(\w+)`", header)),
            {command: set(re.findall(r"`(\w+)`", cell)) for command, cell in rows})


def test_import_table_names_what_each_invocation_imports(tmp_path):
    base, table = _import_table()
    data = str(tmp_path / "synth" / "expression.csv")
    argv = {  # synth first: it writes the data the others read
        "synth": ["synth", *MODEL, "--genes", "50", "--seed", "1",
                  "--out", str(tmp_path / "synth")],
        "validate": ["validate", *MODEL],
        "validate --data": ["validate", *MODEL, "--data", data],
        "rank": ["rank", *MODEL, "--data", data, "--out", str(tmp_path / "rank")],
        "sensitivity": ["sensitivity", *MODEL, "--data", data, "--grid", "0.5,1",
                        "--out", str(tmp_path / "sensitivity")],
    }
    assert sorted(table) == sorted(argv)
    for invocation, args in argv.items():
        assert _modules(*args) == base | table[invocation], invocation
