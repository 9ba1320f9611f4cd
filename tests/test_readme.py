"""The README's library example runs as written."""

import re
import shutil
import warnings
from pathlib import Path

import profilerank as pr
from profilerank.synth import write_expression_csv

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
