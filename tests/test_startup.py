"""What a start imports, and the names that stay replaceable.

The package and ``profilerank.cli`` import a module on first use of one of
its names, so each subcommand imports only the modules it runs. Which
modules a command imports is checked in a fresh interpreter, since this
process has imported them all. The names ``perfbench/traced.py`` wraps stay
attributes of ``cli`` that every command calls through.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import profilerank as pr
from profilerank import cli

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
DATA = Path(str(pr.bundled_data_path("design_stemcell.csv"))).parent
MODEL = [
    "--design", str(DATA / "design_stemcell.csv"),
    "--conditions", str(DATA / "conditions_stemcell.csv"),
    "--profile", str(DATA / "pluripotent.profile"),
    "--delta", "day6_vs_day9=1.5",
]
PIPELINE = {"fitting", "ranking", "special", "svgplot", "synth", "outputs"}

# Runs cli.main on its arguments and prints the exit code and the package's
# modules then imported.
_MAIN = """
import json, sys
from profilerank import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("profilerank."))]))
"""


def _child(code: str, *args: str) -> str:
    package_root = str(Path(pr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _modules(*argv: str) -> set[str]:
    code, modules = json.loads(_child(_MAIN, *argv))
    assert code == 0
    return set(modules)


@pytest.fixture(scope="module")
def expression(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert cli.main(["synth", *MODEL, "--genes", "300", "--planted", "10", "--seed", "3",
                     "--out", str(out)]) == 0
    return str(out / "expression.csv")


def test_importing_the_package_imports_no_submodule():
    code = """
import sys
import profilerank
before = sorted(m for m in sys.modules if m.startswith("profilerank."))
from profilerank import ranking
print(before, ranking is sys.modules["profilerank.ranking"])
"""
    assert _child(code) == "[] True"


def test_a_submodule_is_an_attribute_of_the_package():
    # Each in a fresh interpreter, so that no import has set the attribute
    # before it is read.
    code = """
import sys
import profilerank
name = sys.argv[1]
module = getattr(profilerank, name)
print(module is sys.modules["profilerank." + name], name in dir(profilerank))
"""
    for name in pr._MODULES:
        assert _child(code, name) == "True True", name


def test_every_module_is_an_attribute_of_the_package():
    # A module missing here would be found only after __getattr__ has
    # searched, and so imported, every public module.
    files = {path.stem for path in Path(pr.__file__).parent.glob("*.py")}
    assert sorted(pr._MODULES) == sorted(files - {"__init__", "__main__"})


# The package's modules that the first use of a name imports, for one name
# from each public module: the public modules up to its own, in the
# package's order, and the modules they import.
FIRST_USE = {
    "DataError": {"errors"},
    "read_design_csv": {"errors", "design"},
    "bundled_profile": {"errors", "design", "profiles"},
    "fit_all": {"errors", "design", "profiles", "fitting", "special"},
    "render_profiles_svg": {"errors", "design", "profiles", "fitting", "special", "svgplot"},
    "generate_dataset": {"errors", "design", "profiles", "fitting", "special", "svgplot",
                         "synth"},
    "analyze": {"errors", "design", "profiles", "fitting", "special", "svgplot", "synth",
                "ranking"},
}


@pytest.mark.parametrize("name", FIRST_USE)
def test_the_first_use_of_a_name_imports_the_public_modules_up_to_its_own(name):
    code = """
import json, sys
import profilerank
getattr(profilerank, sys.argv[1])
print(json.dumps([sorted(m.split(".", 1)[1] for m in sys.modules
                         if m.startswith("profilerank.")), "numpy" in sys.modules]))
"""
    modules, numpy = json.loads(_child(code, name))
    assert set(modules) == FIRST_USE[name]
    assert numpy == (name != "DataError")


def test_validate_imports_no_pipeline_module(expression):
    plain = _modules("validate", *MODEL)
    assert not plain & PIPELINE
    assert _modules("validate", *MODEL, "--data", expression) - plain == {"fitting", "special"}


def test_synth_imports_no_ranking_module(tmp_path):
    loaded = _modules("synth", *MODEL, "--genes", "50", "--seed", "1",
                      "--out", str(tmp_path / "out"))
    assert "synth" in loaded
    assert not loaded & {"ranking", "svgplot", "outputs"}


@pytest.mark.parametrize("command", ["rank", "sensitivity"])
def test_rank_and_sensitivity_import_no_synth(expression, tmp_path, command):
    loaded = _modules(command, "--data", expression, *MODEL, "--grid", "0.5,1",
                      "--out", str(tmp_path / "out"))
    assert "ranking" in loaded and "synth" not in loaded


def test_commands_call_the_wrappers_set_on_cli_before_the_first_command(tmp_path):
    # Wrap every name traced.py wraps before any command has run, as it
    # does; each wrapper must run, and stay bound.
    code = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_traced", sys.argv[1])
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)
from profilerank import cli
calls, wrappers = {}, {}
def counting(fn, attr):
    def wrapper(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return fn(*args, **kwargs)
    return wrapper
for module, attr, _, _ in traced.WRAPPED:
    wrappers[attr] = counting(getattr(module, attr), attr)
    setattr(module, attr, wrappers[attr])
out, model = sys.argv[2], sys.argv[3:]
codes = [
    cli.main(["synth", *model, "--genes", "300", "--planted", "10", "--seed", "2",
              "--out", out + "/synth"]),
    cli.main(["rank", "--data", out + "/synth/expression.csv", *model, "--grid", "0.5,1",
              "--out", out + "/rank"]),
]
kept = all(getattr(module, attr) is wrappers[attr] for module, attr, _, _ in traced.WRAPPED)
print(json.dumps([codes, calls, kept]))
"""
    codes, calls, kept = json.loads(_child(code, str(TRACED), str(tmp_path), *MODEL))
    assert codes == [0, 0]
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for _, attr, _, _ in traced.WRAPPED:
        assert calls.get(attr, 0) >= 1, f"{attr} was not called through its wrapper"
    assert kept


def test_every_public_name_resolves_to_its_definition():
    declared = {module: importlib.import_module(f"profilerank.{module}").__all__
                for module in pr._PUBLIC}
    for name in pr.__all__:
        obj = getattr(pr, name)
        defined = [module for module, names in declared.items() if name in names]
        assert len(defined) == 1, name
        module = importlib.import_module(f"profilerank.{defined[0]}")
        assert obj is getattr(module, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name
        assert name in dir(pr)
    assert "__version__" in dir(pr)


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from profilerank import *", scope)
    assert {name: scope[name] for name in pr.__all__} == {
        name: getattr(pr, name) for name in pr.__all__}


def test_an_unknown_name_raises_attribute_error():
    for module in (pr, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
        assert not hasattr(module, "fit_all_genes")
