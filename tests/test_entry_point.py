"""The process entry, ``cli.run``, against ``cli.main``.

``python -m profilerank`` and the ``profilerank`` script call ``cli.run``:
``main()``, then ``gc.freeze()``, so that the collections at interpreter
exit skip what the run left alive. ``cli.main`` leaves the collector as it
found it, for the tests and library callers that go on running. The
process entry is checked in child processes, since a freeze would outlive
the test that made it.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import profilerank as pr
from profilerank import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(str(pr.bundled_data_path("design_stemcell.csv"))).parent
MODEL = [
    "--design", str(DATA / "design_stemcell.csv"),
    "--conditions", str(DATA / "conditions_stemcell.csv"),
    "--profile", str(DATA / "pluripotent.profile"),
]

# Runs the package as `python -m profilerank` does and prints the exit code
# and whether the collector was frozen at exit.
_AS_MODULE = """
import gc, json, runpy, sys
sys.argv = ["profilerank", *sys.argv[1:]]
try:
    runpy.run_module("profilerank", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, gc.get_freeze_count() > 0]))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    package_root = str(Path(pr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, encoding="utf-8")


def _last_line(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_run_freezes_the_collector_once_the_command_is_done():
    code = """
import gc, json
from profilerank import cli
before = gc.get_freeze_count()
code = cli.run()
print(json.dumps([before, code, gc.get_freeze_count()]))
"""
    before, exit_code, frozen = _last_line(_python("-c", code, "validate", *MODEL))
    assert (before, exit_code) == (0, 0)
    assert frozen > 0


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["validate", *MODEL], 0), (["validate", *MODEL, "--no-such-flag"], 2)],
    ids=["ok", "argparse-error"],
)
def test_python_m_profilerank_goes_through_run(argv, exit_code):
    # argparse exits by raising SystemExit inside main; run freezes then too.
    assert _last_line(_python("-c", _AS_MODULE, *argv)) == [exit_code, True]


def test_the_console_script_is_run():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^profilerank = "(.*)"$', text, flags=re.MULTILINE) == [
        "profilerank.cli:run"]


def test_python_m_profilerank_exit_codes_and_output(tmp_path):
    ok = _python("-m", "profilerank", "validate", *MODEL)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.endswith("all inputs valid\n") and ok.stderr == ""

    invalid = _python("-m", "profilerank", "validate", *MODEL, "--epsilon", "0")
    assert invalid.returncode == 2
    assert invalid.stderr == "error: --epsilon must be a finite number > 0, got 0.0\n"

    data = tmp_path / "expr.csv"
    data.write_text("gene_id,nope\ng1,1.0\n", encoding="utf-8")
    malformed = _python("-m", "profilerank", "validate", *MODEL, "--data", str(data))
    assert malformed.returncode == 3
    assert malformed.stderr.startswith("data error: ") and malformed.stdout == ""


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["validate", *MODEL], 0), (["validate", *MODEL, "--epsilon", "-1"], 2)],
    ids=["ok", "invalid-option"],
)
def test_main_leaves_the_collector_unfrozen(capsys, argv, exit_code):
    before = gc.get_freeze_count()
    assert cli.main(argv) == exit_code
    assert gc.get_freeze_count() == before
