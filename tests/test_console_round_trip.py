"""The README's command-line round trip, run through the console script,
and the acceptance suite's report, run as a shell user runs it.

Each command runs in a child process, with ``RuntimeWarning`` raised as an
error. The ``profilerank`` console script is used where it is installed and
``python -m profilerank`` otherwise; both call ``profilerank.cli.main`` from
the package these tests import.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import profilerank as pr

DATA = Path(str(pr.bundled_data_path("design_stemcell.csv"))).parent
MODEL = [
    "--design", str(DATA / "design_stemcell.csv"),
    "--conditions", str(DATA / "conditions_stemcell.csv"),
    "--profile", str(DATA / "pluripotent.profile"),
    "--delta", "day6_vs_day9=1.5",
]
OUTPUTS = [
    "bench/expression.csv", "bench/truth.csv",
    "results/ranked.csv", "results/excluded.csv", "results/moderation.json",
    "results/profiles.svg", "results/sensitivity.csv",
    "sweep/sensitivity.csv", "sweep/ranked_eps_0.5.csv", "sweep/ranked_eps_1.csv",
    "sweep/moderation.json",
]


def _run(command: list[str], cwd: Path) -> subprocess.CompletedProcess:
    package_root = str(Path(pr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, encoding="utf-8")


def _console(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    script = shutil.which("profilerank")
    command = [script] if script else [sys.executable, "-m", "profilerank"]
    return _run([*command, *args], cwd)


def _ok(cwd: Path, *args: str) -> None:
    proc = _console(cwd, *args)
    assert proc.returncode == 0, (args[0], proc.stderr)


def test_readme_round_trip_through_the_console_script(tmp_path):
    # synth -> rank --grid -> sensitivity --grid -> validate, and every
    # output file they write is there and not empty.
    data = "bench/expression.csv"
    _ok(tmp_path, "synth", *MODEL, "--genes", "500", "--planted", "20", "--seed", "42",
        "--out", "bench")
    _ok(tmp_path, "rank", "--data", data, *MODEL, "--grid", "0.5,1", "--top-n", "15",
        "--out", "results")
    _ok(tmp_path, "sensitivity", "--data", data, *MODEL, "--grid", "0.5,1", "--out", "sweep")
    _ok(tmp_path, "validate", *MODEL, "--data", data)
    for name in OUTPUTS:
        path = tmp_path / name
        assert path.is_file() and path.stat().st_size > 0, f"missing output: {name}"

    # Two genes without their day0/day3, day0/day9 and day3/day6 arrays
    # (0-based columns i >= 1 with (i - 1) % 5 < 3) keep 8 arrays of rank 2
    # for 3 coefficients: the stacked fit excludes both, without a warning.
    lines = (tmp_path / data).read_text(encoding="utf-8").splitlines(keepends=True)
    holes = []
    for cells in (lines[1].rstrip("\n").split(","), lines[2].rstrip("\n").split(",")):
        holes.append(cells[0])
        lines[len(holes)] = ",".join(
            [cells[0]] + ["" if (i - 1) % 5 < 3 else c for i, c in enumerate(cells) if i]
        ) + "\n"
    (tmp_path / "holes.csv").write_text("".join(lines), encoding="utf-8")
    _ok(tmp_path, "rank", "--data", "holes.csv", *MODEL, "--out", "holes")
    excluded = (tmp_path / "holes" / "excluded.csv").read_text(encoding="utf-8").splitlines()
    for gene_id in holes:
        assert f"{gene_id},insufficient data,,," in excluded, gene_id

    # A design row with an unknown condition exits 2 naming its file and line.
    design = (DATA / "design_stemcell.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    bad = [line.replace("p21_3,day6,", "p21_3,day7,", 1) if line.startswith("p21_3,day6,")
           else line for line in design]
    assert bad != design
    (tmp_path / "design.csv").write_text("".join(bad), encoding="utf-8")
    proc = _console(tmp_path, "validate", "--design", "design.csv",
                    "--conditions", str(DATA / "conditions_stemcell.csv"),
                    "--profile", str(DATA / "pluripotent.profile"))
    assert proc.returncode == 2, proc.stderr
    assert "design.csv:4: " in proc.stderr


def test_acceptance_criteria_each_report_pass():
    # The acceptance suite as a shell user runs it, with its output shown:
    # it passes, and criteria 1-8 each print their PASS line, in order.
    tests = Path(__file__).resolve().parent
    proc = _run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                 str(tests / "test_acceptance.py")], tests.parent)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    passed = re.findall(r"^ACCEPTANCE (\d+) PASS", proc.stdout, flags=re.MULTILINE)
    assert passed == [str(n) for n in range(1, 9)], proc.stdout[-2000:]
