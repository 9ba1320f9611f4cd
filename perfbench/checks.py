"""Correctness checks on the files one CLI invocation wrote.

Each check returns a list of problems; an empty list means the invocation
is correct. Nothing here trusts the program's own summary line.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

RANK_FILES = ("ranked.csv", "excluded.csv", "moderation.json", "profiles.svg")
SWEEP_FILE = "sensitivity.csv"
SYNTH_FILES = ("expression.csv", "truth.csv")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VIOLATED = "criterion violated"


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def input_gene_ids(expression: Path) -> list[str]:
    return [row[0] for row in _rows(expression)[1]]


def truth_roles(truth: Path) -> dict[str, str]:
    """gene id -> role for every planted gene in a truth file."""
    header, rows = _rows(truth)
    planted, role = header.index("planted"), header.index("role")
    return {row[0]: row[role] for row in rows if row[planted] == "1"}


def _u_columns(header: list[str]) -> list[int]:
    return [i for i, name in enumerate(header) if name.startswith("U_")]


def check_rank(out: Path, gene_ids: list[str], sweep: bool) -> list[str]:
    """Invariants of a ``rank`` run that hold for any input."""
    names = RANK_FILES + ((SWEEP_FILE,) if sweep else ())
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return [f"missing output files: {missing}"]
    problems = []
    r_header, ranked = _rows(out / "ranked.csv")
    e_header, excluded = _rows(out / "excluded.csv")

    seen = [row[1] for row in ranked] + [row[0] for row in excluded]
    if sorted(seen) != sorted(gene_ids):
        problems.append("ranked.csv + excluded.csv do not list every input gene exactly once")

    if [int(row[0]) for row in ranked] != list(range(1, len(ranked) + 1)):
        problems.append("ranks are not contiguous from 1")
    u_col, u_cols = r_header.index("U"), _u_columns(r_header)
    scores = [float(row[u_col]) for row in ranked]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("U increases down ranked.csv")
    for row, u in zip(ranked, scores):
        u_i = [float(row[i]) for i in u_cols]
        if not u_i or min(u_i) <= 0.0 or u != min(u_i):
            problems.append(f"ranked gene {row[1]}: U={u} with U_i={u_i}")
            break

    e_cols = _u_columns(e_header)
    for row in excluded:
        if row[1] == VIOLATED and not any(float(row[i]) <= 0.0 for i in e_cols):
            problems.append(f"excluded gene {row[0]}: 'criterion violated' with every U_i > 0")
            break

    moderation = json.loads((out / "moderation.json").read_text(encoding="utf-8"))
    if (moderation["n_included"], moderation["n_excluded"]) != (len(ranked), len(excluded)):
        problems.append("moderation.json counts disagree with ranked.csv / excluded.csv")

    if sweep:
        problems += _check_nested(out / SWEEP_FILE)
    return problems


def check_planted(out: Path, planted: dict[str, str]) -> list[str]:
    """The ``planted_top`` gene ranks 1 and every planted gene is included.
    Properties of the sampled data rather than of the program: they hold at
    the default seed, so they are checked there only."""
    problems = []
    rank_of = {row[1]: int(row[0]) for row in _rows(out / "ranked.csv")[1]}
    top = [gene for gene, role in planted.items() if role == "planted_top"]
    if [rank_of.get(gene) for gene in top] != [1]:
        problems.append(f"planted_top gene {top} does not rank 1")
    lost = sorted(set(planted) - set(rank_of))
    if lost:
        problems.append(f"planted genes not included: {lost}")
    return problems


def _check_nested(path: Path) -> list[str]:
    header, rows = _rows(path)
    included = [{row[0] for row in rows if row[col]} for col in range(1, len(header))]
    for (a, set_a), (b, set_b) in zip(
        zip(header[1:], included), zip(header[2:], included[1:])
    ):
        if not set_a <= set_b:
            return [f"sensitivity.csv: genes included at {a} but not at {b}"]
    return []


def _same_cell(ref: str, got: str) -> bool:
    """Equal text, or finite numbers within one unit in the 6th
    significant digit."""
    if ref == got:
        return True
    try:
        r, g = float(ref), float(got)
    except ValueError:
        return False
    if r == g:
        return True
    if not (math.isfinite(r) and math.isfinite(g)):
        return False
    unit = 10.0 ** (math.floor(math.log10(max(abs(r), abs(g)))) - 5)
    return abs(r - g) <= unit * (1 + 1e-9)


def _compare_table(name: str, ref: bytes, got: bytes, key_cols: int) -> list[str]:
    ref_rows = list(csv.reader(ref.decode("utf-8").splitlines()))
    got_rows = list(csv.reader(got.decode("utf-8").splitlines()))
    if len(ref_rows) != len(got_rows):
        return [f"{name}: {len(got_rows)} lines, reference has {len(ref_rows)}"]
    for lineno, (r, g) in enumerate(zip(ref_rows, got_rows), start=1):
        if (lineno == 1 or len(r) != len(g) or r[:key_cols] != g[:key_cols]) and r != g:
            return [f"{name}:{lineno}: {g[:key_cols + 1]} differs from reference {r[:key_cols + 1]}"]
        for col, (a, b) in enumerate(zip(r, g)):
            if not _same_cell(a, b):
                return [f"{name}:{lineno}: column {col + 1}: {b!r} vs reference {a!r}"]
    return []


def _compare_moderation(ref: bytes, got: bytes) -> list[str]:
    r, g = json.loads(ref), json.loads(got)
    if r.keys() != g.keys():
        return ["moderation.json: keys differ from reference"]
    for key in r:
        if not _same_cell(json.dumps(r[key], sort_keys=True), json.dumps(g[key], sort_keys=True)):
            return [f"moderation.json: {key}={g[key]!r} vs reference {r[key]!r}"]
    return []


# Leading columns that must match exactly: they carry gene order, excluded
# ids and exclusion reasons.
_KEY_COLUMNS = {"ranked.csv": 2, "excluded.csv": 2, SWEEP_FILE: 1}


class Reference:
    """Outputs recorded at the default seed for one rank workload."""

    def __init__(self, workload: str):
        directory = REFERENCE_DIR / workload
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        self.input_sha256 = manifest["input_sha256"]
        self.files = {
            name: gzip.decompress((directory / f"{name}.gz").read_bytes())
            for name in manifest["files"]
        }

    def compare(self, out: Path) -> tuple[list[str], int]:
        """Problems against the reference, and how many files are
        byte-identical to it (reported, not gated)."""
        problems, identical = [], 0
        for name, ref in self.files.items():
            path = out / name
            if not path.is_file():
                problems.append(f"missing {name}")
                continue
            got = path.read_bytes()
            if got == ref:
                identical += 1
            elif name == "moderation.json":
                problems += _compare_moderation(ref, got)
            elif name in _KEY_COLUMNS:
                problems += _compare_table(name, ref, got, _KEY_COLUMNS[name])
        return problems, identical


def check_synth(out: Path, expected: dict[str, bytes]) -> tuple[list[str], int]:
    """``synth`` output must be byte-identical to the library's output for
    the same seed."""
    problems, identical = [], 0
    for name in SYNTH_FILES:
        path = out / name
        if not path.is_file():
            problems.append(f"missing {name}")
        elif path.read_bytes() != expected[name]:
            problems.append(f"{name} differs from the library output for this seed")
        else:
            identical += 1
    return problems, identical
