#!/usr/bin/env python3
"""Record the default-seed reference outputs the benchmark compares with.

    python3 perfbench/record_reference.py

Generates the default-seed input of each rank workload, runs the CLI on it
once and stores the compared outputs gzipped under ``perfbench/reference/``
with the input's SHA-256. Re-record only for a deliberate change of output.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, (command, missing, extra) in wl.WORKLOADS.items():
            if command != "rank":
                continue
            inputs = wl.generate_inputs(wl.DEFAULT_SEED, missing, work / name)
            out = work / name / "out"
            subprocess.run(
                [sys.executable, "-m", "profilerank", *wl.cli_args(name, inputs, out)],
                cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            files = list(checks.RANK_FILES)
            if "--grid" in extra:
                files.append(checks.SWEEP_FILE)
            target = checks.REFERENCE_DIR / name
            target.mkdir(parents=True, exist_ok=True)
            for file in files:
                data = gzip.compress((out / file).read_bytes(), compresslevel=9, mtime=0)
                (target / f"{file}.gz").write_bytes(data)
            manifest = {
                "seed": wl.DEFAULT_SEED,
                "input_sha256": inputs.sha256,
                "files": files,
            }
            (target / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
            print(f"recorded {name}: {', '.join(files)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
