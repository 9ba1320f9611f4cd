"""``rank`` on the benchmark's inputs writes the outputs kept in
``perfbench/reference/``.

The benchmark compares each invocation with these files. This test runs the
same two ``rank`` workloads in process at the default seed, so that a change
in any output byte fails the test suite, not only a benchmark run.
``moderation.json`` holds full-precision floats. Only the per-pattern
least-squares operators go through LAPACK and BLAS, and another build of
those may round them differently in the last bit, so the file is held to
the benchmark's own comparison instead of byte identity.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from profilerank.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    # Read-only import of a perfbench module, which is not a package.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["rank_sweep_complete", "rank_missing"])
def test_rank_writes_the_reference_outputs(tmp_path, monkeypatch, workload):
    workloads = _load("workloads", monkeypatch)
    reference = _load("checks", monkeypatch).Reference(workload)
    _, missing, _ = workloads.WORKLOADS[workload]
    inputs = workloads.generate_inputs(workloads.DEFAULT_SEED, missing, tmp_path / "inputs")
    assert inputs.sha256 == reference.input_sha256

    out = tmp_path / "out"
    assert main(workloads.cli_args(workload, inputs, out)) == 0
    for name, want in reference.files.items():
        if name != "moderation.json":
            assert (out / name).read_bytes() == want, name
    problems, _ = reference.compare(out)
    assert problems == []
