#!/usr/bin/env python3
"""End-to-end benchmark of the profilerank command line.

    python3 perfbench/run.py --workload rank_sweep_complete --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout; the program is run from ``src/``.
A closed loop with one caller: each invocation is a fresh
``python -m profilerank ...`` child, started only after the previous one
exited, writing into a new output directory that is checked and removed.
Between invocations, ``python -m profilerank validate`` measures the
program's set-up cost, and ``calibrate.py``, a fixed task, measures the
host's current speed; end-to-end times are scaled by it. Inputs are
generated from ``--seed`` before timing starts.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced invocations with invocations under ``traced.py``, which records a
span around each layer call, and reports per-layer metrics from the traced
ones; the difference of the two medians is the tracing overhead. A table
of the metrics measured (all of them with ``--trace 1``) precedes the last
line of standard output, one JSON object with the metrics of the chosen
mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
# Typical wall time of calibrate.py on the machine the bounds were set on
# (2 cores, Python 3.11, numpy 2.4); the scale of the end-to-end times.
CALIBRATION_REF_S = 0.35


@dataclass
class Sample:
    """One checked invocation."""

    wall_s: float
    peak_rss_mb: float
    extra: dict = field(default_factory=dict)
    spans: list | None = None


class Runner:
    """Invokes the CLI through launcher.py, checks every invocation and
    counts failures. Start it before the inputs are generated."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        """Stop the launcher; it kills a child still running."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.launcher.terminate()
            self.launcher.wait()

    def spawn(self, cmd: list[str], tmp: Path) -> dict:
        return self.request({"cmd": cmd, "stdout": str(tmp / "stdout"),
                             "stderr": str(tmp / "stderr"), "timeout": CHILD_TIMEOUT_S})

    def calibrate(self) -> float:
        """Wall time of one run of calibrate.py."""
        tmp = Path(tempfile.mkdtemp(dir=self.work))
        try:
            reply = self.spawn([sys.executable, str(BENCH / "calibrate.py")], tmp)
        finally:
            shutil.rmtree(tmp)
        if reply["returncode"] != 0:
            raise RuntimeError(f"calibrate.py exited with {reply['returncode']}")
        return reply["wall_s"]

    def request(self, request: dict) -> dict:
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited")
        return json.loads(reply)

    def invoke(self, cli_argv, check, traced: bool = False) -> Sample:
        """``cli_argv(out)`` gives the CLI arguments for output directory
        ``out``; ``check(tmp)`` returns (problems, extra)."""
        tmp = Path(tempfile.mkdtemp(dir=self.work))
        try:
            argv = cli_argv(tmp / "out")
            if traced:
                cmd = [sys.executable, str(BENCH / "traced.py"), str(tmp / "spans.json"), *argv]
            else:
                cmd = [sys.executable, "-m", "profilerank", *argv]
            reply = self.spawn(cmd, tmp)
            code = reply["returncode"]
            self.attempted += 1
            if code != 0:
                tail = (tmp / "stderr").read_text(errors="replace")[-400:]
                problems, extra = [f"exit code {code}: {tail}"], {}
            else:
                try:
                    problems, extra = check(tmp)
                except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                    problems, extra = [f"unreadable output: {exc!r}"], {}
            if problems:
                self.failed += 1
                print(f"# FAILED {argv[0]}: {'; '.join(problems)}", file=sys.stderr)
            spans = None
            if traced and code == 0:
                spans = json.loads((tmp / "spans.json").read_text(encoding="utf-8"))
            return Sample(reply["wall_s"], reply["peak_rss_mb"], extra, spans)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _check_validate(tmp: Path):
    text = (tmp / "stdout").read_text(encoding="utf-8")
    return ([] if "all inputs valid" in text else ["validate did not report valid inputs"]), {}


def rank_check(inputs, reference, sweep: bool):
    """Checker for ``rank`` invocations on ``inputs``; the reference and
    the planted-gene checks apply at the default seed only."""
    from workloads import DEFAULT_SEED

    gene_ids = checks.input_gene_ids(inputs.expression)
    planted = checks.truth_roles(inputs.truth)
    at_default = inputs.seed == DEFAULT_SEED
    input_changed = at_default and inputs.sha256 != reference.input_sha256

    def check(tmp: Path):
        out = tmp / "out"
        problems = checks.check_rank(out, gene_ids, sweep)
        identical = None
        if at_default and not problems:
            if input_changed:
                problems.append("default-seed input differs from the one the reference was recorded on")
            problems += checks.check_planted(out, planted)
            reference_problems, identical = reference.compare(out)
            problems += reference_problems
        return problems, {"bytes_written": _bytes_written(out), "byte_identical": identical}

    return check


def synth_check(inputs):
    expected = {
        "expression.csv": inputs.expression.read_bytes(),
        "truth.csv": inputs.truth.read_bytes(),
    }

    def check(tmp: Path):
        out = tmp / "out"
        problems, identical = checks.check_synth(out, expected)
        return problems, {"bytes_written": _bytes_written(out), "byte_identical": identical}

    return check


def machine_record() -> dict:
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                blas_threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def span_totals(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name."""
    total: dict[str, float] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
    return total


def layer_metrics(sample: Sample, counts: dict) -> dict:
    """Per-layer numbers from one traced invocation. A layer the workload
    does not reach reads 0."""
    from workloads import GRID

    total = span_totals(sample.spans)
    result = {s["name"]: s.get("counts", {}) for s in sample.spans}
    root = next(i for i, s in enumerate(sample.spans) if s["name"] == "cli.main")
    children = sum(s["end"] - s["start"] for s in sample.spans if s["parent"] == root)
    t = lambda name: total.get(name, 0.0)  # noqa: E731

    fit = result.get("fitting.fit", {})
    genes = fit.get("genes", 0)
    swept = result.get("ranking.sweep", {}).get("included", [])
    m = {
        "fitting.fit_s": t("fitting.fit"),
        "fitting.fit_us_per_gene": t("fitting.fit") / genes * 1e6 if genes else 0.0,
        "fitting.read_s": t("fitting.read"),
        "fitting.read_MBps": counts["input_bytes"] / t("fitting.read") / 1e6 if t("fitting.read") else 0.0,
        "fitting.moderate_s": t("fitting.moderate"),
        "fitting.genes": genes,
        "fitting.partial_genes": counts["partial_genes"] if genes else 0,
        "fitting.patterns": counts["missing_patterns"] if genes else 0,
        "fitting.fit_ok_frac": fit.get("fit_ok", 0) / genes if genes else 0.0,
        "ranking.sweep_s": t("ranking.sweep"),
        "ranking.sweep_s_per_margin": t("ranking.sweep") / len(swept) if swept else 0.0,
        "ranking.ustats_s": t("ranking.ustats"),
        "ranking.rank_s": t("ranking.rank"),
        "ranking.included": result.get("ranking.rank", {}).get("included", 0),
        "design.load_s": t("design.load"),
        "design.compose_s": t("design.compose"),
        "profiles.load_s": t("profiles.load"),
        "svgplot.render_s": t("svgplot.render"),
        "cli.self_s": t("cli.main") - children,
        "cli.bytes_written": sample.extra.get("bytes_written", 0),
        "synth.generate_s": t("synth.generate"),
        "synth.write_s": t("synth.write"),
        "synth.write_MBps": counts["input_bytes"] / t("synth.write") / 1e6 if t("synth.write") else 0.0,
    }
    for i, eps in enumerate(GRID):
        m[f"ranking.included_eps_{eps:g}"] = swept[i] if swept else 0
    return m


def measure(args, work: Path, runner: Runner) -> tuple[dict, dict]:
    """Generate inputs, run the closed loop for ``args.seconds``; returns
    (end-to-end metrics, per-layer metrics)."""
    import workloads as wl

    command, missing, extra = wl.WORKLOADS[args.workload]
    print(f"# machine {json.dumps(machine_record())}")
    inputs = wl.generate_inputs(args.seed, missing, work / "inputs")
    print(f"# inputs {args.workload} seed={args.seed} sha256={inputs.sha256} "
          f"{json.dumps(inputs.counts)}")

    def workload_argv(out):
        return wl.cli_args(args.workload, inputs, out)

    def setup_argv(out):
        return wl.setup_args()

    byte_identical = None
    if command == "synth":
        check = synth_check(inputs)
    else:
        reference = checks.Reference(args.workload)
        sweep = "--grid" in extra
        check = rank_check(inputs, reference, sweep)
        if args.trace and args.seed != wl.DEFAULT_SEED:
            # A traced run always compares once with the reference.
            ref_inputs = wl.generate_inputs(wl.DEFAULT_SEED, missing, work / "reference")
            sample = runner.invoke(
                lambda out: wl.cli_args(args.workload, ref_inputs, out),
                rank_check(ref_inputs, reference, sweep),
            )
            byte_identical = sample.extra.get("byte_identical")

    runner.invoke(setup_argv, _check_validate)  # warm-up: page cache and bytecode
    plain: list[Sample] = []
    traced: list[Sample] = []
    setup: list[float] = []
    calibration: list[float] = []
    iterations: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        began = time.perf_counter()
        calibration.append(runner.calibrate())
        plain.append(runner.invoke(workload_argv, check))
        if args.trace:
            traced.append(runner.invoke(workload_argv, check, traced=True))
        setup.append(runner.invoke(setup_argv, _check_validate).wall_s)
        calibration.append(runner.calibrate())
        now = time.perf_counter()
        iterations.append(now - began)
        if now + statistics.median(iterations) > deadline:
            break

    walls = [s.wall_s for s in plain]
    wall_raw = _median(walls)
    # Host speed drifts by tens of percent over minutes on a shared machine;
    # calibrate.py runs next to every invocation and scales it out.
    scale = CALIBRATION_REF_S / _median(calibration)
    print(f"# raw wall_s {_quartiles(walls)}; setup_s {_quartiles(setup)}; "
          f"calibration_s {_quartiles(calibration)}; measured {time.perf_counter() - start:.1f} s")
    e2e = {
        "wall_s": wall_raw * scale,
        "genes_per_s": wl.GENES / (wall_raw * scale),
        "peak_rss_mb": _median([s.peak_rss_mb for s in plain]),
        "setup_s": _median(setup) * scale,
    }
    layers = {}
    if args.trace:
        ok = [s for s in traced if s.spans is not None]
        totals = [span_totals(s.spans) for s in ok]
        by_span = {name: _median([t.get(name, 0.0) for t in totals]) for name in set().union(*totals)}
        print("# span median_s " + json.dumps(
            {name: round(v, 4) for name, v in sorted(by_span.items(), key=lambda kv: -kv[1])}
        ))
        per_run = [layer_metrics(s, inputs.counts) for s in ok]
        layers = {name: _median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
        if byte_identical is None:
            byte_identical = plain[0].extra.get("byte_identical")
        layers["cli.outputs_byte_identical"] = byte_identical or 0
        layers["trace_overhead_s"] = _median([s.wall_s for s in traced]) - wall_raw
        layers["failed_frac"] = runner.failed / runner.attempted
        layers["host.calibration_s"] = _median(calibration)
        layers["host.wall_raw_s"] = wall_raw
        layers["host.setup_raw_s"] = _median(setup)
    return e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "profilerank").is_dir() or not spec_path.is_file():
        print(f"error: run from a profilerank checkout: {SRC / 'profilerank'} "
              f"or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(work)
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        e2e, layers = measure(args, work, runner)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    # A per-layer value is missing only when every traced invocation failed.
    values = {**e2e, **layers}
    for metric in shown:
        print(f"{metric['name']:<30} {values.get(metric['name'], 0.0):>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
