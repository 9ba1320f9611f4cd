"""Run the profilerank CLI with timing spans around each layer call.

Usage: python traced.py SPANS_JSON <profilerank arguments...>

Replaces the public names the pipeline calls with wrappers that record a
span (name, start, end, parent) per call, runs ``profilerank.cli.main``,
and writes the spans, which stay in memory until then, to SPANS_JSON.
Span names are ``<layer module>.<step>``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from profilerank import cli, ranking

# (module whose global is replaced, attribute, span name, counts of the result)
WRAPPED = (
    (cli, "read_design_csv", "design.load", None),
    (cli, "profile_from_file", "profiles.load", None),
    (cli, "read_expression_csv", "fitting.read", None),
    (cli, "fit_experiment", "ranking.fit_experiment", None),
    (ranking, "compose_model_matrix", "design.compose", None),
    (ranking, "fit_all", "fitting.fit",
     lambda fits: {"genes": len(fits), "fit_ok": sum(f.ok for f in fits)}),
    (ranking, "moderate_variances", "fitting.moderate", None),
    (cli, "gene_statistics", "ranking.ustats", None),
    (cli, "rank_from_fits", "ranking.rank", lambda table: {"included": len(table.rows)}),
    (cli, "sweep_from_fits", "ranking.sweep",
     lambda sweep: {"included": [len(t.rows) for t in sweep.tables]}),
    (cli, "render_profiles_svg", "svgplot.render", None),
    (cli, "generate_dataset", "synth.generate", None),
    (cli, "write_expression_csv", "synth.write", None),
)


class Tracer:
    """In-memory span recorder; a span's parent is the innermost span open
    when it started (the pipeline is single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(result)
            return result

        return traced


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    for module, attr, name, counts in WRAPPED:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, counts))
    try:
        return tracer.wrap(cli.main, "cli.main")(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
