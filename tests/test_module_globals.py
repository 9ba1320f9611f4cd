"""No function in the package reads a global its module never defines,
and no module imports a name it never reads.

Each module's source is compiled and every code object in it walked with
``dis``: a ``LOAD_GLOBAL`` or ``LOAD_NAME`` must name something the module
binds at its top level (an assignment, a ``def``, a ``class`` or an import),
a name some function declares ``global`` and stores, a builtin, or a module
attribute Python sets. A name bound only at run time, by writing to
``globals()``, is flagged: a command path that misses the write fails with
a ``NameError``.

Imports are checked on each module's syntax tree: every name an import
binds must be read somewhere in the module or be listed in ``__all__``.
So are file opens: only ``errors`` calls ``open`` or a path's own read and
write methods, so that every input is decoded, and every failed read or
write reported, by one rule. And the block size has one binding, which
every module that cuts genes into blocks reads.
"""

import ast
import builtins
import dis
import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import profilerank as pr
from profilerank import cli, expression, fitting, outputs, synth

SOURCES = sorted(Path(pr.__file__).parent.glob("*.py"))
# What Python sets on every module before its code runs.
MODULE_ATTRIBUTES = {"__name__", "__doc__", "__package__", "__loader__", "__spec__",
                     "__file__", "__cached__", "__builtins__", "__path__"}


def _code_objects(code: types.CodeType, name: str = ""):
    """Yield ``(dotted name, code)`` for ``code`` and every code object
    nested in it; functions of the module body are named without a prefix.
    (``co_qualname`` would do, but Python 3.10 lacks it.)"""
    yield name or code.co_name, code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const, f"{name}.{const.co_name}" if name else const.co_name)


def _names(code: types.CodeType, *opnames: str) -> set[str]:
    return {ins.argval for ins in dis.get_instructions(code) if ins.opname in opnames}


def undefined_globals(source: str, filename: str) -> list[tuple[str, str]]:
    """``(code name, global name)`` for each read of a name the module
    ``source`` never defines, sorted."""
    module = compile(source, filename, "exec")
    codes = list(_code_objects(module))
    defined = (_names(module, "STORE_NAME")
               | {name for _, code in codes for name in _names(code, "STORE_GLOBAL")}
               | set(dir(builtins)) | MODULE_ATTRIBUTES)
    found = []
    for qualname, code in codes:
        known = defined
        if code is not module and not code.co_flags & inspect.CO_OPTIMIZED:
            # A class body reads its own names, and its annotations, first.
            known = defined | _names(code, "STORE_NAME") | {"__annotations__"}
        found += [(qualname, name)
                  for name in _names(code, "LOAD_GLOBAL", "LOAD_NAME") - known]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_reads_an_undefined_global(path):
    assert undefined_globals(path.read_text(encoding="utf-8"), str(path)) == []


def test_the_check_flags_a_global_bound_only_through_globals():
    source = """
import os

def late():
    globals()["bound_late"] = os.sep

def uses():
    return bound_late, os.sep, len

class Row:
    x: int = 0
    y = x
"""
    assert undefined_globals(source, "<test>") == [("uses", "bound_late")]


def test_every_deferred_name_resolves_in_its_module():
    for module, names in cli._DEFERRED.items():
        source = importlib.import_module(f"profilerank.{module}")
        for name in names:
            assert callable(getattr(source, name)), f"{module}.{name}"


def unused_imports(source: str) -> list[str]:
    """The names that imports in the module ``source`` bind and the module
    never reads, sorted. A name listed in ``__all__`` counts as read, and a
    ``__future__`` import binds nothing."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_flags_an_import_that_is_never_read():
    source = """
from __future__ import annotations

import os.path
import sys as system
from math import inf, nan
from .errors import DataError

__all__ = ["DataError"]

def f(x: float = inf) -> None:
    from json import dumps, loads
    return os.sep, loads
"""
    assert unused_imports(source) == ["dumps", "nan", "system"]


# Calls that open a file: ``open`` itself, and these methods of a path.
FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_opens(source: str) -> list[int]:
    """The lines of the module ``source`` that open a file, sorted."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (isinstance(node.func, ast.Name) and node.func.id == "open"
             or isinstance(node.func, ast.Attribute) and node.func.attr in FILE_METHODS)
    )


def test_only_errors_opens_a_file():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    opens = {name: file_opens(source) for name, source in sources.items() if name != "errors.py"}
    assert {name: lines for name, lines in opens.items() if lines} == {}
    assert sum(source.count('"utf-8-sig"') for source in sources.values()) == 1


def test_the_check_flags_every_way_to_open_a_file():
    source = """
from pathlib import Path

def f(path: Path):
    with open(path) as fh, path.open() as gh:
        fh.read(), gh.read()
    path.write_text(path.read_text())
    return path.read_bytes(), len
"""
    assert file_opens(source) == [5, 5, 7, 7, 8]


def test_the_block_size_has_one_binding(tmp_path, monkeypatch, stemcell_design, pluripotent):
    # Patching expression._BLOCK_ROWS cuts 8 genes into blocks of 3, 3 and
    # 2 in synth's draws, the fit's calls, the csv loop and the
    # excluded.csv writer.
    assert not [m for m in (fitting, synth, outputs) if hasattr(m, "_BLOCK_ROWS")]
    monkeypatch.setattr(expression, "_BLOCK_ROWS", 3)
    blocks = {"synth": [], "fit": [], "csv loop": [], "excluded.csv": []}
    draw_block, block_calls, score_lines = (synth._draw_block, fitting._block_calls,
                                            outputs._score_lines)

    def draws(rng, roles, *args):
        blocks["synth"].append(len(roles))
        return draw_block(rng, roles, *args)

    def calls(sizes):
        for pattern, offset, rows in block_calls(sizes):
            blocks["fit"] += [rows] * len(pattern)  # calls go by block shape
            yield pattern, offset, rows

    def lines(*args):
        for chunk in score_lines(*args):
            blocks["excluded.csv"].append(chunk.count("\n"))
            yield chunk

    class Numpy:  # numpy, recording the blocks the csv loop concatenates
        def __getattr__(self, name):
            return getattr(np, name)

        def concatenate(self, arrays):
            blocks["csv loop"] += [len(a) for a in arrays]
            return np.concatenate(arrays)

    monkeypatch.setattr(synth, "_draw_block", draws)
    monkeypatch.setattr(fitting, "_block_calls", calls)
    monkeypatch.setattr(outputs, "_score_lines", lines)
    profile = pluripotent.with_margins(deltas={"day6_vs_day9": 100.0})  # no gene passes
    expr = pr.generate_dataset(stemcell_design, profile, 8, 0, seed=1).expression
    synth.write_expression_csv(expr, tmp_path / "expression.csv")
    with monkeypatch.context() as mp:
        mp.setattr(expression, "np", Numpy())
        assert expression._parse_csv(tmp_path / "expression.csv",
                                     expr.array_ids)[0] == expr.gene_ids
    _, table = pr.analyze(expr, stemcell_design, profile)
    cli._write_excluded_csv(table, tmp_path / "excluded.csv")
    blocks["fit"].sort(reverse=True)
    assert blocks == {"synth": [3, 3, 2], "fit": [3, 3, 2], "csv loop": [3, 3, 2],
                      "excluded.csv": [3, 3, 2]}
