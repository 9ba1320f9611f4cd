"""No function in the package reads a global its module never defines.

Each module's source is compiled and every code object in it walked with
``dis``: a ``LOAD_GLOBAL`` or ``LOAD_NAME`` must name something the module
binds at its top level (an assignment, a ``def``, a ``class`` or an import),
a name some function declares ``global`` and stores, a builtin, or a module
attribute Python sets. A name bound only at run time, by writing to
``globals()``, is flagged: a command path that misses the write fails with
a ``NameError``.
"""

import builtins
import dis
import importlib
import inspect
import types
from pathlib import Path

import pytest

import profilerank as pr
from profilerank import cli

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
