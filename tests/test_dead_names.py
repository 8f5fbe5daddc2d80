"""No dead names in src/: every name a module imports is used in it,
every module-level private function, class or constant is read in it, and
every module-level public function or class is read somewhere in src/ or
bench/, so that an API only the tests use does not live in src/."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sceneselect").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def bound_names(tree):
    """{name: line} of each import anywhere in ``tree``, ``__future__``
    imports aside, and of each module-level def, class or assignment of a
    private name, dunder names aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    return bound


def dead_names(source):
    """(line, name) of each name that ``source`` binds and never reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound_names(tree).items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dead_names(path):
    assert dead_names(path.read_text(encoding="utf-8")) == []


def test_dead_names_are_found():
    source = """\
from __future__ import annotations
import os
import json as js
from .shares import run_shares, usable_cpus
_LIMIT = 3
_USED = 4
def _helper():
    return _USED + usable_cpus()
class _Spare:
    pass
def public():
    return os.sep
"""
    assert dead_names(source) == [(3, "js"), (4, "run_shares"), (5, "_LIMIT"), (7, "_helper"), (9, "_Spare")]


def unread_public_names(sources, readers):
    """(index into ``sources``, line, name) of each module-level public def
    or class of a source that no source or reader reads, by name or as an
    attribute."""
    read = set()
    for text in [*sources, *readers]:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        (i, node.lineno, node.name)
        for i, text in enumerate(sources)
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    ]


def test_every_public_name_is_read_by_src_or_bench():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    readers = [path.read_text(encoding="utf-8") for path in BENCH]
    assert [(SOURCES[i].name, line, name) for i, line, name in unread_public_names(sources, readers)] == []


def test_unread_public_names_are_found():
    module = """\
from .other import helper
def called():
    return helper(1)
def only_tested():
    return called()
class Unused:
    pass
class Annotated:
    pass
def _private():
    return 0
def used_by_bench():
    pass
"""
    other = """\
def helper(x: Annotated):
    return x
"""
    bench = "import sceneselect\nsceneselect.module.used_by_bench()\n"
    assert unread_public_names([module, other], [bench]) == [(0, 4, "only_tested"), (0, 6, "Unused")]
    assert unread_public_names([module, other], [])[-1] == (0, 12, "used_by_bench")
