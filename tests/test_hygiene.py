"""Source hygiene: every name an engine module imports is used in it, and
every parameter of its functions is read.

No linter ships with the project, so these stdlib `ast` checks catch the
imports and parameters that deleting code leaves behind.  `__init__.py` is
exempt from the import check: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bumpsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unread_parameters(source):
    """Parameters (other than self and cls) that their function never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{node.name}({p.arg}) (line {node.lineno})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return sorted(unread)


def test_check_flags_an_unused_import():
    assert unused_imports("import math\nfrom typing import Mapping, Sequence\nx: Mapping = {}\n") == [
        "Sequence (line 2)",
        "math (line 1)",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_check_flags_an_unread_parameter():
    source = (
        "def f(a, b, *, c=1):\n"
        "    return a\n"
        "\n"
        "class K:\n"
        "    def m(self, d):\n"
        "        return [d for _ in ()]\n"
    )
    assert unread_parameters(source) == ["f(b) (line 1)", "f(c) (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    assert unread_parameters((SRC / module).read_text(encoding="utf-8")) == []
