"""Source hygiene: every name an engine module imports is used in it, every
parameter of its functions is read, every field of its value classes is
read somewhere, every private (`_`-prefixed) module-level function is
called from the package, every error class of an engine module, and every
builtin exception it raises by name, is one of the faults (`hybrid.FAULTS`)
that `simulate` ends a run with, and no two value classes of the engine
declare the same field list.  A value class is a NamedTuple, a dataclass,
or a class that assigns `__slots__` (its fields are its annotated names or,
without annotations, its slot names).  The engine sources also stay within
a line budget, and README's "Layout" names each engine module once.

No linter ships with the project, so these stdlib `ast` checks catch the
imports, parameters, fields and helpers that deleting code leaves behind.
`__init__.py` is exempt from the import check: its imports are the
package's exports.  The field check goes by name: a field counts as read
when any source, test or bench file reads an attribute of that name.  A
class with a `ROW` template reads every field through it
(`tests/test_values.py` pins that the template has one conversion per
field).
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

from bumpsim.hybrid import FAULTS

HERE = Path(__file__).resolve()
ROOT = HERE.parents[1]
SRC = ROOT / "src" / "bumpsim"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# this file walks ASTs, so its own attribute reads are not reads of engine fields
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py") if p != HERE)


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


def attribute_reads(source):
    """Names read as an attribute (`obj.name`) anywhere in the source."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def name_reads(source):
    """Names read anywhere in the source, bare (`name`) or as an attribute."""
    tree = ast.parse(source)
    bare = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bare | attribute_reads(source)


def uncalled_private_functions(source, reads):
    """Module-level `_`-prefixed functions of the source whose names are not
    in `reads`."""
    return sorted(
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and node.name not in reads
    )


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _is_named_tuple(node):
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)


def _has_row_template(node):
    return any(
        isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "ROW" for t in stmt.targets)
        for stmt in node.body
    )


def _slot_names(node):
    """(name, line) of each name the class body assigns to `__slots__`, or
    None for a class without `__slots__`."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            value = stmt.value
            elts = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
            return [(e.value, e.lineno) for e in elts if isinstance(e, ast.Constant)]
    return None


def declared_fields(node):
    """(name, line) of each field of a value class in declaration order, or
    None for a class that is not one: a @dataclass or NamedTuple declares
    its annotated names, and a class that assigns `__slots__` its annotated
    names or, without annotations, its slot names."""
    annotated = [
        (stmt.target.id, stmt.lineno)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    if any(_is_dataclass(d) for d in node.decorator_list) or _is_named_tuple(node):
        return annotated
    slots = _slot_names(node)
    if slots is None:
        return None
    return annotated or slots


def value_classes(source):
    """{class name: field names} of the source's value classes, the fields
    in declaration order."""
    classes = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            fields = declared_fields(node)
            if fields is not None:
                classes[node.name] = tuple(name for name, _ in fields)
    return classes


def repeated_field_lists(classes):
    """The names of the classes in `classes` ({name: field names}) that
    declare the same field list as another, one sorted group per list."""
    by_fields = {}
    for name, names in classes.items():
        by_fields.setdefault(names, []).append(name)
    return sorted(sorted(group) for group in by_fields.values() if len(group) > 1)


def unread_fields(source, reads):
    """Fields of the source's value classes whose names are not in `reads`;
    a class with a `ROW` template reads all its fields."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or _has_row_template(node):
            continue
        unread += [
            f"{node.name}.{name} (line {line})"
            for name, line in declared_fields(node) or ()
            if name not in reads
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


def test_check_flags_an_unread_dataclass_field():
    source = (
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    dropped: int\n"
        "\n"
        "@dataclass\n"
        "class B:\n"
        "    lost: int\n"
        "\n"
        "class P(NamedTuple):\n"
        "    unpacked: int\n"
        "\n"
        "class R(NamedTuple):\n"
        "    written: int\n"
        "    ROW = '%d'\n"
        "\n"
        "class S:\n"
        "    __slots__ = ('held', 'idle')\n"
        "\n"
        "    def __init__(self, held, idle):\n"
        "        self.held = held\n"
        "        self.idle = idle\n"
        "\n"
        "class T:\n"
        "    __slots__ = 'alone'\n"
        "\n"
        "class U:\n"
        "    __slots__ = ('first',)\n"
        "    first: int\n"
        "    second: int\n"
        "\n"
        "def f(a, b):\n"
        "    a.dropped = b.kept + b.held + b.first\n"
    )
    assert unread_fields(source, attribute_reads(source)) == [
        "A.dropped (line 4)",
        "B.lost (line 8)",
        "P.unpacked (line 11)",
        "S.idle (line 18)",
        "T.alone (line 25)",
        "U.second (line 30)",
    ]


@pytest.fixture(scope="module")
def reads():
    return set().union(*(attribute_reads(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_field_is_read(module, reads):
    assert unread_fields((SRC / module).read_text(encoding="utf-8"), reads) == []


def test_check_flags_a_repeated_field_list():
    source = (
        "@dataclass(frozen=True)\n"
        "class Pose:\n"
        "    x: float\n"
        "    y: float\n"
        "\n"
        "class Point(NamedTuple):\n"
        "    x: float\n"
        "    y: float\n"
        "\n"
        "class Swapped(NamedTuple):\n"
        "    y: float\n"
        "    x: float\n"
        "\n"
        "class Plain:\n"
        "    x: float\n"
        "    y: float\n"
        "\n"
        "class Slotted:\n"
        "    __slots__ = ('y', 'x')\n"
    )
    classes = value_classes(source)
    assert list(classes) == ["Pose", "Point", "Swapped", "Slotted"]
    assert repeated_field_lists(classes) == [["Point", "Pose"], ["Slotted", "Swapped"]]


def test_no_two_value_classes_share_a_field_list():
    # a second class with the same fields restates a type the engine has
    classes = {
        f"{module[:-3]}.{name}": fields
        for module in MODULES
        for name, fields in value_classes((SRC / module).read_text(encoding="utf-8")).items()
    }
    assert repeated_field_lists(classes) == []


def test_check_flags_an_uncalled_private_function():
    source = (
        "def _kept(x):\n"
        "    return x\n"
        "\n"
        "def _stranded(x):\n"
        "    return x\n"
        "\n"
        "def public(x):\n"
        "    return _kept(x)\n"
        "\n"
        "class K:\n"
        "    def _method(self):\n"
        "        return 0\n"
    )
    assert uncalled_private_functions(source, name_reads(source)) == ["_stranded (line 4)"]


@pytest.fixture(scope="module")
def package_reads():
    return set().union(*(name_reads(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))


@pytest.mark.parametrize("module", MODULES)
def test_every_private_function_is_called(module, package_reads):
    assert uncalled_private_functions((SRC / module).read_text(encoding="utf-8"), package_reads) == []


def raised_builtins(source):
    """(name, line) of each `raise` of a builtin exception class by name,
    called or bare, in source order."""
    raised = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(target, ast.Name):
            obj = getattr(builtins, target.id, None)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                raised.append((target.id, node.lineno))
    return sorted(raised, key=lambda item: item[1])


def test_check_flags_a_builtin_raise():
    source = (
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'negative: {x}')\n"
        "    if x == 0:\n"
        "        raise KeyError\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError as exc:\n"
        "        raise OwnError(x) from exc\n"
        "    raise\n"
    )
    assert raised_builtins(source) == [("ValueError", 3), ("KeyError", 5)]


@pytest.mark.parametrize("module", ["collision", "controller", "redesign"])
def test_every_engine_error_is_a_fault(module):
    # an error missing from FAULTS would escape `simulate` as a traceback
    # instead of ending the run as a fatal FaultRecord
    mod = importlib.import_module(f"bumpsim.{module}")
    errors = [
        obj
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__
    ]
    assert errors
    assert [e.__name__ for e in errors if e not in FAULTS] == []
    raised = raised_builtins((SRC / f"{module}.py").read_text(encoding="utf-8"))
    escaping = [(name, line) for name, line in raised if not issubclass(getattr(builtins, name), FAULTS)]
    assert escaping == []


# `wc -l src/bumpsim/*.py` once the pair frame folded into `collision` and
# the plot files came to project only trace.csv lines.  A change that cuts
# lines lowers it; one that must raise it says why in CHANGES.md.
SOURCE_LINE_BUDGET = 2394


def test_source_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= SOURCE_LINE_BUDGET, lines


def test_readme_layout_names_exactly_the_engine_modules():
    # a merged, split or renamed module leaves no stale or missing bullet
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^- `src/bumpsim/(\w+)\.py`", layout, re.MULTILINE)
    engine = [p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__")]
    assert sorted(named) == sorted(engine)
