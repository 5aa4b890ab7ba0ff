"""Lint checks on ``src/limitlab`` that need only the standard library's ``ast``:
every import is used, every private module-level name is referenced, every
parameter not named ``_x`` is read by its function or lambda, the package's ``__all__`` lists exactly the names its ``__init__`` imports, and
each of those names is read by the library or a demo, not only by tests.
No module holds an ``assert`` statement, which ``python -O`` would drop,
only ``cantor._echo`` writes a value with ``!r``, so every echo is cut short,
and no two ``raise ValueError`` refusals word the same message.  Records stay
cheap: none is a ``typing.NamedTuple``, and every tuple subclass declares
``__slots__ = ()``, so its instances carry no ``__dict__``.  Only ``complexity``
reads a table's flat ``entries`` view; the rest reads its per-condition dicts.
No module reads a ``.format`` attribute but ``jsonio._csv``, whose template is
built from constants, so no template is ever built from artifact text.  Only
``cli._end_process`` names ``os._exit`` or ``atexit``, and nothing freezes the
heap with ``gc.freeze``: a library call never ends the process."""

import ast
import importlib.util
from pathlib import Path

import pytest

import limitlab

MODULES = sorted(Path(limitlab.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(), filename=path.name)


def names_read(tree):
    """The names a module reads: bare names (not assigned) and attribute names."""
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def imported(path, marked=False):
    """``(bound name, line)`` of each import in a module but ``__future__``
    imports: those whose line carries ``# noqa: F401`` when ``marked``, else the others."""
    lines = path.read_text().splitlines()
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if ("# noqa: F401" in lines[alias.lineno - 1]) == marked:
                    yield (alias.asname or alias.name).split(".")[0], alias.lineno


def private_names(tree):
    """The module-level functions, classes and constants named ``_x`` (not dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def unused_imports(path):
    used = {node.id for node in ast.walk(parsed(path)) if isinstance(node, ast.Name)}
    return [(bound, line) for bound, line in imported(path) if bound not in used]


def unread_private_names(paths):
    read = set().union(*(names_read(parsed(path)) for path in paths))
    return [
        (path.name, name) for path in paths for name in private_names(parsed(path))
        if name not in read
    ]


def exported(path):
    """The ``__all__`` list of a package ``__init__``."""
    return next(
        ast.literal_eval(node.value) for node in parsed(path).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    )


def export_drift(path):
    """``(imported but not listed, listed but not imported, listed twice)``
    for a package ``__init__``'s imports and its ``__all__``."""
    listed = exported(path)
    bound = {name for name, _ in imported(path)}
    twice = sorted({name for name in listed if listed.count(name) > 1})
    return sorted(bound - set(listed)), sorted(set(listed) - bound), twice


def orphan_exports(package, readers):
    """The names of ``package``'s ``__all__`` that none of ``readers`` reads as
    a name, an attribute or an import."""
    read = set()
    for path in readers:
        tree = parsed(path)
        read |= names_read(tree) | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
        }
    return sorted(set(exported(package)) - read)


def unread_parameters(path):
    """``(function, parameter)`` of each parameter not named ``_x`` that its
    function or lambda never reads, nested functions included."""
    found = []
    for node in ast.walk(parsed(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [arg for arg in (args.vararg, args.kwarg) if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id for part in body for name in ast.walk(part)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            function = getattr(node, "name", "<lambda>")
            found += [
                (function, param.arg) for param in params
                if param.arg not in read and not param.arg.startswith("_")
            ]
    return found


def asserts(path):
    """The line of each ``assert`` statement in a module."""
    return [node.lineno for node in ast.walk(parsed(path)) if isinstance(node, ast.Assert)]


def found_in_functions(path, matches):
    """``(function, line)`` of each node of a module that ``matches``, the
    function being the innermost one around it (None at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(parsed(path), None)
    return found


def repr_conversions(path):
    """``(function, line)`` of each ``!r`` conversion in a module."""
    return found_in_functions(
        path, lambda node: isinstance(node, ast.FormattedValue) and node.conversion == ord("r"))


def refusals(path):
    """``(template, line)`` of each ``raise ValueError(<message>)`` in a module
    whose message is worded (a string or an f-string), the template being the
    message's ``ast.unparse``; ``argparse`` types raise their bare input instead."""
    for node in ast.walk(parsed(path)):
        if (
            isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "ValueError" and node.exc.args
            and isinstance(node.exc.args[0], (ast.Constant, ast.JoinedStr))
        ):
            yield ast.unparse(node.exc.args[0]), node.lineno


def repeated_refusals(paths):
    """``(template, [(module, line), ...])`` of each template worded more than once."""
    where = {}
    for path in paths:
        for template, line in sorted(refusals(path), key=lambda found: found[1]):
            where.setdefault(template, []).append((path.name, line))
    return [(template, places) for template, places in where.items() if len(places) > 1]


def format_reads(path):
    """``(function, line)`` of each read of an attribute named ``format`` in a module."""
    return found_in_functions(
        path, lambda node: isinstance(node, ast.Attribute) and node.attr == "format")


ENDINGS = {"_exit", "atexit", "freeze"}  # os._exit, the atexit module, gc.freeze


def process_endings(path):
    """``(function, line)`` of each node of a module that names one of ``ENDINGS``:
    an attribute, a bare name or an import."""

    def names(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return {getattr(node, "module", None), *(alias.name for alias in node.names)}
        return {getattr(node, "attr", None), getattr(node, "id", None)}

    return found_in_functions(path, lambda node: not ENDINGS.isdisjoint(names(node)))


def entries_reads(path):
    """The line of each read of an attribute named ``entries`` in a module."""
    return [
        node.lineno for node in ast.walk(parsed(path))
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    ]


def typed_records(path):
    """``(class, line)`` of each class in a module with ``NamedTuple`` as a base."""
    return [
        (node.name, node.lineno) for node in ast.walk(parsed(path))
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                for base in node.bases)
    ]


def tuples_with_a_dict(module):
    """The tuple subclasses a module defines without ``__slots__ = ()`` in their
    own body, whose instances so carry a ``__dict__``."""
    return sorted(
        name for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple)
        and value.__module__ == module.__name__ and value.__dict__.get("__slots__") != ()
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_only_the_tracer_bindings_skip_the_import_check():
    # perfbench's tracer looks family_at up by name in these two modules
    marked = [(path.name, name) for path in MODULES for name, _ in imported(path, marked=True)]
    assert marked == [("complexity.py", "family_at"), ("covers.py", "family_at")]


def test_no_module_asserts():
    # a construction checks its guarantee with families._guarantee, the same under -O
    assert [(path.name, line) for path in MODULES for line in asserts(path)] == []


def test_only_echo_writes_a_repr():
    # every other message echoes a value through cantor._echo, which cuts it short
    found = {(path.name, function) for path in MODULES for function, _ in repr_conversions(path)}
    assert found == {("cantor.py", "_echo")}


def test_each_refusal_is_worded_once():
    # a rule refused in two places is stated in one helper both call
    assert repeated_refusals(MODULES) == []


def test_records_are_plain_namedtuples():
    # every run imports them: a typing.NamedTuple class costs more to build, and
    # a tuple subclass without __slots__ gives each instance a dict
    assert [found for path in MODULES for found in typed_records(path)] == []
    modules = [importlib.import_module(f"limitlab.{path.stem}") for path in MODULES]
    assert [(module.__name__, tuples_with_a_dict(module)) for module in modules] == [
        (module.__name__, []) for module in modules
    ]


def test_only_complexity_reads_the_flat_table_view():
    # ComplexityTable.entries builds (string, condition) pairs; a lookup reads one condition's dict
    found = [(path.name, line) for path in MODULES for line in entries_reads(path)]
    assert [(name, line) for name, line in found if name != "complexity.py"] == []


def test_only_the_csv_header_template_is_formatted():
    # a template built from artifact text would read its braces as fields
    found = {(path.name, function) for path in MODULES for function, _ in format_reads(path)}
    assert found == {("jsonio.py", "_csv")}


def test_only_the_process_entry_ends_the_process():
    # os._exit skips the interpreter's teardown, so only main() without argv may reach it
    found = {(path.name, function) for path in MODULES for function, _ in process_endings(path)}
    assert found == {("cli.py", None), ("cli.py", "_end_process")}


def test_every_private_name_is_referenced():
    assert unread_private_names(MODULES) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter no branch reads any more goes with the branch; name it _x where a
    # signature is fixed from outside
    assert unread_parameters(path) == []


def test_all_lists_exactly_the_package_imports():
    assert export_drift(Path(limitlab.__file__)) == ([], [], [])


def test_every_export_has_a_reader_outside_the_tests():
    # a name only the tests call belongs in tests/oracles.py, not in the library
    readers = [p for p in MODULES if p.name != "__init__.py"] + DEMOS
    assert orphan_exports(Path(limitlab.__file__), readers) == []


def test_the_checks_catch_leftovers(tmp_path):
    leftover = tmp_path / "leftover.py"
    leftover.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "from itertools import chain  # noqa: F401\n"
        "from os import path, sep\n"
        "_LISTS = {list, tuple}\n"
        "_USED, _UNUSED = 1, 2\n"
        "def _helper():\n"
        "    return sep, _USED\n"
        "import re  # noqa: F401  (an escape the marked list names)\n"
        "def _echo(value):\n"
        "    assert value\n"
        "    return f'{value!r}'\n"
        "def _report(value):\n"
        "    return f'{value!s} {value!r}'\n"
        "def _raise(table, u, r, tree, *rest, _spare=0, **options):\n"
        "    def inner(x):\n"
        "        return table, rest, x\n"
        "    return inner(u), lambda node, depth: node\n"
        "def refuse(text):\n"
        "    if text == '':\n"
        "        raise ValueError(f'bad input {text}')\n"
        "    if text == '?':\n"
        "        raise ValueError(text)\n"
        "    if text == '!':\n"
        "        raise TypeError(f'bad input {text}')\n"
        "    if text == '.':\n"
        "        raise ValueError('bad input')\n"
        "    raise ValueError(f'bad input {text}') from ValueError(text)\n"
        "from collections import namedtuple\n"
        "from typing import NamedTuple\n"
        "class Typed(NamedTuple):\n"
        "    x: int\n"
        "class Loose(namedtuple('Loose', 'x')):\n"
        "    pass\n"
        "class Kept(namedtuple('Kept', 'x')):\n"
        "    __slots__ = ()\n"
        "def flat(table):\n"
        "    return table.entries\n"
        "def fill(template, row):\n"
        "    return template.format(*row), format(row)\n"
        "def leave(code):\n"
        "    from gc import freeze\n"
        "    atexit.register(freeze)\n"
        "    os._exit(code)\n"
    )
    assert unused_imports(leftover) == [("json", 2), ("path", 4)]
    assert list(imported(leftover, marked=True)) == [("chain", 3), ("re", 9)]
    assert unread_private_names([leftover]) == [
        ("leftover.py", "_LISTS"), ("leftover.py", "_UNUSED"), ("leftover.py", "_helper"),
        ("leftover.py", "_echo"), ("leftover.py", "_report"), ("leftover.py", "_raise"),
    ]
    assert unread_parameters(leftover) == [
        ("_raise", "r"), ("_raise", "tree"), ("_raise", "options"), ("<lambda>", "depth"),
    ]
    assert asserts(leftover) == [11]
    assert repr_conversions(leftover) == [("_echo", 12), ("_report", 14)]
    assert repeated_refusals([leftover]) == [
        ("f'bad input {text}'", [("leftover.py", 21), ("leftover.py", 28)]),
    ]
    assert typed_records(leftover) == [("Typed", 31)]
    assert entries_reads(leftover) == [38]
    assert format_reads(leftover) == [("fill", 40)]
    assert process_endings(leftover) == [("leave", 42), ("leave", 43), ("leave", 43), ("leave", 44)]
    spec = importlib.util.spec_from_file_location("leftover", leftover)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert tuples_with_a_dict(module) == ["Loose"]
    package = tmp_path / "__init__.py"
    package.write_text(
        "from .a import kept, dropped\n"
        "from .b import Record\n"
        "__all__ = ['Record', 'kept', 'stale', 'kept']\n"
    )
    assert export_drift(package) == (["dropped"], ["stale"], ["kept"])
    reader = tmp_path / "reader.py"
    reader.write_text(
        "from .a import kept\n"
        "import b\n"
        "b.Record(stale)\n"
    )
    package.write_text(
        "from .a import kept, orphan\n"
        "from .b import Record\n"
        "__all__ = ['Record', 'kept', 'orphan', 'stale']\n"
    )
    assert orphan_exports(package, [reader]) == ["orphan"]
