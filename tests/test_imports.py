"""Every name a module of the package imports is used in that module,
every name a function assigns is read in that function, every function
and class the package defines is named somewhere besides its definition,
every name the package re-exports is used by the package or documented in
the README, so is every public method and property of a re-exported
class, every function the benchmark's layer table binds exists, and only
the ways a graph is built check it or make one without the constructor.

There is no linter in the toolchain, so this reads the source with ``ast``.
``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

from helpers import REPO

MODULES = sorted(p for p in (REPO / "src" / "ribbonlab").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def unused_locals(source: str) -> list[str]:
    """Names a function assigns but never reads, nested functions included;
    ``_`` is the conventional throwaway name and is never flagged."""
    found: dict[tuple[int, str], str] = {}
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        for name, line in stored.items():
            if name != "_" and name not in read:
                found[line, name] = f"line {line}: {name}"
    return [found[key] for key in sorted(found)]


def test_checker_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from typing import Sequence\n"
        "from .core import A, B\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return os.path.join(A)\n"
    )
    assert unused_imports(source) == ["line 4: B", "line 2: js"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_local_checker_flags_unread_and_keeps_read():
    source = (
        "def f(xs):\n"
        "    total = 0\n"
        "    table = dict(xs)\n"
        "    for _, x in xs:\n"
        "        total += x\n"
        "    def g():\n"
        "        return total\n"
        "    (spare := 1)\n"
        "    return g\n"
        "def h():\n"
        "    global seen\n"
        "    seen = 1\n"
    )
    assert unused_locals(source) == ["line 3: table", "line 8: spare"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def unnamed_definitions(modules: dict[str, str], corpus: list[str]) -> list[str]:
    """``def``s and ``class``es in ``modules`` (file name -> source) whose
    name appears, as a whole word, nowhere in ``corpus`` but at the
    definition itself; ``corpus`` must include the modules."""
    out = []
    for file, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{node.name}\b")
                if sum(len(word.findall(text)) for text in corpus) <= 1:
                    out.append(f"{file} line {node.lineno}: {node.name}")
    return out


def test_definition_checker_flags_unnamed_and_keeps_named():
    source = (
        "class Used:\n"
        "    def spare(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return Used\n"
    )
    caller = "from m import Used\n"
    assert unnamed_definitions({"m.py": source}, [source, caller]) == ["m.py line 2: spare"]


def test_every_definition_is_named_elsewhere():
    corpus = [p.read_text(encoding="utf-8") for d in ("src", "tests", "perfbench") for p in sorted((REPO / d).rglob("*.py"))]
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted((REPO / "src" / "ribbonlab").glob("*.py"))}
    assert unnamed_definitions(modules, corpus) == []


def unused_exports(init: str, modules: dict[str, str], readme: str) -> list[str]:
    """Names that ``init`` re-exports and that appear, as a whole word,
    neither in ``modules`` (file name -> source, ``__init__.py`` left out)
    beyond their own definition nor in ``readme``."""
    out = []
    for node in ast.walk(ast.parse(init)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.asname or alias.name
                word = re.compile(rf"\b{name}\b")
                uses = sum(len(word.findall(text)) for text in modules.values())
                if uses <= 1 and not word.search(readme):
                    out.append(f"line {alias.lineno}: {name}")
    return out


def test_export_checker_flags_unused_and_keeps_used():
    init = "from .m import (\n    Used,\n    documented,\n    spare,\n)\n"
    modules = {
        "m.py": "class Used: pass\ndef documented(): pass\ndef spare(): pass\n",
        "n.py": "from .m import Used\n",
    }
    readme = "Call `documented()` to start.\n"
    assert unused_exports(init, modules, readme) == ["line 4: spare"]


def test_every_export_is_used_or_documented():
    package = REPO / "src" / "ribbonlab"
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert unused_exports((package / "__init__.py").read_text(encoding="utf-8"), modules, readme) == []


def unused_methods(init: str, modules: dict[str, str], readme: str) -> list[str]:
    """Public methods and properties of the classes ``init`` re-exports that
    are read as ``.name`` nowhere in ``modules`` (file name -> source, the
    package's own ``__init__.py`` may be among them) outside their own
    definition, and that ``readme`` never shows as ``.name``."""
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    trees = {file: ast.parse(source) for file, source in modules.items()}
    reads = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    out = []
    for file, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                    continue
                own = {id(inner) for inner in ast.walk(node)}
                used = any(r.attr == node.name and id(r) not in own for r in reads)
                if not used and not re.search(rf"\.{node.name}\b", readme):
                    out.append(f"{file} line {node.lineno}: {cls.name}.{node.name}")
    return out


def test_method_checker_flags_unused_and_keeps_used():
    init = "from .m import (\n    Shape,\n)\n"
    modules = {
        "m.py": (
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.scale\n"
            "    @property\n"
            "    def scale(self):\n"
            "        return 1\n"
            "    def again(self):\n"
            "        return self.again()\n"
            "    def shown(self):\n"
            "        pass\n"
            "    @property\n"
            "    def spare(self):\n"
            "        return spare\n"
            "    def _private(self):\n"
            "        pass\n"
            "class Hidden:\n"
            "    def lonely(self):\n"
            "        pass\n"
        ),
        "n.py": "def f(s):\n    return s.area()\n",
    }
    readme = "Call `shape.shown()` to draw it; `spare` is not a method call.\n"
    assert unused_methods(init, modules, readme) == ["m.py line 7: Shape.again", "m.py line 12: Shape.spare"]


def test_every_exported_method_is_used_or_documented():
    package = REPO / "src" / "ribbonlab"
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert unused_methods(modules["__init__.py"], modules, readme) == []


def bench_parts(layers: str) -> dict:
    """The ``PARTS`` table of the benchmark's ``layers.py``, read without
    running it."""
    for node in ast.parse(layers).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PARTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no PARTS table")


def test_every_bench_binding_names_a_function():
    # The tracer wraps each listed function where it is defined; a name
    # that no longer exists is skipped, so its counter would read 0.
    parts = bench_parts((REPO / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    assert parts
    missing = []
    for module, name in parts:
        mod = importlib.import_module(f"ribbonlab.{module}")
        fn = getattr(mod, name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
            missing.append(f"{module}.{name}")
    assert missing == []


def function_imports(source: str) -> list[str]:
    """Imports of a package module (relative, or of ``ribbonlab``) made
    inside a function, where they would only move start-up work."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                out.extend(f"line {node.lineno}: {n}" for n in names if n.startswith((".", "ribbonlab")))
    return out


def test_function_import_checker_flags_package_modules():
    source = (
        "from .core import A\n"
        "def f():\n"
        "    import multiprocessing\n"
        "    from . import core\n"
        "    import ribbonlab.cli\n"
        "    return A\n"
    )
    assert function_imports(source) == ["line 4: .", "line 5: ribbonlab.cli"]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "ribbonlab").glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_cli_start_up_imports_no_dataclasses():
    # Value types are named tuples, so starting the CLI generates no class
    # code: neither ``dataclasses`` nor the ``inspect`` it pulls in is loaded.
    probe = (
        "import sys, ribbonlab.cli; ribbonlab.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


#: The only callers of ``require_valid``, and the only function that makes a
#: graph without the constructor: every other graph is built by one of them.
TRUST_BOUNDARY = {
    "require_valid": {"RibbonGraph.__init__", "from_arrow_presentation"},
    "__new__(RibbonGraph)": {"_from_flags"},
}


def trust_boundary_breaches(source: str) -> list[str]:
    """Calls of ``require_valid``, and of any ``__new__`` given
    ``RibbonGraph``, made outside the functions :data:`TRUST_BOUNDARY`
    allows them in; a function is named by its dotted path of classes and
    functions."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "__new__" and child.args and getattr(child.args[0], "id", None) == "RibbonGraph":
                    name = "__new__(RibbonGraph)"
                if scope not in TRUST_BOUNDARY.get(name, {scope}):
                    out.append(f"line {child.lineno}: {name} in {scope or 'module'}")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


def test_trust_boundary_checker_flags_other_callers():
    source = (
        "class RibbonGraph:\n"
        "    def __init__(self, ends):\n"
        "        require_valid(ends)\n"
        "    def copy(self):\n"
        "        return object.__new__(RibbonGraph)\n"
        "def _from_flags():\n"
        "    return object.__new__(RibbonGraph)\n"
        "def from_arrow_presentation(p):\n"
        "    def inner():\n"
        "        core.require_valid(p)\n"
        "    require_valid(p)\n"
        "    return object.__new__(Circle)\n"
        "def delete(g):\n"
        "    require_valid(g)\n"
        "require_valid(None)\n"
    )
    assert trust_boundary_breaches(source) == [
        "line 5: __new__(RibbonGraph) in RibbonGraph.copy",
        "line 10: require_valid in from_arrow_presentation.inner",
        "line 14: require_valid in delete",
        "line 15: require_valid in module",
    ]


@pytest.mark.parametrize("path", sorted((REPO / "src" / "ribbonlab").glob("*.py")), ids=lambda p: p.name)
def test_graphs_are_checked_only_where_they_are_built(path):
    # The constructor, from_arrow_presentation and parse_graph check their
    # input, and _from_flags trusts graphs built from valid ones, so no
    # operator checks its input again and no graph skips both.
    assert trust_boundary_breaches(path.read_text(encoding="utf-8")) == []
