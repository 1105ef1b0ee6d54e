"""Every module under src/ and tests/ reads each name it imports, and no
module under src/ imports sympy or dataclasses."""

import ast
import hashlib
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read: not loaded, not named in
    ``__all__`` and not used in a string annotation."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "RatFunc"; other strings that do
            # not parse as an expression name nothing
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def module_imports(source: str, module: str) -> list[int]:
    """Lines of every import of ``module`` or one of its submodules,
    function-local ones included."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            lines.append(node.lineno)
    return lines


def test_sympy_scan_sees_every_import_form():
    source = (
        "import os, sympy.ntheory as nt\n"
        "from sympy import Symbol\n"
        "from .sympy import x\n"
        "import sympyx\n"
        "def f():\n"
        "    from sympy.solvers import solve\n"
    )
    assert module_imports(source, "sympy") == [1, 2, 6]
    source = (
        "import dataclasses as dc\n"
        "from dataclasses import field\n"
        "from typing import NamedTuple\n"
        "def f():\n"
        "    import dataclasses\n"
    )
    assert module_imports(source, "dataclasses") == [1, 2, 5]


SRC_MODULES = [p for p in MODULES if p.is_relative_to(ROOT / "src")]


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_no_sympy(path):
    # sympy is a test dependency only; the package runs without it
    assert module_imports(path.read_text(), "sympy") == []


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_no_dataclasses(path):
    # records are NamedTuples or slotted classes: importing dataclasses
    # would load inspect, and its records generate their methods at import
    assert module_imports(path.read_text(), "dataclasses") == []


def test_tracer_layers_resolve():
    # every (module, attribute path) that perfbench/tracer.py wraps exists
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        )
    )
    assert len(layers) > 10
    missing = []
    for _prefix, module, path, _spans in layers:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_tables_and_public_names_survive_lazy_loading():
    # the root-number tables, read from JSON rows, hold what the dict
    # displays they replaced held, and every public name of the package
    # resolves, those served on first use included
    from ellfam import _rootnum_tables as t

    def digest(table):
        return hashlib.sha1(repr(sorted(table.items())).encode()).hexdigest()

    assert {name: digest(getattr(t, name)) for name in (
        "TABLE_P2", "TABLE_P3", "RESIDUE_CLASS", "TABLE_MODULI"
    )} == {
        "TABLE_P2": "48587a49fbaebe29f2b95cf16c9266445714741d",
        "TABLE_P3": "238699f96322668004aff42746a45c0350af4fe5",
        "RESIDUE_CLASS": "f0f931bd92b3468071b4492ca1249e262332fbaa",
        "TABLE_MODULI": "e688d1ff5a6d17c2225f0dc85070b4c44c513b13",
    }
    for table in (t.TABLE_P2, t.TABLE_P3):
        for key, sign in table.items():
            assert type(key) is tuple and len(key) == 7
            assert type(key[0]) is str
            assert all(type(v) is int for v in key[1:])
            assert sign in (1, -1) and type(sign) is int
    namespace = {}
    exec("from ellfam import *", namespace)
    import ellfam

    assert all(namespace[name] is getattr(ellfam, name) for name in ellfam.__all__)


def test_scan_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["math (line 1)"]
    assert unused_imports("from typing import Optional\nx: 'Optional[int]'\n") == []
    assert unused_imports("import a.b\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
