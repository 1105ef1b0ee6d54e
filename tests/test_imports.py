"""Every module under src/ and tests/ reads each name it imports."""

import ast
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


def test_scan_sees_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["math (line 1)"]
    assert unused_imports("from typing import Optional\nx: 'Optional[int]'\n") == []
    assert unused_imports("import a.b\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
