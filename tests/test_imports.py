"""Every name a mvfuse module imports is used: read there, exported, or marked;
and every parameter of its functions and lambdas is read in their bodies."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "mvfuse"


def _unused_imports(path: Path) -> list[str]:
    """Names that `path` imports but neither reads, lists in __all__, nor marks `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # `import a.b` binds a; `from m import a as b` binds b
            name = (alias.asname or alias.name).split(".")[0]
            marked = any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno})
            if name not in read and name not in exported and not marked:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read_exported_or_marked(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "from math import pi, tau  # noqa: F401\n"
        "from os import sep, path\n"
        "__all__ = ['path']\n"
        "print(sep)\n"
    )
    assert _unused_imports(module) == ["module.py:2 json"]


def _unread_parameters(path: Path) -> list[str]:
    """Parameters of a function or lambda in `path` that its body never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for sub in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                read.add(sub.target.id)  # x += 1 reads x
        name = getattr(node, "name", "lambda")
        unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params if p not in read]
    return unread


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


def test_an_unread_parameter_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def lloyd(points, sq_points, twice, centers, *args, **kwargs):\n"
        "    total = sq_points\n"
        "    total += args[0]\n"
        "    def inner(c):\n"
        "        return points @ c\n"
        "    return inner(centers), total, kwargs\n"
        "def count(n, step):\n"
        "    n += 1\n"
        "    return n\n"
        "scale = lambda x, factor: 2.0 * x\n"
    )
    assert _unread_parameters(module) == [
        "module.py:1 lloyd(twice)", "module.py:7 count(step)", "module.py:10 lambda(factor)",
    ]
