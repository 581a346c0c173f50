"""Every name a mvfuse module imports is used: read there, exported, or marked."""

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
