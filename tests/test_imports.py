"""Every name a `src/probdiar` module imports is used in that module.

`__init__.py` only re-exports, and `from __future__` imports are
directives, so neither is checked."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "probdiar"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from x import a, b as c\nprint(np.pi, c)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
