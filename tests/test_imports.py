"""Every name a module in src/cellpilot/ or tests/ imports is used in it.

Stdlib only (ast), so it runs wherever the suite runs. `from __future__`
imports and the imports of `__init__.py` files (re-exports) are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    files = [*(ROOT / "src" / "cellpilot").glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    assert len(files) > 20
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted(files) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_imports_sees_plain_from_and_dotted_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\n"
              "def f(x: np.ndarray) -> str:\n    return dumps(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "parse")]
