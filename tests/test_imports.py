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


def _reads(node: ast.AST) -> set[str]:
    """The names and attribute names that `node` and its children read."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unreachable(src: dict[str, str], bench: list[str]) -> list[str]:
    """`file:line name` of each top-level function or class in the modules
    `src` (path -> source) that the program cannot reach, and
    `file:line Class.method` of each method whose name no code reads.

    Roots are `main`, the names that module-level statements of `src` read
    (docstrings and imports read none) and every name, attribute and
    identifier string in the `bench` sources: the benchmark tracer wraps
    functions by attribute string. A definition reached by name reaches the
    names its body reads, decorators and bases included. Dunder methods are
    called by Python, not by name, and are exempt.

    Reachability goes by name alone, so it over-approximates: a name shared
    by two definitions, or by a definition and a local variable or
    attribute, reaches both.
    """
    roots, everywhere = {"main"}, set()
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    for path, source in src.items():
        tree = ast.parse(source)
        everywhere |= _reads(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((path, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _reads(stmt)
    for source in bench:
        tree = ast.parse(source)
        names = _reads(tree) | {n.value for n in ast.walk(tree)
                                if isinstance(n, ast.Constant)
                                and isinstance(n.value, str) and n.value.isidentifier()}
        roots |= names
        everywhere |= names
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [read for _, node in defs.get(name, ()) for read in _reads(node)]
    found = [(path, node.lineno, name) for name, nodes in defs.items()
             if name not in reached for path, node in nodes]
    found += [(path, fn.lineno, f"{node.name}.{fn.name}")
              for nodes in defs.values() for path, node in nodes
              if isinstance(node, ast.ClassDef) for fn in node.body
              if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
              and fn.name not in everywhere]
    return [f"{path}:{line} {name}" for path, line, name in sorted(found)]


def test_every_definition_in_the_package_is_reachable_from_the_program():
    src = {str(p.relative_to(ROOT)): p.read_text()
           for p in sorted((ROOT / "src" / "cellpilot").glob("*.py"))}
    bench = [p.read_text() for p in sorted((ROOT / "cellbench").glob("*.py"))]
    assert len(src) > 10 and bench
    found = unreachable(src, bench)
    assert not found, ("definitions the program cannot reach (tests-only "
                       "code belongs in tests/oracles.py):\n" + "\n".join(found))


def test_unreachable_follows_names_from_the_roots():
    src = {"m.py": ("X = helper\n"
                    "def main():\n    return used()\n"
                    "def used():\n    return Box().get()\n"
                    "def helper():\n    pass\n"
                    "def dead():\n    return orphan()\n"
                    "def orphan():\n    pass\n"
                    "def traced():\n    pass\n"
                    "class Box:\n    def get(self):\n        pass\n"
                    "    def has(self):\n        pass\n"
                    "    def __len__(self):\n        return 0\n")}
    bench = ["wrap(m, 'traced')\n"]
    assert unreachable(src, bench) == ["m.py:8 dead", "m.py:10 orphan",
                                       "m.py:17 Box.has"]


def test_oracles_import_no_private_program_names():
    # an oracle that imports the program's internals checks the program
    # against itself
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "cellpilot"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, "tests/oracles.py imports " + ", ".join(private)
