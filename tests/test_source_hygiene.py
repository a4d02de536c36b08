"""Source hygiene of ``src/pqlab``, checked with the standard library's ``ast``.

Two kinds of leftover fail here: a module-level import that its module
never uses (re-exports, marked ``noqa: F401`` or listed in ``__all__``,
excepted), and a private (``_name``) module-level function or class that
nothing in the package references.  Both are what a deletion tends to
leave behind.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pqlab"


def package_sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def unused_imports(sources: dict) -> list:
    """(module, name) for each module-level import binding its module never reads."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:  # names listed in __all__ are exported, so used
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue  # a marked re-export
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    found.append((module, bound))
    return found


def unreferenced_private_definitions(sources: dict) -> list:
    """(module, name) for each private module-level def or class no module names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]


def test_every_module_level_import_is_used():
    assert unused_imports(package_sources()) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_private_definitions(package_sources()) == []


def test_the_checks_catch_planted_leftovers():
    sources = {
        "a.py": ("from __future__ import annotations\n"
                 "import math\nimport os.path\nimport numpy as np\n"
                 "from .b import _used, kept  # noqa: F401\n"
                 "from .b import exported\n__all__ = ['exported']\n"
                 "def _orphan():\n    return np.pi\n"
                 "class _Orphan:\n    pass\n"
                 "def _recurses():\n    return _recurses()\n"),
        "b.py": "def _used():\n    return 1\n\nclass _Named:\n    pass\n\nx = _Named\n",
    }
    assert unused_imports(sources) == [("a.py", "math"), ("a.py", "os")]
    # a self-call counts as a reference: only a def nothing calls is caught
    assert unreferenced_private_definitions(sources) == [("a.py", "_orphan"),
                                                         ("a.py", "_Orphan")]
