"""Source hygiene of ``src/pqlab``, checked with the standard library's ``ast``.

Two kinds of leftover fail here: a module-level import that its module
never uses (re-exports, marked ``noqa: F401`` or listed in ``__all__``,
excepted), and a private (``_name``) module-level function or class that
nothing in the package references.  Both are what a deletion tends to
leave behind.

A third check keeps every file write in one place: only
``market_paths.artifact`` (a temporary name, then ``os.replace``) and the
two logs that ``cli.cmd_train`` streams may open a file for writing or
call ``np.savez``.

A fourth keeps the package on numpy alone: no module imports scipy, or
calls the numpy functions whose first call imports ``numpy.ma``.

A fifth keeps one source of Q's paths: ``q_pricer`` makes its random
streams and draws its normals in one place, the Brownian-block helper.
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


# (module, function) of every call allowed to write a file, one entry per call:
# the artifact writer, and the one append-mode open of the train command's logs
ALLOWED_WRITERS = [("cli.py", "_append"), ("market_paths.py", "artifact")]


def _call_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_text(node, letters=None) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (letters is None or set(node.value) <= set(letters)))


def _opens_for_writing(call: ast.Call) -> bool:
    """``open``, ``io.open`` or ``Path.open`` with a mode that is not a constant
    free of w, a, x and +; or ``write_text``/``write_bytes``."""
    name = _call_name(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if isinstance(call.func, ast.Attribute) and call.args and _is_text(call.args[0], "rwabxt+"):
        modes.append(call.args[0])  # Path(p).open("w")
    return bool(modes) and not (_is_text(modes[0]) and not set(modes[0].value) & set("wax+"))


def file_writers(sources: dict) -> list:
    """(module, enclosing function) of each call that opens a file for writing,
    or saves an npz archive anywhere but into a handle of ``with artifact(...)
    as fh`` in the same function; sorted, and module-level calls name
    ``<module>``."""
    found = []

    def visit(module, node, scope, handles):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope, handles = node.name, set()
        if isinstance(node, (ast.With, ast.AsyncWith)):
            handles.update(item.optional_vars.id for item in node.items
                           if isinstance(item.context_expr, ast.Call)
                           and _call_name(item.context_expr) == "artifact"
                           and isinstance(item.optional_vars, ast.Name))
        if isinstance(node, ast.Call) and (
                _opens_for_writing(node)
                or ((_call_name(node) or "").startswith("savez")
                    and not (node.args and isinstance(node.args[0], ast.Name)
                             and node.args[0].id in handles))):
            found.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(module, child, scope, handles)

    for module, text in sources.items():
        visit(module, ast.parse(text), "<module>", set())
    return sorted(found)


# numpy functions whose first call imports numpy.ma (13 ms and 1.3 MB)
NUMPY_MA_USERS = {"quantile", "percentile", "nanquantile", "nanpercentile", "unique"}


def heavy_dependencies(sources: dict) -> list:
    """(module, dotted name) for each scipy import, and each numpy function
    in ``NUMPY_MA_USERS`` imported or read as an attribute of numpy; sorted."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import)
                       for alias in node.names if alias.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(module, alias.name) for alias in node.names
                          if alias.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "scipy":
                    found.append((module, node.module))
                elif node.module == "numpy":
                    found += [(module, "numpy." + alias.name) for alias in node.names
                              if alias.name in NUMPY_MA_USERS]
            elif (isinstance(node, ast.Attribute) and node.attr in NUMPY_MA_USERS
                  and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
                found.append((module, "numpy." + node.attr))
    return sorted(found)


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


def test_only_the_artifact_writer_and_the_streamed_logs_write_files():
    assert file_writers(package_sources()) == ALLOWED_WRITERS


def test_the_writer_check_catches_planted_writes():
    sources = {
        "a.py": ("import numpy as np\n"
                 "from .market_paths import artifact\n"
                 "def reads(p):\n"
                 "    open(p).close()\n    open(p, 'rb').close()\n"
                 "    open(p, mode='r', encoding='utf-8').close()\n"
                 "def writes(p, m):\n"
                 "    open(p, 'w').close()\n    open(p, mode='ab').close()\n"
                 "    open(p, m).close()\n    open(p, 'r+b').close()\n"
                 "    import pathlib\n    pathlib.Path(p).open('x').close()\n"
                 "    pathlib.Path(p).write_text('x')\n"
                 "def through_artifact(p):\n"
                 "    with artifact(p, 'wb') as fh:\n        np.savez(fh, x=1)\n"
                 "    with artifact(p) as out:\n        out.write('x')\n"
                 "def saves(p, fh):\n"
                 "    np.savez(p, x=1)\n    np.savez_compressed(fh, x=1)\n"),
        "b.py": "with open('log.txt', 'w') as fh:\n    fh.write('x')\n",
    }
    assert file_writers(sources) == ([("a.py", "saves")] * 2 + [("a.py", "writes")] * 6
                                     + [("b.py", "<module>")])


def test_the_package_needs_neither_scipy_nor_numpy_ma():
    assert heavy_dependencies(package_sources()) == []


def test_the_dependency_check_catches_planted_uses():
    sources = {
        "a.py": ("import numpy as np\nimport scipy.special\nfrom scipy import stats\n"
                 "def f(x):\n    return np.quantile(x, 0.5), np.percentile(x, 50)\n"),
        "b.py": ("import numpy\nfrom numpy import unique\n"
                 "def g(x):\n    from scipy.special import kolmogorov\n"
                 "    return numpy.unique(x), kolmogorov(x)\n"
                 "# np.quantile in a comment\n'np.unique in a string'\n"),
        "c.py": ("import numpy as np\n"
                 "def h(x, table):\n    return np.sort(x), table.unique(), np.floor(x)\n"),
    }
    assert heavy_dependencies(sources) == [
        ("a.py", "numpy.percentile"), ("a.py", "numpy.quantile"), ("a.py", "scipy"),
        ("a.py", "scipy.special"), ("b.py", "numpy.unique"), ("b.py", "numpy.unique"),
        ("b.py", "scipy.special")]


def calls_by_function(text: str, names) -> list:
    """(enclosing module-level function or class, called name) of each call
    whose function or attribute name is in ``names``; sorted, and
    module-level calls name ``<module>``."""
    found = []
    for node in ast.parse(text).body:
        scope = getattr(node, "name", "<module>")
        found += [(scope, _call_name(call)) for call in ast.walk(node)
                  if isinstance(call, ast.Call) and _call_name(call) in names]
    return sorted(found)


def test_q_paths_come_from_one_brownian_block_helper():
    text = package_sources()["q_pricer.py"]
    assert calls_by_function(text, {"default_rng", "standard_normal"}) == [
        ("_brownian_block", "default_rng"), ("_brownian_block", "standard_normal")]


def test_the_stream_check_catches_a_second_draw():
    text = ("import numpy as np\n"
            "def _brownian_block(seed, out):\n"
            "    np.random.default_rng(seed).standard_normal(out=out)\n"
            "class Sim:\n"
            "    def antithetic(self, seed):\n"
            "        return -np.random.default_rng(seed).standard_normal(3)\n")
    assert calls_by_function(text, {"default_rng", "standard_normal"}) == [
        ("Sim", "default_rng"), ("Sim", "standard_normal"),
        ("_brownian_block", "default_rng"), ("_brownian_block", "standard_normal")]
