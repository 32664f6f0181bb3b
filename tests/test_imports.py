"""Every import in a module of the package is used by that module, and
every private helper of the package is used somewhere in it.  A fresh
interpreter that imports the package loads none of the costly modules
that only some commands need.

`__init__.py` imports in order to re-export, and `__future__` imports
change compilation rather than bind a name, so both are exempt.  A private
helper is a module-level function or class, or a method, whose name has
one leading underscore; it is used when some module of the package names
it, as a plain name or as an attribute.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ortho7

PACKAGE = Path(ortho7.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text()))
        if unused:
            found[path.name] = unused
    assert not found, found


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, isqrt\nisqrt(os.sep)\n")
    assert _unused_imports(tree) == ["gcd (line 2)"]


def _private_helpers(tree: ast.Module) -> dict[str, int]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [n for n in tree.body if isinstance(n, defs)]
    nodes += [m for n in nodes if isinstance(n, ast.ClassDef)
              for m in n.body if isinstance(m, defs)]
    return {n.name: n.lineno for n in nodes
            if n.name.startswith("_") and not n.name.endswith("__")}


def _used_names(tree: ast.Module) -> set[str]:
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _dead_helpers(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*map(_used_names, trees.values()))
    return [f"{name}: {helper} (line {line})"
            for name, tree in trees.items()
            for helper, line in _private_helpers(tree).items()
            if helper not in used]


def test_no_dead_private_helpers():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_helpers(sources) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "a.py": ("def _kept():\n    pass\n\n\ndef _dead():\n    pass\n\n\n"
                 "class _Box:\n    def _open(self):\n        pass\n\n"
                 "    def __len__(self):\n        return 0\n"),
        "b.py": "import a\na._kept()\nbox = a._Box()\n",
    }
    assert _dead_helpers(sources) == ["a.py: _dead (line 5)",
                                      "a.py: _open (line 10)"]


# a process pool (about 20 ms of imports), any executor (concurrent.futures,
# about 8 ms) and numpy.ma (14-17 ms), which a first plain np.unique call
# imports
COSTLY = ("multiprocessing", "concurrent.futures", "concurrent.futures.process",
          "numpy.ma")


def _costly_modules_after(code: str) -> list[str]:
    """The COSTLY modules loaded by a fresh interpreter that runs `code`."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = f"{code}\nimport sys\nprint(*[m for m in {COSTLY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return out.stdout.split()


def test_import_loads_no_costly_module():
    assert _costly_modules_after("import ortho7") == []


def test_distinctness_check_leaves_numpy_ma_unloaded():
    code = "from ortho7 import verify\nassert verify.check_distinctness().ok"
    assert "numpy.ma" not in _costly_modules_after(code)
