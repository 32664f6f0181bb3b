"""Every import in a module of the package is used by that module, and
every private helper and module constant of the package is used somewhere
in it.  No module keeps a hand-rolled memo: a `global` statement, or a
module-level name bound to an empty {}, set() or None (`functools.cache`
is the package's one memo).  A fresh interpreter that imports the package
loads none of the costly modules that only some commands need.

`__init__.py` imports in order to re-export, and `__future__` imports
change compilation rather than bind a name, so both are exempt.  A private
helper is a module-level function or class, or a method, whose name has
one leading underscore; a module constant is a module-level assignment to
such a name or to an ALL_CAPS one.  Either is used when some module of the
package reads it, as a plain name or as an attribute.  Every public function,
class and method is read by the package too, apart from a short allowlist.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defs(tree: ast.Module) -> list[ast.AST]:
    """The module-level functions and classes of a module, then their methods."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [n for n in tree.body if isinstance(n, kinds)]
    return nodes + [m for n in nodes if isinstance(n, ast.ClassDef)
                    for m in n.body if isinstance(m, kinds)]


def _private_helpers(tree: ast.Module) -> dict[str, int]:
    """The private helpers and module constants of a module, with their lines."""
    found = {n.name: n.lineno for n in _defs(tree) if _private(n.name)}
    for n in tree.body:
        targets = n.targets if isinstance(n, ast.Assign) else [getattr(n, "target", None)]
        found.update((t.id, n.lineno) for t in targets if isinstance(t, ast.Name)
                     and (_private(t.id) or t.id.isupper()))
    return found


def _used_names(tree: ast.Module) -> set[str]:
    """The names a module reads: an assignment does not use its target."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
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
                 "    def __len__(self):\n        return 0\n\n\n"
                 "LIMIT = 1 << 15\n_HEADER: str = 'q,f5'\nSTEP = 2\n"
                 "Mixed = 3\n__all__ = []\n"),
        "b.py": "import a\na._kept()\nbox = a._Box()\nprint(a.STEP)\n",
    }
    # a constant is dead though its own assignment names it
    assert _dead_helpers(sources) == ["a.py: _dead (line 5)",
                                      "a.py: _open (line 10)",
                                      "a.py: LIMIT (line 17)",
                                      "a.py: _HEADER (line 18)"]


# perfbench/ is the benchmark's own code and is edited only with the benchmark
BENCHMARK_HELD = {
    "table_codes": "perfbench/workloads.py calls it (ROADMAP item 7)",
    "enumerate_ops": "perfbench/workloads.py calls it (ROADMAP item 7)",
    "check_audit": "perfbench/workloads.py calls it (ROADMAP item 7)",
}


def _unread_public(sources: dict[str, str]) -> list[str]:
    """The public module-level functions and classes and the public methods
    of `sources` that no module but `__init__.py` reads: as a plain name, as
    an attribute, or as a string that is an identifier (a getattr name).

    Names are matched without their owner, so a reading of a same-named
    attribute elsewhere hides a definition: `np.nonzero` hid a dead
    `Field.nonzero` from this check."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            used |= _used_names(tree) | {
                n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and n.value.isidentifier()}
    return [f"{name}: {n.name} (line {n.lineno})" for name, tree in trees.items()
            for n in _defs(tree) if not n.name.startswith("_") and n.name not in used]


def test_every_public_function_is_read_by_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_public(sources)
    assert [line for line in unread
            if line.split()[1] not in BENCHMARK_HELD] == [], unread
    # each allowlisted name is still defined and still unread
    assert sorted(line.split()[1] for line in unread) == sorted(BENCHMARK_HELD)


def test_the_check_sees_an_unread_public_function():
    sources = {
        "__init__.py": "from .a import dead, Box\n",
        "a.py": ("def kept():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
                 "def named():\n    pass\n\n\n"
                 "class Box:\n    def open(self):\n        pass\n\n"
                 "    def shut(self):\n        pass\n\n"
                 "    def __len__(self):\n        return 0\n\n\n"
                 "class Unused:\n    pass\n"),
        "b.py": ("import a\na.kept()\nbox = a.Box()\nbox.open()\n"
                 "print(getattr(a, 'named'), 'not an identifier: shut()')\n"),
    }
    # __init__.py re-exports without reading; a string reads only as a whole
    # identifier
    assert _unread_public(sources) == ["a.py: dead (line 5)", "a.py: Unused (line 24)",
                                       "a.py: shut (line 17)"]


_EMPTY = {ast.dump(ast.parse(text, mode="eval").body) for text in ("{}", "set()", "None")}


def _memos(tree: ast.Module) -> list[str]:
    """The hand-rolled memos of a module: each `global` statement, and each
    module-level name bound to an empty {}, set() or None."""
    found = [f"global {', '.join(n.names)} (line {n.lineno})"
             for n in ast.walk(tree) if isinstance(n, ast.Global)]
    for n in tree.body:
        if isinstance(n, (ast.Assign, ast.AnnAssign)) and n.value and ast.dump(n.value) in _EMPTY:
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            found += [f"{t.id} (line {n.lineno})" for t in targets if isinstance(t, ast.Name)]
    return found


def test_no_hand_rolled_memos():
    found = {path.name: memos for path in sorted(PACKAGE.glob("*.py"))
             if (memos := _memos(ast.parse(path.read_text())))}
    assert not found, found


def test_the_check_sees_a_hand_rolled_memo():
    tree = ast.parse("_A = None\n_B: dict = {}\nC = set()\nD = {1: 2}\nE = set([1])\n"
                     "F: int\nG = []\n\n\ndef get():\n    global _A, C\n    return _A\n")
    assert _memos(tree) == ["global _A, C (line 11)", "_A (line 1)", "_B (line 2)",
                            "C (line 3)"]


# multiprocessing (about 20 ms of imports), any executor (concurrent.futures,
# about 8 ms) and numpy.ma (14-17 ms), which a first plain np.unique call
# imports: the parallel scans fork with os.fork and need none of them
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


def test_forked_census_and_suite_load_no_costly_module():
    # a 2-worker canonical census at q = 13 forks, and so does the suite's audit
    code = ("import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from ortho7 import perm, verify\n"
            "from ortho7.field import field_for\n"
            "query = perm.CensusQuery(field_for(13), 7, True)\n"
            "assert query.space() * 12 >= perm.INLINE_GATHERS\n"
            "assert perm.census(query, workers=2) == 494\n"
            "assert all(r.ok for r in verify.run_suite(workers=2))")
    assert _costly_modules_after(code) == []
