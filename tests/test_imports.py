"""Every import in a module of the package is used by that module.

`__init__.py` imports in order to re-export, and `__future__` imports
change compilation rather than bind a name, so both are exempt.
"""

import ast
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
