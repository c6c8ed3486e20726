"""Every name a module imports is used in that module.

No linter ships with the package, so this keeps the source pruned with
the standard library alone: parse each module under src/tmotive (package
__init__ files re-export by design and are skipped) and collect the
names its import statements bind that it never reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tmotive"


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for line, name in _unused_imports(tree)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
