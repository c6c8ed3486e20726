"""Every name a module imports, every parameter a function takes, and
every function or class the package defines is read, and no module reads
the process environment.

No linter ships with the package, so this keeps the source pruned with
the standard library alone: parse each module under src/tmotive and
collect the names its import statements bind that it never reads
(package __init__ files re-export by design and are skipped), the
parameters of each function or lambda that its body never reads, the
functions and classes that neither the package nor the benchmark reads
(helpers only tests need live in the tests), every read of os.environ
or os.getenv, so that no environment variable can switch a code path
behind the tests' back, and every subscript of an element's digit list
(x.coeffs()[k]), since every digit is already in FieldSpec.lane_np.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tmotive"


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


# the two traced kernel entry points share one 12-argument signature,
# which the benchmark's tracer reads positionally (the cap is args[11]);
# each may leave unread exactly the tables it has no use for, and must
# read every other argument (series_dot, the untraced fused product,
# reads all of its own)
_SHARED_SIGNATURES = {"_kernels/pure.py": {
    "series_add_merge": {"logt", "expt", "lane_exp", "qm1"},
}}


def _unused_parameters(tree, exempt):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        allowed = exempt.get(getattr(node, "name", None), set())
        out += [(node.lineno, p) for p in params
                if p not in ("self", "cls") and p not in allowed and p not in read]
        # an exemption for a parameter that is read is stale
        out += [(node.lineno, f"{p} (exempt, yet read)") for p in sorted(allowed & read)]
    return sorted(out)


def test_no_unused_parameters():
    modules = sorted(SRC.rglob("*.py"))
    unused = []
    for path in modules:
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{rel}:{line}: {name}" for line, name in
                   _unused_parameters(tree, _SHARED_SIGNATURES.get(rel, {}))]
    assert not unused, "parameter never read:\n" + "\n".join(unused)


_ENV_NAMES = {"environ", "getenv"}


def _environment_reads(tree):
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            out.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, f"from os import {a.name}")
                    for a in node.names if a.name in _ENV_NAMES]
    return sorted(out)


def test_no_environment_reads():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    reads = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [f"{path.relative_to(SRC)}:{line}: {what}"
                  for line, what in _environment_reads(tree)]
    assert not reads, "environment read:\n" + "\n".join(reads)


def _reads(tree):
    """Every name a module could reach a definition by: loaded names,
    attribute names, names imported from a module, and the dotted parts
    of string constants (the benchmark's tracer names its targets as
    strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def test_no_definitions_only_tests_read():
    read = set()
    defined = []
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= _reads(tree)
        if path.is_relative_to(SRC):
            defined += [(f"{path.relative_to(SRC)}:{node.lineno}", node.name)
                        for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef))]
    assert defined
    # dunder methods are read by the language itself
    unread = [f"{where}: {name}" for where, name in defined
              if name not in read and not (name.startswith("__") and name.endswith("__"))]
    assert not unread, "defined but read by no module:\n" + "\n".join(unread)


def _digit_subscripts(tree):
    """Calls x.coeffs()[...]: one digit read off an element's digit list."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute)
                  and node.value.func.attr == "coeffs")


def test_no_per_digit_reads():
    # digits come from FieldSpec.lane_np, which holds them all in one word
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [f"{path.relative_to(SRC)}:{line}" for line in _digit_subscripts(tree)]
    assert not reads, "element digit list subscripted:\n" + "\n".join(reads)
