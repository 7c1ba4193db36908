"""No-Ray lint: every import inside a function body is used by that
function (a nested function or lambda counts as the function's own use).
An unused local import is dead code that still runs on each call."""

from __future__ import annotations

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _unused_local_imports(source: str, path: str = "<src>") -> list[str]:
    """``path:line name`` for each name a function imports and never
    reads. An import belongs to the nearest enclosing function."""
    found = []
    for fn in ast.walk(ast.parse(source, path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        imports, todo = [], list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.append(node)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
        used = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        for imp in imports:
            for alias in imp.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path}:{imp.lineno} {name}")
    return found


def test_lint_flags_only_unused_local_imports():
    src = (
        "def f():\n"
        "    import numpy as np\n"
        "    import pyarrow.compute\n"
        "    from os import path, sep\n"
        "    def g():\n"
        "        return np.zeros(1)\n"
        "    return g, pyarrow, path\n"
        "def h():\n"
        "    def inner():\n"
        "        import json\n"
        "    return inner\n"
    )
    assert _unused_local_imports(src) == ["<src>:4 sep", "<src>:10 json"]


def test_no_unused_function_local_imports():
    files = glob.glob(os.path.join(REPO, "opentelemetry_collector_ray",
                                   "**", "*.py"), recursive=True)
    files += [os.path.join(REPO, f) for f in
              ("__ray_entry__.py", "bench.py", "bench_skew.py")]
    offenders = []
    for f in sorted(files):
        with open(f) as fh:
            offenders += _unused_local_imports(fh.read(),
                                               os.path.relpath(f, REPO))
    assert offenders == []
