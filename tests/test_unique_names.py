"""No-Ray lint: nothing silently replaces a definition. A module-level
``def`` or ``class`` name is bound once in its module, and no dict
literal repeats a constant key. ``queries()`` is derived from the
``_q_<name>`` functions, so a second ``def _q_x`` would replace the
first query without an error."""

from __future__ import annotations

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bindings(body: list[ast.stmt]):
    """``(name, line)`` for each module-level binding in source order,
    including those under a top-level ``if``/``try``/``with``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for n in (n for t in targets for n in ast.walk(t)):
                if isinstance(n, ast.Name):
                    yield n.id, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            yield from _bindings(
                node.body + getattr(node, "orelse", [])
                + [s for h in getattr(node, "handlers", []) for s in h.body]
                + getattr(node, "finalbody", []))


def _overwrites(source: str, path: str = "<src>") -> list[str]:
    """``path:line name`` for each rebinding of a module-level ``def`` or
    ``class`` name, and for each constant key a dict literal repeats."""
    tree = ast.parse(source, path)
    defs = {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}
    found, seen = [], set()
    for name, line in _bindings(tree.body):
        if name in defs and name in seen:
            found.append(f"{path}:{line} {name}")
        seen.add(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = set()
            for k in node.keys:
                if isinstance(k, ast.Constant):
                    if k.value in keys:
                        found.append(f"{path}:{k.lineno} {k.value!r}")
                    keys.add(k.value)
    return found


def test_lint_flags_a_rebound_definition():
    src = (
        "import os\n"
        "def _q_a(sf):\n"
        "    return 1\n"
        "class C:\n"
        "    def m(self): pass\n"
        "    def m(self): pass\n"
        "def _q_b(sf):\n"
        "    x = 1\n"
        "    return x\n"
        "if os.name:\n"
        "    C = int\n"
        "def _q_a(sf):\n"
        "    return 2\n"
    )
    assert _overwrites(src) == ["<src>:11 C", "<src>:12 _q_a"]


def test_lint_flags_a_repeated_dict_key():
    src = (
        "REG = {'a': 1, 'b': 2, 'a': 3}\n"
        "def f():\n"
        "    return {1: 'x', 2: 'y', **REG, k: 'z', k: 'w'}\n"
    )
    assert _overwrites(src) == ["<src>:1 'a'"]


def test_no_silent_overwrites():
    files = glob.glob(os.path.join(REPO, "opentelemetry_collector_ray",
                                   "**", "*.py"), recursive=True)
    files += [os.path.join(REPO, f) for f in
              ("__ray_entry__.py", "bench.py", "bench_skew.py")]
    offenders = []
    for f in sorted(files):
        with open(f) as fh:
            offenders += _overwrites(fh.read(), os.path.relpath(f, REPO))
    assert offenders == []
