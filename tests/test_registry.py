"""No-Ray check of the derived query registry: ``queries()`` is every
``_q_<name>`` function of ``__ray_entry__``, oracle-checked ones first in
``oracle_sql()`` order, the rest in definition order."""

from __future__ import annotations

import ast

import pytest

import __ray_entry__ as entrymod


def _defined_queries() -> list[str]:
    """``<name>`` of each module-level ``def _q_<name>``, in source order."""
    with open(entrymod.__file__) as fh:
        tree = ast.parse(fh.read())
    return [node.name[3:] for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_q_")]


def test_queries_are_the_q_functions_oracle_first():
    q = entrymod.queries()
    oracle = list(entrymod.oracle_sql())
    rest = [name for name in _defined_queries() if name not in oracle]
    assert list(q) == oracle + rest
    for name, fn in q.items():
        assert fn is getattr(entrymod, f"_q_{name}")


def test_oracle_name_without_function_raises(monkeypatch):
    sql = {**entrymod.oracle_sql(), "no_such_query": "SELECT 1"}
    monkeypatch.setattr(entrymod, "oracle_sql", lambda: sql)
    with pytest.raises(KeyError, match="no_such_query"):
        entrymod.queries()
