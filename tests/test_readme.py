"""The README's library quickstart runs as written and gives the values its comments state."""

import ast
import re

import pytest

from conftest import SCENARIO_DIR

README = SCENARIO_DIR.parent / "README.md"


def quickstart() -> str:
    """The Python block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_quickstart_runs_and_gives_the_values_it_states():
    # each expression line is evaluated on its own; a comment that opens with
    # a number states the value the line gives
    source = quickstart()
    lines, namespace, stated = source.splitlines(), {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
            number = re.search(r"#\s*(-?\d[\d.]*)(?!\S)", lines[stmt.end_lineno - 1])
            if number:
                stated[ast.get_source_segment(source, stmt.value)] = (float(number[1]), value)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), README.name, "exec"), namespace)
    assert set(stated) == {"nv.system_failure_prob(net, belief)", "report.best"}
    for line, (want, got) in stated.items():
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), line
    assert stated["report.best"][1] == 1
