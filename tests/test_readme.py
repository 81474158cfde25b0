"""The README's library quickstart runs as printed: a renamed or deleted
public name fails here, and a number in a result comment is the repr the
line gives."""

import ast
import re
from pathlib import Path

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_library_quickstart_runs_and_its_numbers_are_the_reprs():
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if re.fullmatch(r"[0-9.]+", comment):
            assert repr(value) == comment
            checked += 1
    assert checked == 2
