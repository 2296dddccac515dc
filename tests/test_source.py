"""Static checks over the package source."""

import ast
from pathlib import Path

import permstats


def test_no_assert_statements():
    # `python -O` strips assert statements; self-checks raise InvariantError
    sources = sorted(Path(permstats.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
