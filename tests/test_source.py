import ast
from pathlib import Path

import strongext


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so a check the package relies
    # on must raise explicitly
    paths = sorted(Path(strongext.__file__).parent.glob("*.py"))
    assert len(paths) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
