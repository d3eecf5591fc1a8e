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


def test_cli_imports_only_public_names():
    # the command line goes through the same public functions as any
    # library caller, so it shares their cached data and their checks
    path = Path(strongext.__file__).parent / "cli.py"
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("strongext"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
