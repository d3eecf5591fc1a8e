import ast
import subprocess
import sys
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


def test_cli_import_loads_no_record_or_fraction_machinery():
    # dataclasses (which imports inspect) and fractions would add about
    # 10 ms to every start of the command line; a fresh interpreter shows
    # which modules importing the CLI adds to those that site loaded
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import strongext.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    root = str(Path(strongext.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe, root],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "strongext.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions"})


def test_every_export_has_a_caller_in_the_package():
    # a public name that no other module of the package loads has no
    # caller outside the tests; imports do not count as uses
    package = Path(strongext.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    loaded = {
        node.id
        for path in package.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert len(exported) >= 40
    assert sorted(exported - loaded) == []


def test_orientation_is_decided_in_the_cli():
    # the library's beats digraph runs winner-to-loser only; the command
    # line alone names the two orientations and reverses for the other
    package = Path(strongext.__file__).parent
    named = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and node.value in ("winner-to-loser", "loser-to-winner")
    }
    assert named == {"cli.py"}


def test_certificate_text_is_read_and_written_in_dicut_py():
    # the ``dicut:`` line's reader and writer sit together, beside the
    # ``+ u v`` line's, so a new certificate kind has one module to join
    package = Path(strongext.__file__).parent
    named = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("dicut:")
    }
    assert named == {"dicut.py"}


def test_edge_codes_are_read_in_digraph_py_only():
    # the u * n + v codes are the digraph's storage format; every other
    # module asks has_edge, so the format can change in one module
    package = Path(strongext.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "digraph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_codes"
    ]
    assert readers == []


def test_every_record_attribute_has_a_reader_in_the_package():
    # a public method, property or field of a record that no module of the
    # package reads computes nothing for any caller but the tests
    package = Path(strongext.__file__).parent
    read = {
        node.attr
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    records = (strongext.StrictDigraph, strongext.DiceSet, strongext.Condensation)
    unread = [
        f"{cls.__name__}.{name}"
        for cls in records
        # the class dict holds the methods, the properties and the named
        # tuple's fields; an immutable value's fields are named by its _key
        for name in sorted({*vars(cls), *getattr(cls, "_key", ())})
        if not name.startswith("_") and name not in read
    ]
    assert unread == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never loads; ``from __future__`` is
    exempt, since it binds no name the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in loaded
    ]


def test_no_unused_imports():
    # an import that nothing reads costs load time and hides which
    # dependencies a module really has; the package's __init__ only
    # re-exports, so its imports are its public names
    package = Path(strongext.__file__).parent
    tests = Path(__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    assert len(paths) >= 15
    assert [found for path in paths for found in _unused_imports(path)] == []


def _functions(tree: ast.Module):
    """Qualified name and node of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def test_cached_builds():
    # a digraph caches its out-lists and two derived builds, the
    # condensation and the score chain, and a dice set its win matrix;
    # every strongness and dicut answer reads those, and Tarjan runs only
    # inside the condensation and the growth state's linked quotient
    package = Path(strongext.__file__).parent
    cached: dict[str, set[str]] = {}
    tarjan_callers = set()
    for path in sorted(package.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            owner, _, attr = name.rpartition(".")
            decorators = (ast.unparse(d).rpartition(".")[2] for d in node.decorator_list)
            if "cached_property" in decorators:
                cached.setdefault(owner, set()).add(attr)
            if any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "_tarjan_sccs"
                for call in ast.walk(node)
            ):
                tarjan_callers.add(name)
    expected = {
        "StrictDigraph": {"_out_lists", "_condensation", "_dicut_chain"},
        "DiceSet": {"_win_matrix"},
    }
    problems = [
        f"{owner}.{attr} is {'not ' if attr in expected.get(owner, ()) else ''}"
        "a cached_property"
        for owner in sorted(cached.keys() | expected.keys())
        for attr in sorted(cached.get(owner, set()) ^ expected.get(owner, set()))
    ]
    problems += [
        f"{name} calls _tarjan_sccs"
        for name in sorted(tarjan_callers - {"StrictDigraph._condensation", "_Growth.__init__"})
    ]
    assert problems == []
