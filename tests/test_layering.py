"""The package and the demos stand on their own: nothing under
`src/clfgame` or `demos/` imports from the test suite, so a test helper
such as the mixed-strategy payoff oracle cannot become product code.  And
no module of the package imports a name it never uses, so a deletion
leaves no import behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Top-level names the test suite's modules are importable under: the
#: package `tests` (the repository root is on the path) and each module of
#: the directory itself (pytest puts `tests/` on the path too).
TEST_MODULES = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}


def imported_roots(path):
    """The top-level module name of every import statement in `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_product_code_imports_nothing_from_tests():
    sources = sorted((ROOT / "src" / "clfgame").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(sources) >= 15, sources
    assert "payoff_oracle" in TEST_MODULES
    leaks = [(path.relative_to(ROOT).as_posix(), root)
             for path in sources for root in imported_roots(path) if root in TEST_MODULES]
    assert leaks == []


def unused_imports(path):
    """The names `path` imports and never reads.  A name counts as read
    where it appears as a name, as the root of an attribute chain or in a
    string annotation; a `# noqa: F401` mark does not excuse an import."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {name.id for name in ast.walk(annotation) if isinstance(name, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_package_modules_use_every_name_they_import():
    sources = [path for path in sorted((ROOT / "src" / "clfgame").glob("*.py"))
               if path.name != "__init__.py"]
    assert len(sources) >= 10, sources
    unused = {path.name: names for path in sources if (names := unused_imports(path))}
    assert unused == {}
    # a module re-exports nothing: only `__init__.py` may mark an import unused
    marked = [path.name for path in sources if "noqa: F401" in path.read_text(encoding="utf-8")]
    assert marked == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport sys  # noqa: F401\nfrom typing import Any, Optional\n"
                    "x: \"Optional[int]\" = os.sep\n", encoding="utf-8")
    assert unused_imports(path) == ["Any", "sys"]
