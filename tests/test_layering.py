"""The package and the demos stand on their own: nothing under
`src/clfgame` or `demos/` imports from the test suite, so a test helper
such as the mixed-strategy payoff oracle cannot become product code."""

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
