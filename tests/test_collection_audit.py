"""Collection audit: every test-like function or class under ``tests/`` and
``benchmarks/`` must be one pytest collects.

pytest (default rules, no ini overrides in this repo) collects functions and
methods named ``test*`` from files named ``test_*.py`` or ``*_test.py``, and
methods only from classes named ``Test*`` that define no ``__init__``.  A test
outside those rules never runs and never fails — e.g. a parametrized
``def strategy_tsc_test(...)`` is silently skipped — so this audit parses the
sources and fails on each such case.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AUDITED = sorted(path for folder in ("tests", "benchmarks") for path in (ROOT / folder).rglob("*.py"))


def _collected_file(name: str) -> bool:
    return name.startswith("test_") or name.endswith("_test.py")


def _looks_like_test(name: str) -> bool:
    lowered = name.lower()
    return not name.startswith("_") and (
        lowered.startswith("test") or lowered.endswith(("_test", "_tests"))
    )


def _has_test_methods(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test")
        for node in cls.body
    )


def audit_source(source: str, filename: str) -> list[str]:
    """Describe every test-like definition in ``source`` that pytest would skip."""
    tree = ast.parse(source)
    collected_file = _collected_file(Path(filename).name)
    # Classes inherited by a collected ``Test*`` class are mixins: their test
    # methods run through the subclass.
    mixins = {
        base.id
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test")
        for base in node.bases
        if isinstance(base, ast.Name)
    }
    problems: list[str] = []

    def report(node: ast.AST, qualname: str, why: str) -> None:
        problems.append(f"{filename}:{node.lineno} {qualname}: {why}")

    def visit(body: list[ast.stmt], prefix: str) -> None:
        seen: set[str] = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _looks_like_test(node.name):
                    continue
                qualname = prefix + node.name
                if node.name in seen:
                    report(node, qualname, "redefines an earlier test of the same name")
                seen.add(node.name)
                if not collected_file:
                    report(node, qualname, "file name does not match test_*.py or *_test.py")
                elif not node.name.startswith("test"):
                    report(node, qualname, "name does not start with 'test'")
            elif isinstance(node, ast.ClassDef):
                qualname = prefix + node.name
                if node.name.startswith("Test"):
                    if not collected_file:
                        report(node, qualname, "file name does not match test_*.py or *_test.py")
                        continue
                    if any(
                        isinstance(item, ast.FunctionDef) and item.name == "__init__"
                        for item in node.body
                    ):
                        report(node, qualname, "Test* class defines __init__")
                    visit(node.body, qualname + ".")
                elif _has_test_methods(node) and node.name not in mixins:
                    report(node, qualname, "test methods in a class not named Test*")

    visit(tree.body, "")
    return problems


def test_every_test_like_definition_is_collected():
    problems = [
        problem
        for path in AUDITED
        for problem in audit_source(path.read_text(), str(path.relative_to(ROOT)))
    ]
    assert not problems, "pytest would silently skip:\n" + "\n".join(problems)


def test_audit_covers_both_suites():
    folders = {path.relative_to(ROOT).parts[0] for path in AUDITED}
    assert folders == {"tests", "benchmarks"}


_BROKEN = '''
import pytest

@pytest.mark.parametrize("strategy", ["a", "b"])
def strategy_tsc_test(strategy):
    assert strategy

def test_twice():
    pass

def test_twice():
    pass

class TestWithInit:
    def __init__(self):
        self.x = 1

    def test_x(self):
        assert self.x

class Helpers:
    def test_never_runs(self):
        pass

class Mixin:
    def test_runs_through_subclass(self):
        pass

class TestUsesMixin(Mixin):
    def test_fine(self):
        pass
'''


_NOT_COLLECTED = "file name does not match test_*.py or *_test.py"


@pytest.mark.parametrize(
    "filename, expected",
    [
        (
            "tests/test_broken.py",
            [
                "strategy_tsc_test: name does not start with 'test'",
                "test_twice: redefines an earlier test of the same name",
                "TestWithInit: Test* class defines __init__",
                "Helpers: test methods in a class not named Test*",
            ],
        ),
        (
            "tests/helpers.py",
            [
                f"strategy_tsc_test: {_NOT_COLLECTED}",
                f"test_twice: {_NOT_COLLECTED}",
                "test_twice: redefines an earlier test of the same name",
                f"test_twice: {_NOT_COLLECTED}",
                f"TestWithInit: {_NOT_COLLECTED}",
                "Helpers: test methods in a class not named Test*",
                f"TestUsesMixin: {_NOT_COLLECTED}",
            ],
        ),
    ],
)
def test_audit_flags_each_failure_mode(filename, expected):
    problems = audit_source(_BROKEN, filename)
    assert [problem.split(" ", 1)[1] for problem in problems] == expected
