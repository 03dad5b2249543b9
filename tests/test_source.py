"""Invariants of the package source itself, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tima"
MODULES = sorted(SRC.rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_is_found():
    # an empty parametrization below would pass without checking anything
    assert SRC / "files.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_runtime_contract_relies_on_assert(path):
    # `python -O` strips assert statements: a check must raise a TimaError
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "files.py"],
                         ids=lambda p: p.name)
def test_files_are_opened_and_directories_made_in_tima_files_only(path):
    def opens_or_makes(call):
        f = call.func
        return ((isinstance(f, ast.Name) and f.id == "open")
                or (isinstance(f, ast.Attribute) and f.attr in ("open", "mkdir")))

    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and opens_or_makes(node)]
    assert lines == [], f"{path.name} opens a file or makes a directory on lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "attacks.py"],
                         ids=lambda p: p.name)
def test_score_batch_is_named_in_tima_attacks_only(path):
    # scored_passes alone cuts a dataset into seeded SCORE_BATCH-row jobs
    lines = [node.lineno for node in ast.walk(_tree(path))
             if (isinstance(node, ast.Name) and node.id == "SCORE_BATCH")
             or (isinstance(node, ast.Attribute) and node.attr == "SCORE_BATCH")
             or (isinstance(node, ast.alias) and node.name == "SCORE_BATCH")]
    assert lines == [], f"{path.name} names SCORE_BATCH on lines {lines}"
