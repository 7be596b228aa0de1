"""Every module parses under the oldest grammar pyproject.toml supports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quasifold"
OLDEST = (3, 10)  # requires-python = ">=3.10"


def test_oldest_grammar_matches_pyproject():
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert f'requires-python = ">={OLDEST[0]}.{OLDEST[1]}"' in text


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_parses_with_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
