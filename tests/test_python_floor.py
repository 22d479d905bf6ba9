"""Every module parses under the oldest Python that pyproject.toml supports."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted([*(ROOT / "src" / "myobench").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])


def test_floor_is_python_3_10():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
