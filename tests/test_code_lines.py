"""The code-line counter in scripts/: what counts as a code line."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps the line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is not a docstring
spans two lines"""
    return (x +
            1)


class C:
    """Class docstring.

    Its body is counted below.
    """
    value = 1
'''


def test_counts_code_lines_only():
    # import, def, text (2 lines), return (2 lines), class, value
    assert code_lines.code_lines(SOURCE) == 8


def test_empty_and_docstring_only_modules():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["2", "1", "3"]
    assert lines[-1].split()[1] == "total"
