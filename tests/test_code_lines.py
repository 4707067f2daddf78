"""The code-line counter in tools/: what it counts and what it leaves out."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Counted lines end in "# +"; a comment of its own line is never counted.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # +


class A:  # +
    """Class docstring."""

    def f(self, x):  # +
        """Function docstring."""
        y = (x +  # +
             1)  # +
        "a string statement that is not first"  # +
        return """a string
over two lines"""  # +

async def g():  # +
    \'\'\'Async docstring.\'\'\'
    return f"{os.sep}"  # +
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # The nine lines marked "# +", and the first line of the two-line return.
    assert code_lines.count_source(FIXTURE) == 10


def test_cli_totals_every_python_file_under_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["11", "total"]
