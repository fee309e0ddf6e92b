"""tools/code_lines.py: the code-line count the design aim is measured by."""

import importlib.util

from conftest import ROOT

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


# every kind of line the count skips or keeps: docstrings of a module, a
# class, a method and an async function, comments, blank lines, and
# strings that are not docstrings
_SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Method
        docstring."""
        return """a multi-line
string that is
not a docstring"""


async def g():
    """Async docstring."""
    await os.sched_yield()


def k():
    y = 2
    """A string after the first statement is not a docstring."""
    return y
'''

# import, class, x = 1, def f, the three lines of the returned string,
# async def, await, def k, y = 2, the late string, return y
_CODE_LINES = 13


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    assert code_lines.code_lines(_SOURCE) == _CODE_LINES


def test_main_prints_one_line_per_module_and_their_sum(tmp_path, capsys):
    (tmp_path / "alpha.py").write_text(_SOURCE)
    (tmp_path / "beta.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["alpha", str(_CODE_LINES)], ["beta", "1"],
                    ["total", str(_CODE_LINES + 1)]]
