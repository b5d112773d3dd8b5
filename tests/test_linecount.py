import linecount

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line code

# a comment line


def f(a,
      b):
    """Function docstring."""
    "a statement that is only a string"
    return os.path.join(
        a, b
    )
'''


def test_counts_code_lines_by_token():
    """Of 15 lines, 3 are docstrings, 1 a string statement, 4 blank and 1 a
    comment; the import and all 5 lines of the two multi-line statements are
    code."""
    assert linecount.count(FIXTURE) == (15, 6)


def test_main_prints_files_and_directory_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert linecount.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["15", "6", str(tmp_path / "a.py")],
        ["2", "1", str(tmp_path / "b.py")],
        ["17", "7", str(tmp_path)],
    ]
