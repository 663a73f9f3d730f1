"""The code-line counter skips blanks, comments and docstrings only, in a
file or in one definition."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''\
"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,
        over two lines."""
        s = """a string that is
        not a docstring"""
        return (x +
                1)

    async def g(self):
        \'\'\'Async function docstring.\'\'\'
        pass
'''


def _module():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_synthetic_source(tmp_path, capsys):
    """import, class, def, the two lines of the string that is not a
    docstring, the two of the return, async def and pass: 9 lines; the
    command line prints each file and the total."""
    module = _module()
    assert module.code_lines(SOURCE) == 9
    assert module.code_lines("") == 0
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert module.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["10", "total"]


def test_code_lines_of_one_definition(tmp_path, capsys):
    """``FILE::QUALNAME`` counts one definition's code lines without its
    docstring: ``A.f`` is its def, the two lines of the string and the two
    of the return; ``A.g`` its async def and pass; ``A`` both and its class
    line. A name that is not defined exits 2."""
    module = _module()
    assert module.definition_lines(SOURCE, "A.f") == 5
    assert module.definition_lines(SOURCE, "A.g") == 2
    assert module.definition_lines(SOURCE, "A") == 8
    decorated = "import functools\n\n\n@functools.cache\ndef h():\n    return 1\n"
    assert module.definition_lines(decorated, "h") == 3
    (tmp_path / "a.py").write_text(SOURCE)
    assert module.main([f"{tmp_path / 'a.py'}::A.f", f"{tmp_path / 'a.py'}::A.g"]) == 0
    out = capsys.readouterr().out.split("\n")
    assert out[0].split() == ["5", f"{tmp_path / 'a.py'}::A.f"]
    assert out[-2].split() == ["7", "total"]
    for missing in ("A.h", "f", "A.f.x"):
        with pytest.raises(SystemExit) as exit_info:
            module.main([f"{tmp_path / 'a.py'}::{missing}"])
        assert exit_info.value.code == 2
