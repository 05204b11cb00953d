"""README's library examples: every python block runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_prints_what_its_comments_say(code):
    # each print(...) line ends in "# expected output", one line per print
    expected = re.findall(r"^\s*print\(.*\)\s*#\s*(.*?)\s*$", code, re.M)
    assert len(expected) == code.count("print("), "a print without an expected comment"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
