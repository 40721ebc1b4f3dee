"""The usage examples in the package's docstrings and README, run as tests."""

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import supportgenus

MODULES = sorted(info.name for info in pkgutil.iter_modules(supportgenus.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"supportgenus.{name}"))
    assert result.failed == 0


def test_readme_python_blocks_run():
    # The blocks run in order in one namespace, as a reader would paste
    # them; what they print is captured.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue()
