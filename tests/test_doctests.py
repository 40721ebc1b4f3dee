"""The usage examples in the package's docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import supportgenus

MODULES = sorted(info.name for info in pkgutil.iter_modules(supportgenus.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(f"supportgenus.{name}"))
    assert result.failed == 0

