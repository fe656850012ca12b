"""The docstring examples of every sl2q module run as part of the suite."""
import doctest
import importlib
import pkgutil

import pytest

import sl2q

MODULES = sorted(info.name for info in pkgutil.iter_modules(sl2q.__path__, "sl2q."))


@pytest.mark.parametrize("name", ["sl2q"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
