"""The docstring examples of every sl2q module, and the ```python blocks
of README.md, run as part of the suite."""
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sl2q

MODULES = sorted(info.name for info in pkgutil.iter_modules(sl2q.__path__, "sl2q."))


@pytest.mark.parametrize("name", ["sl2q"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


README = Path(__file__).resolve().parents[1] / "README.md"
# each block's body: the lines after a ```python fence, up to the closing one
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                           re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_examples(index):
    test = doctest.DocTestParser().get_doctest(
        README_BLOCKS[index], {}, f"README.md python block {index}",
        str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
