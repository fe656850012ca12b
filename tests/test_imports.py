"""Every sl2q module uses each name it imports.

No linter runs with the test suite, so this is the unused-import check:
a name counts as used when the module reads it anywhere or lists it in
``__all__`` (a re-export); ``from __future__`` imports are not names.
"""
import ast
from pathlib import Path

import pytest

import sl2q

SOURCES = sorted(Path(sl2q.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\nfrom math import gcd, lcm\n"
              "__all__ = ['lcm']\n"
              "def f(x):\n    return os.path.join(x, x)\n")
    assert unused_imports(source) == ["gcd", "regex"]
    # a read inside a function, an annotation or __all__ is a use
    assert unused_imports("import re\ndef f(x: re.Pattern): pass\n") == []
