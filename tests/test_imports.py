"""Every sl2q module uses each name it imports, and every private
module-level name is used somewhere in the package.

No linter runs with the test suite, so these are the unused-import and
dead-code checks.  For imports, a name counts as used when the module
reads it anywhere or lists it in ``__all__`` (a re-export);
``from __future__`` imports are not names.  A private name (``_x``, not
a dunder) that a module defines at top level, as a function, class or
assignment, counts as used when some other top-level statement of the
package reads it, as a name, an attribute or an import.

Every name in a module's ``__all__`` must exist on that module, so that
a name deleted from the code cannot linger in an export list until
``from sl2q import *`` fails.

Importing the package and its CLI must also stay cheap: it loads neither
``dataclasses`` nor the ``inspect`` module behind it.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_exported_name_resolves(path):
    name = "sl2q" if path.stem == "__init__" else f"sl2q.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def dead_private_names(sources: dict) -> list[str]:
    """``module.name`` for each private top-level definition in
    ``sources`` (module -> source text) that no other top-level statement
    reads."""
    defined = []   # (module, name, defining statement)
    reads = []     # (statement, names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n, stmt) for n in names if _private(n)]
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read |= {a.name for a in node.names}
            reads.append((stmt, read))
    return [f"{module}.{name}" for module, name, stmt in defined
            if not any(name in read for other, read in reads if other is not stmt)]


def test_no_dead_private_names():
    assert dead_private_names({p.stem: p.read_text() for p in SOURCES}) == []


def test_the_check_sees_dead_private_names():
    sources = {
        "m": ("_A = 1\n_B: int = 2\n__all__ = []\n"
              "def _f(n):\n    return _f(n - 1) if n else _A\n"
              "class _K:\n    pass\n"
              "def _g():\n    return _K\n"),
        "n": "from .m import _g\nimport m\nx = m._B\n",
    }
    # _f reads itself only from its own body, and nothing reads _f
    assert dead_private_names(sources) == ["m._f"]
    sources["n"] += "y = m._f\n"
    assert dead_private_names(sources) == []


_ADDED_MODULES = """
import json, sys
before = set(sys.modules)
import sl2q, sl2q.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: the test process has loaded both long ago.
    # dataclasses, with inspect behind it, was most of what importing
    # sl2q cost before the records became plain slotted classes
    path = [str(Path(sl2q.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _ADDED_MODULES],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "sl2q.cli" in added   # the snapshot was taken before the import
    assert not {"dataclasses", "inspect"} & set(added), added
