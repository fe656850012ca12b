"""Per-process caches stay bounded, whatever a long-lived caller asks for."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import sl2q

MODULES = sorted(info.name for info in pkgutil.iter_modules(sl2q.__path__, "sl2q."))


def test_every_lru_cache_is_bounded():
    found = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == name:
                found.append(f"{name}.{attr}")
                assert obj.cache_parameters()["maxsize"] is not None, found[-1]
    # the scan sees the caches it is meant to police
    assert "sl2q.cyclo.cyclotomic_polynomial" in found and "sl2q.fq.is_odd_prime" in found


_MISSES = """
import json
from sl2q import grp
misses = {}
for f in (grp.enumerate_group, grp.conjugacy_partition, grp.class_label_lookup):
    f(7), f(7, 50), f(q=7)
    misses[f.__name__] = f.cache_info().misses
print(json.dumps(misses))
"""


def test_group_caches_key_on_q_alone():
    # the enumeration bound is checked outside the cache, so the three
    # spellings of one call share an entry (each built the partition anew
    # when the cache keyed on the arguments as passed); fresh interpreter,
    # so that no other test has filled the caches
    path = [str(Path(sl2q.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _MISSES], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"enumerate_group": 1,
                                       "conjugacy_partition": 1,
                                       "class_label_lookup": 1}
