"""Per-process caches stay bounded, whatever a long-lived caller asks for."""
import importlib
import pkgutil

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
