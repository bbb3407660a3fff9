import importlib
import inspect
import pkgutil

import malcev


def test_every_export_resolves():
    # tools that walk __all__ (tracers, docs) break on a stale entry
    exported = set()
    for info in pkgutil.iter_modules(malcev.__path__):
        module = importlib.import_module(f"malcev.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"malcev.{info.name}.{name}"
        exported.update(module.__all__)
    public = {
        name
        for name, value in vars(malcev).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= exported, sorted(public - exported)
