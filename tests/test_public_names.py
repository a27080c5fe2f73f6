"""Every name a grassball module lists in ``__all__`` resolves.

A name removed from a module but left in its ``__all__`` would surface only
on ``from grassball.<module> import *``.
"""

import importlib
import pkgutil

import grassball


def test_every_name_in_each_modules_all_resolves():
    checked = 0
    for info in pkgutil.iter_modules(grassball.__path__):
        module = importlib.import_module(f"grassball.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), info.name
        for name in names:
            assert hasattr(module, name), f"grassball.{info.name}.{name}"
        checked += len(names)
    assert checked > 50, checked
