"""Every name a module of ``iet3`` exports resolves.

``__all__`` is each module's public surface.  A name left in it after its
definition is deleted breaks ``from iet3.<module> import *``, and nothing
else that imports the package notices.
"""

import importlib
import pkgutil

import pytest

import iet3

MODULES = ["iet3"] + [f"iet3.{info.name}" for info in pkgutil.iter_modules(iet3.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [x for x in module.__all__ if not hasattr(module, x)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
