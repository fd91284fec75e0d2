import importlib
import pkgutil

import pytest

import natstate

MODULES = sorted(m.name for m in pkgutil.iter_modules(natstate.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # A stale ``__all__`` entry breaks ``from natstate.<module> import *``.
    mod = importlib.import_module(f"natstate.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
