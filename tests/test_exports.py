"""Every exported name resolves, so no __all__ lists removed API."""

import importlib
import pkgutil

import pytest

import cremona

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cremona.__path__))


@pytest.mark.parametrize("name", ["cremona"] + ["cremona." + m
                                                for m in SUBMODULES])
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
