"""Every name a package exports resolves.

``from package import *`` is the only other place a stale ``__all__``
entry fails, and no test runs it.
"""

import importlib

import pytest

PACKAGES = ("repro.serve", "repro.workloads")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
