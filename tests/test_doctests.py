"""Run the usage examples embedded in every module's docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import gentorsion

MODULES = sorted(info.name for info in pkgutil.iter_modules(gentorsion.__path__))
#: the modules whose docstrings carry examples
WITH_EXAMPLES = {"braid3", "modular", "words"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"gentorsion.{name}"), verbose=False)
    assert result.failed == 0
    assert result.attempted > 0 or name not in WITH_EXAMPLES
