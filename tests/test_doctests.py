"""Run the usage examples embedded in module docstrings."""

import doctest

import gentorsion.braid3
import gentorsion.modular
import gentorsion.words


def test_words_doctests():
    result = doctest.testmod(gentorsion.words, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_braid3_doctests():
    result = doctest.testmod(gentorsion.braid3, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_modular_doctests():
    result = doctest.testmod(gentorsion.modular, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
