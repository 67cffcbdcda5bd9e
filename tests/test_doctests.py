"""Keep the examples in the module docstrings honest."""

import doctest

import pytest

from periodindex import bounds, complexes, graded, packing, snf, words


@pytest.mark.parametrize("module", [bounds, complexes, graded, packing, snf, words])
def test_module_doctests(module):
    failed, _ = doctest.testmod(module)
    assert failed == 0
