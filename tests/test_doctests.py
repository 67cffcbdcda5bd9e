"""Keep the examples in the module docstrings and the README honest."""

import doctest
from pathlib import Path

import pytest

from periodindex import bounds, complexes, graded, packing, snf, words


@pytest.mark.parametrize("module", [bounds, complexes, graded, packing, snf, words])
def test_module_doctests(module):
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_readme_example():
    failed, tried = doctest.testfile(str(Path(__file__).parents[1] / "README.md"),
                                     module_relative=False)
    assert failed == 0 and tried > 0
