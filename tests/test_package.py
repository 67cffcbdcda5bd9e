"""The package namespace resolves its names lazily, and the record classes
behave as the frozen values they replaced."""

import copy
import importlib
import pickle

import pytest

import periodindex
from periodindex.bounds import SharpBound, index_bound
from periodindex.complexes import ComplexKind, ElementaryComplex
from periodindex.graded import GradedAbelianGroup
from periodindex.snf import IntegerMatrix, smith_normal_form
from periodindex.verify import CheckResult
from conftest import run_cold
from words_reference import Word, gamma, phi, psi, sigma

# The public API by home module.  A name a module exports here but the
# package's map does not know (or the reverse) fails the drift test.
PUBLIC = {
    "bounds": {"PRIME_CEILING", "BoundReport", "CeilingError", "SharpBound",
               "differential_order_bound", "factorize", "index_bound",
               "is_prime", "known_sharp_bound", "legendre_valuation", "padic_valuation",
               "prime_power_index_bound"},
    "complexes": {"ComplexKind", "ElementaryComplex", "closed_form_homology",
                  "model_chain_complex", "model_homology", "primary_model",
                  "primary_model_chain_complex", "primary_model_homology",
                  "realize_chain_complex"},
    "graded": {"GradedAbelianGroup", "exponent", "primary_part"},
    "snf": {"ChainComplex", "IntegerMatrix", "SmithNormalForm", "determinant",
            "homology_counts", "homology_of_complex", "smith_normal_form"},
    "words": {"enumerate_words", "format_word", "word_census"},
}


def _in_fresh_interpreter(code):
    return run_cold(["-c", code], check=True, timeout=10).stdout.split()


class TestLazyNamespace:
    def test_import_loads_no_submodule(self):
        assert _in_fresh_interpreter(
            "import sys, periodindex; print(*[m for m in sys.modules"
            " if m.startswith('periodindex.')])") == []

    def test_first_use_loads_only_the_home_module(self):
        assert _in_fresh_interpreter(
            "import sys, periodindex; periodindex.factorize;"
            " print(*sorted(m for m in sys.modules if m.startswith('periodindex.')))") == \
            ["periodindex.bounds"]

    def test_map_matches_the_public_api(self):
        home = {name: module for module, names in PUBLIC.items() for name in names}
        assert periodindex._HOME == home
        assert sorted(periodindex.__all__) == sorted([*home, "__version__"])

    def test_names_resolve_to_their_home_objects(self):
        for name in periodindex.__all__:
            if name != "__version__":
                module = importlib.import_module(f"periodindex.{periodindex._HOME[name]}")
                assert getattr(periodindex, name) is getattr(module, name), name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from periodindex import *", namespace)
        assert set(periodindex.__all__) <= set(namespace)
        assert namespace["enumerate_words"] is periodindex.words.enumerate_words
        assert namespace["__version__"] == periodindex.__version__

    def test_dir_and_unknown_names(self):
        assert set(periodindex.__all__) <= set(dir(periodindex))
        with pytest.raises(AttributeError) as err:
            periodindex.no_such_name
        assert "no_such_name" in str(err.value) and "\n" not in str(err.value)

    def test_layer_modules_are_attributes(self):
        assert periodindex.snf is importlib.import_module("periodindex.snf")


# Each former dataclass: build one value twice from the same fields.  Symbol
# and Word are the records of the reference words (tests/words_reference.py).
RECORDS = {
    "SharpBound": lambda: SharpBound(16, "realized by 8-dimensional examples"),
    "BoundReport": lambda: index_bound(12, 5),
    "ElementaryComplex": lambda: ElementaryComplex(ComplexKind.PE_SECOND, 1, h=4),
    "GradedAbelianGroup": lambda: GradedAbelianGroup.from_summands({0: [0], 2: [4, 2, 4]}, 3),
    "IntegerMatrix": lambda: IntegerMatrix(2, 2, (2, 4, 6, 8)),
    "SmithNormalForm": lambda: smith_normal_form(IntegerMatrix(2, 2, (2, 4, 6, 8)), True),
    "CheckResult": lambda: CheckResult("case", False, "detail"),
    "Symbol": lambda: psi(3, 2),
    "Word": lambda: Word((sigma(), gamma(2), phi(2))),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecords:
    def test_fields_are_read_only(self, name):
        value = RECORDS[name]()
        assert type(value).__name__ == name
        for field in getattr(value, "_fields", ("symbols",)):
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_equal_fields_equal_values(self, name):
        a, b = RECORDS[name](), RECORDS[name]()
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
        assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


def test_symbol_text_follows_its_fields():
    assert psi(3, 2).text == "ψ_9" and psi(3, 2).ascii_text == "y_9"
    assert psi(3, 2) != psi(3, 1) and gamma(2) != phi(2)
    assert repr(sigma()) == ("Symbol(kind=<SymbolKind.SIGMA: 0>, prime=None, psi_exponent=None,"
                             " text='σ', ascii_text='s')")


def test_graded_group_checks_and_sorts_its_parts():
    # the other records' checks are covered with their modules
    with pytest.raises(ValueError):
        GradedAbelianGroup(((0, ((2, 0),)),))
    with pytest.raises(ValueError):
        GradedAbelianGroup(((0, ((2, 1), (2, 3))),))
    for empty in ((), [], {}.items()):  # a negative free rank in an otherwise empty degree
        with pytest.raises(ValueError):
            GradedAbelianGroup(((1, ()), (-1, empty)))
        assert GradedAbelianGroup(((1, ()), (2, empty))).parts == ((1, ()), (2, ()))
    assert GradedAbelianGroup(((1, [(4, 1), (2, 3)]),)).parts == ((1, ((2, 3), (4, 1))),)


@pytest.mark.parametrize("build, message", [
    (lambda: IntegerMatrix(2, 2, (1, 2, 3, 4))._replace(rows=3), "expected 6 entries, got 4"),
    (lambda: GradedAbelianGroup._make([((-1, ()),)]), "parts need rank >= 0"),
    (lambda: ElementaryComplex(ComplexKind.PE_SECOND, 1, h=4)._replace(h=None), "twist"),
    (lambda: gamma(2)._replace(prime=4), "needs a prime, got 4"),
    (lambda: gamma(2)._replace(prime=5), "the text of"),
], ids=["IntegerMatrix", "GradedAbelianGroup", "ElementaryComplex", "Symbol-prime", "Symbol-text"])
def test_make_and_replace_check_like_the_constructor(build, message):
    with pytest.raises(ValueError, match=message) as caught:
        build()
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("name", ["ElementaryComplex", "GradedAbelianGroup", "IntegerMatrix",
                                  "Symbol"])
def test_make_rebuilds_a_valid_value(name):
    value = RECORDS[name]()
    assert type(value)._make(value) == value and value._replace() == value
