"""Index bounds for topological Brauer classes, with the homology machinery
that proves them.

The package has three layers:

* exact integer linear algebra (:mod:`periodindex.snf`): Smith normal form
  and homology of based free chain complexes;
* the homology model for K(Z/n, 2) (:mod:`periodindex.words`,
  :mod:`periodindex.graded`, :mod:`periodindex.complexes`): the admissible
  words, listed and counted as kind-digit keys, graded abelian groups in
  invariant factors, and the elementary dg complexes whose tensor products
  carry the torsion;
* the period-index arithmetic (:mod:`periodindex.bounds`): per-prime
  differential-order bounds and the resulting index bound
  n^(d-1) * prod p^(v_p((d-1)!)).

Everything the closed forms claim is independently checkable against the
Smith-normal-form oracle; see :mod:`periodindex.verify` and the ``verify``
CLI subcommand.

Importing the package loads none of its modules: each name in ``__all__``
is imported from its module (``_EXPORTS``) on first use, so a process loads
only the layers it uses, and a cold ``periodindex bound`` only ``bounds``.
"""

__version__ = "0.1.0"

SUITES = ("elementary", "xp-exponent", "composite", "snf")  # of periodindex.verify, for the CLI

_EXPORTS = {
    "bounds": """PRIME_CEILING BoundReport CeilingError SharpBound differential_order_bound
        factorize index_bound is_prime known_sharp_bound legendre_valuation padic_valuation
        prime_power_index_bound""",
    "complexes": """ComplexKind ElementaryComplex closed_form_homology model_chain_complex model_homology primary_model primary_model_chain_complex
        primary_model_homology realize_chain_complex""",
    "graded": "GradedAbelianGroup exponent primary_part",
    "snf": """ChainComplex IntegerMatrix SmithNormalForm determinant homology_counts
        homology_of_complex smith_normal_form""",
    "words": "enumerate_words format_word word_census",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    from importlib import import_module
    if name in _EXPORTS:  # a layer's module, as ``periodindex.snf``
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
