"""Index bounds for topological Brauer classes, with the homology machinery
that proves them.

The package has three layers:

* exact integer linear algebra (:mod:`periodindex.snf`): Smith normal form
  and homology of based free chain complexes;
* the homology model for K(Z/n, 2) (:mod:`periodindex.words`,
  :mod:`periodindex.graded`, :mod:`periodindex.complexes`): word calculus,
  graded abelian groups with a Kunneth product, and the elementary dg
  complexes whose tensor products carry the torsion;
* the period-index arithmetic (:mod:`periodindex.bounds`): per-prime
  differential-order bounds and the resulting index bound
  n^(d-1) * prod p^(v_p((d-1)!)).

Everything the closed forms claim is independently checkable against the
Smith-normal-form oracle; see :mod:`periodindex.verify` and the ``verify``
CLI subcommand.
"""

from .bounds import (PRIME_CEILING, BoundComparison, BoundReport, CeilingError,
                     SharpBound, compare_bounds, differential_order_bound,
                     factorize, index_bound, is_prime, known_sharp_bound,
                     legendre_valuation, padic_valuation, prime_power_index_bound)
from .complexes import (ComplexKind, ElementaryComplex, closed_form_homology,
                        exponent_bound, model_chain_complex, model_homology,
                        primary_model, primary_model_chain_complex,
                        primary_model_homology, realize_chain_complex,
                        tensor_chain_complex)
from .graded import (GradedAbelianGroup, exponent, kunneth, primary_part,
                     tensor_summands, tor_summands)
from .snf import (ChainComplex, IntegerMatrix, SmithNormalForm, determinant,
                  homology_of_complex, smith_normal_form)
from .words import (Symbol, SymbolKind, Word, count_words, degree, enumerate_words,
                    format_word, gamma, height, is_admissible, phi, psi, sigma,
                    word_census)

__version__ = "0.1.0"

__all__ = [
    "PRIME_CEILING", "BoundComparison", "BoundReport", "CeilingError",
    "SharpBound", "compare_bounds",
    "differential_order_bound", "factorize", "index_bound", "is_prime",
    "known_sharp_bound", "legendre_valuation", "padic_valuation",
    "prime_power_index_bound",
    "ComplexKind", "ElementaryComplex", "closed_form_homology", "exponent_bound", "model_chain_complex", "model_homology",
    "primary_model", "primary_model_chain_complex", "primary_model_homology",
    "realize_chain_complex", "tensor_chain_complex",
    "GradedAbelianGroup", "exponent", "kunneth", "primary_part",
    "tensor_summands", "tor_summands",
    "ChainComplex", "IntegerMatrix", "SmithNormalForm", "determinant",
    "homology_of_complex", "smith_normal_form",
    "Symbol", "SymbolKind", "Word", "count_words", "degree", "enumerate_words",
    "format_word",
    "gamma", "height", "is_admissible", "phi", "psi", "sigma", "word_census",
    "__version__",
]
