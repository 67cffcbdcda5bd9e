"""Cross-check suites: closed forms against the Smith-normal-form oracle.

Each suite returns one :class:`CheckResult` per case so the CLI can print
a pass/fail line per case and the test suite can assert on the lot.  The
randomized SNF checks take an explicit seed and are deterministic given it.
"""

from __future__ import annotations

import random
from math import prod
from typing import NamedTuple

from . import SUITES
from .bounds import differential_order_bound, padic_valuation, prime_power_index_bound
from .complexes import (ComplexKind, ElementaryComplex, closed_form_homology,
                        model_chain_complex, model_homology,
                        primary_model_chain_complex, primary_model_homology,
                        realize_chain_complex)
from .graded import exponent
from .snf import (IntegerMatrix, determinant, homology_counts, homology_of_complex,
                  smith_normal_form)


_ELEMENTARY_CAP = 30  # suite_elementary's top degree
_SNF_CASES = 100  # the random matrices suite_snf checks
# k = 28 for p = 2: the model's largest dim there, 302, needs 2-byte slots
_MAX_K = {2: 28, 3: 12, 5: 12}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _mismatch(chain, closed, degrees) -> str:
    """The first of ``degrees`` where SNF homology of ``chain`` and ``closed`` differ, or "":
    compared as (order, multiplicity) counts, with summands listed only for a failure."""
    for d in degrees:
        free, torsion = homology_counts(chain, d)
        if (free, tuple(torsion.items())) != closed.parts[d]:
            return (f"degree {d}: SNF {homology_of_complex(chain, d)} "
                    f"vs closed form {closed.summands(d)}")
    return ""


def suite_elementary() -> list[CheckResult]:
    """Closed-form homology == SNF homology of the oracle's one-factor
    complex, degree by degree, for both elementary kinds."""
    top, results = _ELEMENTARY_CAP, []
    for c in (ElementaryComplex(kind, q, h) for q in (1, 2, 3) for h in (2, 3, 4, 5, 8, 9)
              for kind in ComplexKind):
        mismatch = _mismatch(realize_chain_complex(c, top), closed_form_homology(c, top),
                             range(top + 1))
        results.append(CheckResult(f"elementary {c.kind.value} q={c.q} h={c.h}", not mismatch,
                                   mismatch))
    return results


def suite_xp_exponent(max_k: int | None = None) -> list[CheckResult]:
    """Torsion exponent law for the p-primary models, by two routes.

    For each p in {2,3,5}, r in {1,2} and k up to ``max_k``, or by default
    up to 28 for p = 2 and 12 for 3 and 5, the degree-2k exponent must be
    p^r * k, its p-part must be ``differential_order_bound(p, r, k)`` =
    p^(r + v_p(k)), the factor Theorem A multiplies, and the mod-p series
    of ``primary_model_homology`` must agree in every degree with SNF
    homology of the direct-sum model: check k compares degrees 2k - 1,
    which holds the Tor terms' Z/p, and 2k, and check 1 compares degrees
    0 to 2.  Check k also requires Theorem A's closed form
    ``prime_power_index_bound(p, r, k + 1)`` to be the product of the
    factors for j = 1..k.
    """
    results = []
    for p, top in _MAX_K.items():
        for r in (1, 2):
            cap = 2 * (top if max_k is None else max_k)
            via_series = primary_model_homology(p, r, cap)
            chain = primary_model_chain_complex(p, r, cap)
            product = 1  # of the factors to k: Theorem A's bound in dimension 2(k + 1)
            for k in range(1, cap // 2 + 1):
                name = f"xp-exponent p={p} r={r} k={k}"
                degrees = range(0 if k == 1 else 2 * k - 1, 2 * k + 1)
                mismatch = _mismatch(chain, via_series, degrees)
                problems = [mismatch] if mismatch else []
                expected = p ** r * k
                exp_series, _ = exponent(via_series, 2 * k)
                exp_snf = max(homology_counts(chain, 2 * k)[1], default=1)  # a chain's largest
                if exp_series != expected or exp_snf != expected:
                    problems.append(
                        f"exponent {exp_series}/{exp_snf} != p^r*k = {expected}")
                p_part = p ** padic_valuation(p, exp_series)
                factor = differential_order_bound(p, r, k)
                if p_part != factor:
                    problems.append(f"p-part {p_part} != p^(r+v_p(k)) = {factor}")
                product *= factor
                if (bound := prime_power_index_bound(p, r, k + 1)) != product:
                    problems.append(f"Theorem A bound {bound} != product of the factors "
                                    f"to k = {product}")
                results.append(CheckResult(name, not problems, "; ".join(problems)))
    return results


def suite_composite() -> list[CheckResult]:
    """Composite orders: SNF homology of the direct-sum model over all the
    prime-power factors == ``model_homology``'s level counts, whose summands
    are invariant factors as SNF reports them, degree by degree."""
    max_degree = 12
    results = []
    for n in (6, 12, 30, 360):
        mismatch = _mismatch(model_chain_complex(n, max_degree), model_homology(n, max_degree),
                             range(max_degree + 1))
        results.append(CheckResult(f"composite n={n} to degree {max_degree}", not mismatch,
                                   mismatch))
    return results


def _random_matrix(rng: random.Random, rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols)


def _random_unimodular(rng: random.Random, n: int, ops: int = 10) -> IntegerMatrix:
    """Product of at most ``ops`` elementary matrices with small entries."""
    m = IntegerMatrix.identity(n).to_rows()
    if n < 2:
        return IntegerMatrix.from_rows(m, cols=n)
    for _ in range(rng.randint(1, ops)):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            for col in range(n):
                m[i][col] += c * m[j][col]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return IntegerMatrix.from_rows(m, cols=n)


def _check_one_snf(rng: random.Random, name: str) -> CheckResult:
    rows = rng.randint(1, 8)
    cols = rng.randint(1, 8)
    m = _random_matrix(rng, rows, cols)
    s = smith_normal_form(m, with_transforms=True)
    problems = []
    if any(b % a for a, b in zip(s.invariant_factors, s.invariant_factors[1:])):
        problems.append(f"divisibility chain broken: {s.invariant_factors}")
    diagonal = [0] * (rows * cols)
    for i, d in enumerate(s.invariant_factors):
        diagonal[i * cols + i] = d
    if (s.left @ m @ s.right).entries != tuple(diagonal):
        problems.append("U @ M @ V != diag(invariant factors)")
    if abs(determinant(s.left)) != 1 or abs(determinant(s.right)) != 1:
        problems.append("transform is not unimodular")
    p = _random_unimodular(rng, rows)
    q = _random_unimodular(rng, cols)
    s2 = smith_normal_form(p @ m @ q)
    if s2.invariant_factors != s.invariant_factors:
        problems.append(
            f"not invariant under unimodular change: {s2.invariant_factors} "
            f"vs {s.invariant_factors}")
    if rows == cols:
        det = determinant(m)
        if det != 0 and prod(s.invariant_factors) != abs(det):
            problems.append(
                f"invariant factor product {prod(s.invariant_factors)} != |det| {abs(det)}")
    return CheckResult(name, not problems, "; ".join(problems))


def suite_snf(seed: int = 0) -> list[CheckResult]:
    """Randomized SNF properties: divisibility chain, unimodular transforms,
    invariance under unimodular change of basis, determinant consistency."""
    rng = random.Random(seed)
    return [_check_one_snf(rng, f"snf case {i}") for i in range(_SNF_CASES)]


_RUNNERS = {  # each suite of SUITES, run for a seed that only snf reads
    "elementary": lambda seed: suite_elementary(),
    "xp-exponent": lambda seed: suite_xp_exponent(),
    "composite": lambda seed: suite_composite(),
    "snf": lambda seed: suite_snf(seed=seed),
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Suite ``name``'s results, or every suite's in ``SUITES`` order for "all"."""
    try:
        runners = [_RUNNERS[suite] for suite in (SUITES if name == "all" else (name,))]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}") from None
    return [res for run in runners for res in run(seed)]
