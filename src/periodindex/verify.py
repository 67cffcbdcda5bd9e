"""Cross-check suites: closed forms against the Smith-normal-form oracle.

Each suite returns one :class:`CheckResult` per case so the CLI can print
a pass/fail line per case and the test suite can assert on the lot.  The
randomized SNF checks take an explicit seed and are deterministic given it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm, prod

from .bounds import padic_valuation
from .complexes import (ComplexKind, ElementaryComplex, closed_form_homology,
                        exponent_bound, model_chain_complex, model_homology,
                        primary_model_chain_complex, primary_model_homology,
                        realize_chain_complex)
from .graded import exponent
from .snf import IntegerMatrix, determinant, homology_of_complex, smith_normal_form

SUITES = ("elementary", "xp-exponent", "composite", "snf")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def suite_elementary(max_degree: int = 30) -> list[CheckResult]:
    """Closed-form homology == SNF homology of the realised complex,
    degree by degree, for every elementary kind."""
    cases = []
    for q in (1, 2, 3):
        cases.append(ElementaryComplex(ComplexKind.EXTERIOR_FIRST, q))
        cases.append(ElementaryComplex(ComplexKind.DIVIDED_POWER_FIRST, q))
        for h in (2, 3, 4, 5, 8, 9):
            cases.append(ElementaryComplex(ComplexKind.EP_SECOND, q, h))
            cases.append(ElementaryComplex(ComplexKind.PE_SECOND, q, h))
    results = []
    for c in cases:
        name = f"elementary {c.kind.value} q={c.q}" + (f" h={c.h}" if c.h else "")
        closed = closed_form_homology(c, max_degree)
        chain = realize_chain_complex(c, max_degree)
        mismatch = ""
        for n in range(max_degree + 1):
            free, torsion = homology_of_complex(chain, n)
            if (free, tuple(torsion)) != closed.summands(n):
                mismatch = (f"degree {n}: oracle {(free, torsion)} "
                            f"vs closed form {closed.summands(n)}")
                break
        results.append(CheckResult(name, not mismatch, mismatch))
    return results


def suite_xp_exponent(max_k: int = 12) -> list[CheckResult]:
    """Torsion exponent law for the p-primary models.

    For each p in {2,3,5} and r in {1,2}, the degree-2k exponent must be
    p^r * k with p-part p^(r + v_p(k)), and the Kunneth route must agree
    with SNF homology of the tensored chain complex, degree by degree.
    """
    results = []
    for p in (2, 3, 5):
        for r in (1, 2):
            cap = 2 * max_k
            via_kunneth = primary_model_homology(p, r, cap)
            chain = primary_model_chain_complex(p, r, cap)
            for k in range(1, max_k + 1):
                name = f"xp-exponent p={p} r={r} k={k}"
                free, torsion = homology_of_complex(chain, 2 * k)
                problems = []
                if (free, tuple(torsion)) != via_kunneth.summands(2 * k):
                    problems.append(
                        f"routes disagree in degree {2 * k}: SNF {(free, torsion)} "
                        f"vs Kunneth {via_kunneth.summands(2 * k)}")
                expected = p ** r * k
                exp_kunneth, _ = exponent(via_kunneth, 2 * k)
                exp_snf = lcm(*torsion) if torsion else 1
                if exp_kunneth != expected or exp_snf != expected:
                    problems.append(
                        f"exponent {exp_kunneth}/{exp_snf} != p^r*k = {expected}")
                p_part = p ** padic_valuation(p, exp_kunneth)
                if p_part != exponent_bound(p, r, k):
                    problems.append(
                        f"p-part {p_part} != p^(r+v_p(k)) = {exponent_bound(p, r, k)}")
                results.append(CheckResult(name, not problems, "; ".join(problems)))
    return results


def suite_composite() -> list[CheckResult]:
    """Composite orders: SNF homology of the tensored prime-power chain
    complexes == the Kunneth route, up to isomorphism, degree by degree.

    The Kunneth route keeps orders as produced (Z/2 + Z/3), the oracle
    reports invariant factors (Z/6), so both are compared in that form.
    """
    max_degree = 12
    results = []
    for n in (6, 12, 30, 360):
        via_kunneth = model_homology(n, max_degree)
        chain = model_chain_complex(n, max_degree)
        mismatch = ""
        for d in range(max_degree + 1):
            free, torsion = homology_of_complex(chain, d)
            expected = (via_kunneth.summands(d)[0], via_kunneth.invariant_factors(d))
            if (free, tuple(torsion)) != expected:
                mismatch = f"degree {d}: SNF {(free, torsion)} vs Kunneth {expected}"
                break
        results.append(CheckResult(f"composite n={n} to degree {max_degree}",
                                   not mismatch, mismatch))
    return results


def _random_matrix(rng: random.Random, rows: int, cols: int,
                   lo: int = -9, hi: int = 9) -> IntegerMatrix:
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols)


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
    for a, b in zip(s.invariant_factors, s.invariant_factors[1:]):
        if b % a:
            problems.append(f"divisibility chain broken: {s.invariant_factors}")
            break
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


def suite_snf(seed: int = 0, cases: int = 100) -> list[CheckResult]:
    """Randomized SNF properties: divisibility chain, unimodular transforms,
    invariance under unimodular change of basis, determinant consistency."""
    rng = random.Random(seed)
    return [_check_one_snf(rng, f"snf case {i}") for i in range(cases)]


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "elementary":
        return suite_elementary()
    if name == "xp-exponent":
        return suite_xp_exponent()
    if name == "composite":
        return suite_composite()
    if name == "snf":
        return suite_snf(seed=seed)
    if name == "all":
        results = []
        for suite in SUITES:
            results.extend(run_suite(suite, seed=seed))
        return results
    raise ValueError(f"unknown suite {name!r}")
