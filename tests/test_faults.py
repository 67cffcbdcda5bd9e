"""Committed faults: each fault, applied in process, must fail the check
named beside it.  A check that passes with its fault applied has lost the
power to catch it (the mutation idea of DeMillo, Lipton and Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978)."""

import pytest

from periodindex import bounds, complexes, snf, verify

_torsion_counts, _components, _cone = (complexes._torsion_counts, complexes._components,
                                       complexes._cone)
_smith_normal_form = verify.smith_normal_form

FAULTS = [  # (module, function, its faulty stand-in, the verify suite that must fail)
    # Theorem A's exponent loses v_p((d-1)!): only the suite's product check sees it
    pytest.param(bounds, "_legendre_sum", lambda p, m: 0, "xp-exponent",
                 id="legendre_sum-zero"),
    # torsion orders kept as read, never merged into a divisibility chain:
    # Z/2 + Z/3 stays two summands where the closed form has one Z/6
    pytest.param(snf, "_divisibility_chain",
                 lambda counts: {e: m for e, m in counts.items() if m and e > 1}, "composite",
                 id="divisibility_chain-unmerged"),
    # v_p(j) drops out of the differential-order bound p^(r + v_p(j))
    pytest.param(bounds, "padic_valuation", lambda p, m: 0, "xp-exponent",
                 id="padic_valuation-zero"),
    # the closed forms' series count one summand too many in every degree
    # = 3 (mod 7): the oracle's model homology has none of them
    pytest.param(complexes, "_torsion_counts",
                 lambda series, cap: [t + (d % 7 == 3)
                                      for d, t in enumerate(_torsion_counts(series, cap))],
                 "xp-exponent", id="torsion_counts-extra-summand"),
    # the oracle's factors lose their top component: its homology misses the
    # closed form's top degrees
    pytest.param(complexes, "_components", lambda c, top: _components(c, top)[:-1],
                 "elementary", id="components-drop-last"),
    # every packed slot of the oracle's sums one byte wide: counts past 255
    # carry into the next degree, which only the p = 2 model to k = 28 reaches
    pytest.param(complexes, "_largest_dim", lambda parts, top: 1, "xp-exponent",
                 id="largest_dim-one"),
    # the fold's one product loses its twist: every edge is the cone of 1,
    # which is acyclic, so the oracle's sums lose all their torsion
    pytest.param(complexes, "_cone", lambda a, h: _cone(a, 1), "elementary", id="cone-untwisted"),
    # the invariant factors come out in descending order: the route suites
    # call snf's own smith_normal_form and never see verify's name, so only
    # the randomized properties (divisibility chain, U @ M @ V) can fail
    pytest.param(verify, "smith_normal_form",
                 lambda m, with_transforms=False: (s := _smith_normal_form(m, with_transforms))
                 ._replace(invariant_factors=s.invariant_factors[::-1]),
                 "snf", id="smith_normal_form-reversed"),
]


@pytest.mark.parametrize("module, name, fault, suite", FAULTS)
def test_verify_kills_the_fault(monkeypatch, module, name, fault, suite):
    monkeypatch.setattr(module, name, fault)
    assert any(not res.passed for res in verify.run_suite(suite))
