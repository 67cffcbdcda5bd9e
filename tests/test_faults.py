"""Committed faults: each fault, applied in process, must fail the check
named beside it.  A check that passes with its fault applied has lost the
power to catch it (the mutation idea of DeMillo, Lipton and Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978)."""

import pytest

from periodindex import bounds, verify

FAULTS = [  # (module, function, its faulty stand-in, the verify suite that must fail)
    # Theorem A's exponent loses v_p((d-1)!): only the suite's product check sees it
    pytest.param(bounds, "_legendre_sum", lambda p, m: 0, "xp-exponent",
                 id="legendre_sum-zero"),
]


@pytest.mark.parametrize("module, name, fault, suite", FAULTS)
def test_verify_kills_the_fault(monkeypatch, module, name, fault, suite):
    monkeypatch.setattr(module, name, fault)
    assert any(not res.passed for res in verify.run_suite(suite))
