"""Isomorphism-invariant answer forms, CLI output parsers and reference values.

The answer checks compare what periodindex returns against values worked out
here, so nothing in this module imports periodindex.  A graded group is
reduced to its primary decomposition per degree: the free rank plus a sorted
tuple of (p, e, multiplicity) for the summands Z/p^e.  Two groups are
isomorphic exactly when these forms are equal, however the library chooses to
store or print its summands (Z/6 and Z/2 + Z/3 give the same form).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager
from math import prod

_FACTORS: dict[int, tuple[tuple[int, int], ...]] = {}


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorisation; only used on small cyclic orders."""
    if n in _FACTORS:
        return _FACTORS[n]
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    _FACTORS[n] = tuple(out)
    return _FACTORS[n]


def valuation(p: int, m: int) -> int:
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def legendre(p: int, m: int) -> int:
    """v_p(m!)."""
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def bound_reference(factors, d: int) -> int:
    """n^(d-1) * prod_{p | n} p^(v_p((d-1)!)) from a known factorisation of n."""
    n = prod(p ** e for p, e in factors)
    return n ** (d - 1) * prod(p ** legendre(p, d - 1) for p, _ in factors)


def degree_form(free: int, orders) -> tuple:
    """(free rank, sorted (p, e, multiplicity)) for Z^free + sum of Z/order."""
    counts = orders if isinstance(orders, Counter) else Counter(orders)
    acc: Counter = Counter()
    for order, mult in counts.items():
        for p, e in factor(order):
            acc[(p, e)] += mult
    return (free, tuple(sorted((p, e, m) for (p, e), m in acc.items())))


def group_form(data: dict) -> tuple:
    """Forms of every degree of a group in the documented JSON schema
    {degree: {"free": rank, "torsion": [orders as decimal strings]}}."""
    degrees = sorted(int(k) for k in data)
    if degrees != list(range(len(degrees))):
        raise ValueError("homology JSON does not list every degree from 0")
    forms = []
    for d in degrees:
        entry = data[str(d)]
        counts = Counter()
        for text, mult in Counter(entry["torsion"]).items():
            counts[int(text)] += mult
        forms.append(degree_form(entry["free"], counts))
    return tuple(forms)


def exponent_of(form: tuple) -> int:
    """Torsion exponent (lcm of the orders) of one degree form; 1 if none."""
    top: dict[int, int] = {}
    for p, e, _ in form[1]:
        top[p] = max(top.get(p, 0), e)
    return prod(p ** e for p, e in top.items())


def law_problems(forms: tuple, p: int, r: int) -> list[str]:
    """Degree-2k law of the p^r model: exponent p^r * k, p-part p^(r + v_p(k))."""
    problems = []
    for k in range(1, (len(forms) - 1) // 2 + 1):
        exp = exponent_of(forms[2 * k])
        if exp != p ** r * k:
            problems.append(f"degree {2 * k}: exponent {exp} != p^r*k = {p ** r * k}")
        elif p ** valuation(p, exp) != p ** (r + valuation(p, k)):
            problems.append(f"degree {2 * k}: p-part of {exp} != p^(r+v_p(k))")
    return problems


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:24]


# ---- CLI output parsers: every format maps to the same value ----

_ASCII = str.maketrans({"σ": "s", "γ": "g", "φ": "f", "ψ": "y"})


def _table_rows(out: str) -> list[list[str]]:
    """Body rows of the pretty table: a header, a dashed rule, then rows."""
    lines = out.rstrip("\n").split("\n")
    if len(lines) < 2 or not set(lines[1].replace(" ", "")) <= {"-"}:
        raise ValueError("not a pretty table")
    return [re.split(r" {2,}", line.strip()) for line in lines[2:]]


def _csv_rows(out: str, header: list[str]) -> list[list[str]]:
    lines = out.rstrip("\n").split("\n")
    if lines[0].split(",") != header:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def parse_bound(fmt: str, out: str) -> int:
    if fmt == "json":
        return int(json.loads(out)["theorem_a"])
    if fmt == "csv":
        lines = out.rstrip("\n").split("\n")
        header = lines[0].split(",")
        return int(lines[1].split(",")[header.index("theorem_a")])
    match = re.search(r"^theorem_a = (\d+)$", out, re.M)
    if not match:
        raise ValueError("no theorem_a line")
    return int(match.group(1))


def parse_table(fmt: str, out: str) -> dict[tuple[int, int], int]:
    if fmt == "json":
        return {(c["n"], c["d"]): int(c["theorem_a"]) for c in json.loads(out)}
    if fmt == "csv":
        return {(int(n), int(d)): int(v) for n, d, v in _csv_rows(out, ["n", "d", "theorem_a"])}
    header = re.split(r" {2,}", out.split("\n", 1)[0].strip())
    cells = {}
    for row in _table_rows(out):
        for d, value in zip(header[1:], row[1:]):
            cells[(int(row[0]), int(d))] = int(value)
    return cells


def parse_words(fmt: str, out: str) -> list[tuple[int, int, str]]:
    """Sorted (degree, height, word) rows, symbols rendered as s, g, f, y."""
    if fmt == "json":
        rows = [(w["degree"], w["height"], w["word"]) for w in json.loads(out)]
    else:
        raw = (_csv_rows(out, ["degree", "height", "word"]) if fmt == "csv"
               else _table_rows(out))
        rows = [(int(d), int(h), w) for d, h, w in raw]
    return sorted((d, h, w.translate(_ASCII)) for d, h, w in rows)


def _describe_form(desc: str) -> tuple:
    free, orders = 0, []
    if desc != "0":
        for piece in desc.split(" + "):
            if piece == "Z":
                free += 1
            elif piece.startswith("Z^"):
                free += int(piece[2:])
            elif piece.startswith("Z/"):
                orders.append(int(piece[2:]))
            else:
                raise ValueError(f"unreadable summand {piece!r}")
    return degree_form(free, orders)


def parse_homology(fmt: str, out: str) -> tuple:
    """Group form from any format; the printed exponent column is checked too."""
    if fmt == "json":
        return group_form(json.loads(out))
    forms = []
    if fmt == "csv":
        for d, free, exp, torsion in _csv_rows(out, ["degree", "free", "exponent", "torsion"]):
            forms.append((int(d), degree_form(int(free), [int(t) for t in torsion.split("+") if t]),
                          int(exp)))
    else:
        for d, desc, exp in _table_rows(out):
            forms.append((int(d), _describe_form(desc), int(exp)))
    if [d for d, _, _ in forms] != list(range(len(forms))):
        raise ValueError("homology rows do not list every degree from 0")
    for d, form, exp in forms:
        if exponent_of(form) != exp:
            raise ValueError(f"degree {d}: printed exponent {exp} != {exponent_of(form)}")
    return tuple(form for _, form, _ in forms)


def parse_verify(out: str) -> bool:
    match = re.search(r"^(\d+)/(\d+) checks passed", out, re.M)
    return bool(match) and match.group(1) == match.group(2) and "FAIL" not in out


@contextmanager
def unlimited_int_digits():
    """Lift Python's int <-> str digit limit (3.11+) while checking answers."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
