"""The ``GradedAbelianGroup`` constructor body the package's one-pass
``__new__`` is checked against.

``checked_parts`` sorts every degree that holds pairs, then checks the
free rank, every order and count, and the orders' distinctness through a
set, as the constructor did before it walked each degree once.  A degree
whose orders do not each divide the next is then merged into invariant
factors through the tests' tower reference, which factorises every
order, not through the package's gcd/lcm merge.
"""

from __future__ import annotations

from collections import Counter

from kunneth_reference import invariant_factors


def checked_parts(parts) -> tuple:
    """The ``parts`` a group built from ``parts`` holds, or the ValueError
    the constructor raises."""
    if not parts:
        raise ValueError("a graded group needs at least degree 0")
    fixed = []
    for free, pairs in parts:
        if not pairs and free >= 0:  # an empty or free-only degree: nothing to sort
            fixed.append((free, ()))
            continue
        pairs = tuple(sorted(pairs))
        if (free < 0 or any(t < 2 or m < 1 for t, m in pairs)
                or len({t for t, _ in pairs}) < len(pairs)):
            raise ValueError("parts need rank >= 0, distinct orders >= 2 and counts >= 1")
        orders = [t for t, _ in pairs]
        if any(b % a for a in orders for b in orders if a < b):
            pairs = tuple(sorted(Counter(invariant_factors(pairs)).items()))
        fixed.append((free, pairs))
    return tuple(fixed)
